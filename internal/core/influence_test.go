package core

import (
	"sort"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/topology"
)

// TestEachRowMatchesWhere checks the frame's heatmap rows against Where on
// a dataset whose a64fx/CG/small group is split across two runs: every row
// of every grouping holds exactly the samples Where keeps for its label, in
// the same order, and the rows come in label order.
func TestEachRowMatchesWhere(t *testing.T) {
	layout := []struct {
		arch         topology.Arch
		app, setting string
		n            int
	}{
		{topology.A64FX, "CG", "small", 2},
		{topology.Milan, "CG", "small", 2},
		{topology.A64FX, "MG", "large", 1},
		{topology.A64FX, "CG", "small", 3},
		{topology.Skylake, "MG", "small", 2},
	}
	ds := &dataset.Dataset{}
	for _, run := range layout {
		for i := 0; i < run.n; i++ {
			ds.Samples = append(ds.Samples, &dataset.Sample{Arch: run.arch, App: run.app, Setting: run.setting})
		}
	}
	f := NewFrame(ds)
	for _, g := range []Grouping{PerArchApp, PerApp, PerArch} {
		labels, sels := f.rows(g)
		total := 0
		for k, label := range labels {
			sub := selected(f, sels[k])
			total += len(sub)
			want := ds.Where(func(grp *dataset.Group) bool { return g.label(grp) == label })
			if len(sub) != want.Len() {
				t.Errorf("grouping %d row %s: %d samples, Where keeps %d", g, label, len(sub), want.Len())
				continue
			}
			for i := range want.Samples {
				if sub[i] != want.Samples[i] {
					t.Errorf("grouping %d row %s: sample %d differs from Where's", g, label, i)
				}
			}
		}
		if !sort.StringsAreSorted(labels) {
			t.Errorf("grouping %d: rows %v not in label order", g, labels)
		}
		if total != ds.Len() {
			t.Errorf("grouping %d: rows hold %d samples, dataset %d", g, total, ds.Len())
		}
	}
}
