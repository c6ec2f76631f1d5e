package core

import (
	"sort"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/topology"
)

// TestEachRowMatchesWhere checks the one-walk split against Where on a
// dataset whose a64fx/CG/small group is split across two runs: every row of
// every grouping holds exactly the samples Where keeps for its label, in the
// same order, and the rows come in label order.
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
	for _, g := range []Grouping{PerArchApp, PerApp, PerArch} {
		var labels []string
		total := 0
		err := g.eachRow(ds, func(label string, sub *dataset.Dataset) error {
			labels = append(labels, label)
			total += sub.Len()
			want := ds.Where(func(grp *dataset.Group) bool { return g.label(grp) == label })
			if sub.Len() != want.Len() {
				t.Errorf("grouping %d row %s: %d samples, Where keeps %d", g, label, sub.Len(), want.Len())
				return nil
			}
			for i := range want.Samples {
				if sub.Samples[i] != want.Samples[i] {
					t.Errorf("grouping %d row %s: sample %d differs from Where's", g, label, i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sort.StringsAreSorted(labels) {
			t.Errorf("grouping %d: rows %v not in label order", g, labels)
		}
		if total != ds.Len() {
			t.Errorf("grouping %d: rows hold %d samples, dataset %d", g, total, ds.Len())
		}
	}
}
