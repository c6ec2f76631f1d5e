package core

import (
	"math"
	"sort"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// refValueLift is the map-and-sort valueLift the frame replaced, kept as the
// oracle: it sorts the samples themselves, recomputing Speedup in the
// comparator, and counts Config.Value strings in maps.
func refValueLift(ds *dataset.Dataset, before func(a, b *dataset.Sample) bool) map[env.VarName]map[string]float64 {
	samples := append([]*dataset.Sample(nil), ds.Samples...)
	sort.Slice(samples, func(i, j int) bool { return before(samples[i], samples[j]) })
	nTop := int(float64(len(samples)) * extremeFrac)
	if nTop < 10 {
		nTop = min(10, len(samples))
	}
	top := samples[:nTop]

	out := make(map[env.VarName]map[string]float64)
	for _, v := range env.Names() {
		all := map[string]int{}
		topCount := map[string]int{}
		for _, s := range samples {
			all[s.Config.Value(v)]++
		}
		for _, s := range top {
			topCount[s.Config.Value(v)]++
		}
		lifts := map[string]float64{}
		for val, cAll := range all {
			pAll := float64(cAll) / float64(len(samples))
			pTop := float64(topCount[val]) / float64(len(top))
			if pAll > 0 {
				lifts[val] = pTop / pAll
			}
		}
		out[v] = lifts
	}
	return out
}

func refFastest(a, b *dataset.Sample) bool { return a.Speedup() > b.Speedup() }
func refSlowest(a, b *dataset.Sample) bool { return a.Speedup() < b.Speedup() }

// selected lists sel's samples in selection order.
func selected(f *Frame, sel selection) []*dataset.Sample {
	var out []*dataset.Sample
	for _, r := range sel {
		out = append(out, f.samples[r.Lo:r.Hi]...)
	}
	return out
}

// tiedInterleaved builds a dataset whose groups are split across
// interleaved runs, with runtimes quantized to five levels so that speedups
// tie across the top-5 % cut, and configurations drawn across each machine's
// space so that tied samples differ in every variable. milan/EP/tiny holds
// 7 samples: a slice below valueLift's 10-sample floor.
func tiedInterleaved() *dataset.Dataset {
	layout := []struct {
		arch         topology.Arch
		app, setting string
		n            int
	}{
		{topology.A64FX, "CG", "small", 90},
		{topology.Milan, "CG", "small", 120},
		{topology.A64FX, "MG", "small", 150},
		{topology.A64FX, "CG", "small", 60},
		{topology.Skylake, "MG", "large", 110},
		{topology.Milan, "CG", "large", 100},
		{topology.Milan, "EP", "tiny", 4},
		{topology.A64FX, "CG", "large", 130},
		{topology.Skylake, "CG", "small", 210},
		{topology.Milan, "CG", "small", 80},
		{topology.Milan, "EP", "tiny", 3},
		{topology.A64FX, "CG", "small", 70},
	}
	levels := []float64{2, 1.25, 1, 0.8, 0.5}
	ds := &dataset.Dataset{}
	for _, run := range layout {
		m := topology.MustGet(run.arch)
		space := env.Space(m)
		scale := 1.0
		if run.setting == "large" {
			scale = 2
		}
		for i := 0; i < run.n; i++ {
			k := len(ds.Samples)
			s := &dataset.Sample{
				Arch: run.arch, App: run.app, Setting: run.setting,
				Threads: m.Cores, Scale: scale,
				Config:         space[(k*7919)%len(space)],
				DefaultRuntime: 1,
			}
			rt := levels[(k*k+3*k)%len(levels)]
			for r := range s.Runtimes {
				s.Runtimes[r] = rt
			}
			ds.Samples = append(ds.Samples, s)
		}
	}
	return ds
}

// sameLifts reports whether the frame's lifts of variable position k equal
// the oracle's: every value the oracle lists at the same bits, every other
// value at 0.
func sameLifts(t *testing.T, what string, f *Frame, got []float64, want map[env.VarName]map[string]float64) {
	t.Helper()
	if len(got) != f.base[len(f.names)] {
		t.Errorf("%s: %d lifts, the frame has %d values", what, len(got), f.base[len(f.names)])
	}
	for k, v := range env.Names() {
		for id, lift := range f.liftsOf(got, k) {
			val := f.names[k][id]
			w, ok := want[v][val]
			if !ok {
				w = 0
			}
			if math.Float64bits(lift) != math.Float64bits(w) {
				t.Errorf("%s: %s=%s lift %v, oracle %v", what, v, val, lift, w)
			}
		}
		for val := range want[v] {
			if i := sort.SearchStrings(f.names[k], val); i == len(f.names[k]) || f.names[k][i] != val {
				t.Errorf("%s: %s=%s missing from the frame", what, v, val)
			}
		}
	}
}

// TestFrameMatchesWhereAndLifts holds the frame to today's selections and
// lifts: for every application, architecture and (application,
// architecture), its selection lists the samples Where returns in the same
// order, its best speedups give Dataset's ranges, and its lifts match the
// map-and-sort oracle bit for bit under both extremes, ties across the cut
// included.
func TestFrameMatchesWhereAndLifts(t *testing.T) {
	ds := tiedInterleaved()
	f := NewFrame(ds)
	type slice struct {
		name  string
		match func(*dataset.Group) bool
		want  *dataset.Dataset
	}
	var slices []slice
	for _, app := range ds.Apps() {
		slices = append(slices, slice{app, ofApp(app), ds.ByApp(app)})
		for _, arch := range topology.Arches() {
			slices = append(slices, slice{app + "@" + string(arch), ofAppOnArch(app, arch), ds.ByApp(app).ByArch(arch)})
		}
	}
	for _, arch := range topology.Arches() {
		slices = append(slices, slice{string(arch), onArch(arch), ds.ByArch(arch)})
	}
	slices = append(slices, slice{"nothing", func(*dataset.Group) bool { return false }, &dataset.Dataset{}})

	straddled, small := 0, 0
	for _, s := range slices {
		sel := f.where(s.match)
		got := selected(f, sel)
		if len(got) != s.want.Len() {
			t.Errorf("%s: frame selects %d samples, Where %d", s.name, len(got), s.want.Len())
			continue
		}
		for i := range got {
			if got[i] != s.want.Samples[i] {
				t.Fatalf("%s: sample %d differs from Where's", s.name, i)
			}
		}
		lo, hi := dataset.RangeOf(f.bests(s.match))
		if wlo, whi := speedupRange(s.want); lo != wlo || hi != whi {
			t.Errorf("%s: best range %v-%v, Dataset %v-%v", s.name, lo, hi, wlo, whi)
		}
		sameLifts(t, s.name+" fastest", f, f.valueLift(sel, fastest), refValueLift(s.want, refFastest))
		sameLifts(t, s.name+" slowest", f, f.valueLift(sel, slowest), refValueLift(s.want, refSlowest))

		n := s.want.Len()
		if nTop := int(float64(n) * extremeFrac); nTop >= 10 {
			sp := make([]float64, n)
			for i, smp := range s.want.Samples {
				sp[i] = smp.Speedup()
			}
			sort.Float64s(sp)
			if sp[n-nTop] == sp[n-nTop-1] {
				straddled++
			}
		}
		if n > 0 && n < 10 {
			small++
		}
	}
	if straddled == 0 || small == 0 {
		t.Fatalf("fixture exercises %d slices with a tie across the cut and %d below 10 samples; want both", straddled, small)
	}
	sameLifts(t, "whole dataset slowest", f, f.valueLift(f.runs, slowest), refValueLift(ds, refSlowest))
}

// TestFrameDesignMatchesSamples checks every heatmap row's design matrix
// against the samples Where returns for its label: input scale, thread
// count, the seven variable features, the context code and the optimal
// label, cell by cell.
func TestFrameDesignMatchesSamples(t *testing.T) {
	ds := tiedInterleaved()
	f := NewFrame(ds)
	apps := ds.Apps()
	for _, g := range []Grouping{PerArchApp, PerApp, PerArch} {
		labels, sels := f.rows(g)
		d := newDesign(g, sels...)
		for k, label := range labels {
			x, y := f.design(d, sels[k], g)
			want := ds.Where(func(grp *dataset.Group) bool { return g.label(grp) == label })
			if len(x) != want.Len() {
				t.Fatalf("grouping %d row %s: %d rows, Where keeps %d", g, label, len(x), want.Len())
			}
			for i, s := range want.Samples {
				row := []float64{s.Scale, float64(s.Threads)}
				for _, v := range env.Names() {
					row = append(row, s.Config.Feature(v))
				}
				switch g {
				case PerApp:
					row = append(row, archCode(s.Arch))
				case PerArch:
					row = append(row, appCode(s.App, apps))
				}
				if len(x[i]) != len(row) {
					t.Fatalf("grouping %d row %s: %d columns, want %d", g, label, len(x[i]), len(row))
				}
				for j := range row {
					if math.Float64bits(x[i][j]) != math.Float64bits(row[j]) {
						t.Errorf("grouping %d row %s sample %d column %d: %v, want %v", g, label, i, j, x[i][j], row[j])
					}
				}
				if y[i] != s.Optimal() {
					t.Errorf("grouping %d row %s sample %d: label %v, Optimal %v", g, label, i, y[i], s.Optimal())
				}
			}
		}
	}
}
