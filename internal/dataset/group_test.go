package dataset

import (
	"fmt"
	"testing"

	"omptune/internal/env"
	"omptune/internal/topology"
)

// interleaved builds a dataset whose groups are not contiguous: a64fx/CG/small
// is split three ways, milan/CG/small two ways, the others are single runs.
// Every sample has a distinct speedup so tests can tell them apart.
func interleaved() *Dataset {
	layout := []struct {
		arch         topology.Arch
		app, setting string
		n            int
	}{
		{topology.A64FX, "CG", "small", 2},
		{topology.Milan, "CG", "small", 1},
		{topology.A64FX, "MG", "small", 3},
		{topology.A64FX, "CG", "small", 1},
		{topology.Skylake, "MG", "large", 2},
		{topology.Milan, "CG", "small", 2},
		{topology.A64FX, "CG", "large", 1},
		{topology.A64FX, "CG", "small", 3},
	}
	ds := &Dataset{}
	for _, run := range layout {
		for i := 0; i < run.n; i++ {
			ds.Samples = append(ds.Samples, mkSample(run.arch, run.app, run.setting, 1+float64(len(ds.Samples))/100))
		}
	}
	return ds
}

// referenceFilter is the per-sample filter Where replaced: the order oracle.
func referenceFilter(ds *Dataset, keep func(*Sample) bool) []*Sample {
	var out []*Sample
	for _, s := range ds.Samples {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

func sameSamples(a, b []*Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWhereKeepsDatasetOrder(t *testing.T) {
	ds := interleaved()
	held := topology.A64FX
	cases := []struct {
		name   string
		group  func(*Group) bool
		sample func(*Sample) bool
	}{
		{"single group split three ways",
			func(g *Group) bool { return g.Arch == topology.A64FX && g.App == "CG" && g.Setting == "small" },
			func(s *Sample) bool { return s.Arch == topology.A64FX && s.App == "CG" && s.Setting == "small" }},
		{"per arch",
			func(g *Group) bool { return g.Arch == topology.A64FX },
			func(s *Sample) bool { return s.Arch == topology.A64FX }},
		{"per app",
			func(g *Group) bool { return g.App == "CG" },
			func(s *Sample) bool { return s.App == "CG" }},
		{"negated arch",
			func(g *Group) bool { return g.Arch != held },
			func(s *Sample) bool { return s.Arch != held }},
		{"nothing", func(*Group) bool { return false }, func(*Sample) bool { return false }},
		{"everything", func(*Group) bool { return true }, func(*Sample) bool { return true }},
	}
	for _, c := range cases {
		calls := map[string]int{}
		got := ds.Where(func(g *Group) bool {
			calls[g.Samples[0].SettingKey()]++
			return c.group(g)
		})
		if want := referenceFilter(ds, c.sample); !sameSamples(got.Samples, want) {
			t.Errorf("%s: Where kept %d samples in an order the per-sample filter (%d) does not", c.name, got.Len(), len(want))
		}
		for key, n := range calls {
			if n != 1 {
				t.Errorf("%s: predicate ran %d times for %s, want once per group", c.name, n, key)
			}
		}
		if len(calls) != 5 {
			t.Errorf("%s: predicate saw %d groups, want 5", c.name, len(calls))
		}
	}
	if got, want := ds.ByArch(topology.Milan).Samples, referenceFilter(ds, func(s *Sample) bool { return s.Arch == topology.Milan }); !sameSamples(got, want) {
		t.Error("ByArch departs from the per-sample filter")
	}
	if got, want := ds.ByApp("MG").Samples, referenceFilter(ds, func(s *Sample) bool { return s.App == "MG" }); !sameSamples(got, want) {
		t.Error("ByApp departs from the per-sample filter")
	}
}

func TestGroupsFirstSeenOrderEverySampleOnce(t *testing.T) {
	ds := interleaved()
	before := append([]*Sample(nil), ds.Samples...)
	groups := ds.Groups()
	wantOrder := []string{"a64fx/CG/small", "milan/CG/small", "a64fx/MG/small", "skylake/MG/large", "a64fx/CG/large"}
	if len(groups) != len(wantOrder) {
		t.Fatalf("Groups = %d groups, want %d", len(groups), len(wantOrder))
	}
	seen := map[*Sample]bool{}
	for i, g := range groups {
		if got := fmt.Sprintf("%s/%s/%s", g.Arch, g.App, g.Setting); got != wantOrder[i] {
			t.Errorf("group %d is %s, want %s (first-seen order)", i, got, wantOrder[i])
		}
		want := referenceFilter(ds, func(s *Sample) bool {
			return s.Arch == g.Arch && s.App == g.App && s.Setting == g.Setting
		})
		if !sameSamples(g.Samples, want) {
			t.Errorf("group %s: samples not in dataset order", wantOrder[i])
		}
		for _, s := range g.Samples {
			if seen[s] {
				t.Errorf("group %s: sample handed out twice", wantOrder[i])
			}
			seen[s] = true
		}
	}
	if len(seen) != ds.Len() {
		t.Errorf("groups hold %d samples, dataset %d", len(seen), ds.Len())
	}
	// Gathering a split group must not write through the dataset's backing
	// array, which single-run groups share.
	if !sameSamples(ds.Samples, before) {
		t.Error("Groups reordered the dataset")
	}
	if got := (&Dataset{}).Groups(); len(got) != 0 {
		t.Errorf("empty dataset has %d groups", len(got))
	}
}

// sweepShaped builds a dataset laid out as a sweep writes it: every group one
// contiguous run.
func sweepShaped(groups, perGroup int) *Dataset {
	ds := &Dataset{}
	cfg := env.Default(topology.MustGet(topology.A64FX))
	for g := 0; g < groups; g++ {
		app, setting := fmt.Sprintf("app%d", g/3), fmt.Sprintf("s%d", g%3)
		for i := 0; i < perGroup; i++ {
			ds.Samples = append(ds.Samples, &Sample{Arch: topology.A64FX, App: app, Setting: setting, Config: cfg})
		}
	}
	return ds
}

// TestGroupsAllocs pins the cost model of Groups: allocations grow with the
// group count (the groups slice and the index map), never with the sample
// count — no per-sample key, no per-group sample copy on sweep-ordered data.
// The sizes bracket the facade test dataset (36 groups, 24,497 samples).
func TestGroupsAllocs(t *testing.T) {
	const groups = 36
	var perRun [2]float64
	for i, perGroup := range []int{7, 700} {
		ds := sweepShaped(groups, perGroup)
		if got := len(ds.Groups()); got != groups {
			t.Fatalf("Groups = %d, want %d", got, groups)
		}
		perRun[i] = testing.AllocsPerRun(10, func() { ds.Groups() })
		if perRun[i] > 2*groups {
			t.Errorf("Groups on %d samples: %.0f allocs, want <= %d (2 per group)", ds.Len(), perRun[i], 2*groups)
		}
	}
	if perRun[0] != perRun[1] {
		t.Errorf("Groups allocations depend on the sample count: %.0f at 7 per group, %.0f at 700", perRun[0], perRun[1])
	}
}
