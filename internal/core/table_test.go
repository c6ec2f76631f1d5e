package core

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
)

// TestMachineTableShared: every use on one registered machine reads one
// table, whose space a caller cannot grow in place.
func TestMachineTableShared(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	a, b := machineTable(m), machineTable(m)
	if a != b {
		t.Fatal("two uses of one machine built two tables")
	}
	if cap(a.space) != len(a.space) {
		t.Errorf("space has capacity %d beyond its %d configurations: an append would write into the shared table", cap(a.space), len(a.space))
	}
	if r := a.row(0); cap(r) != len(r) {
		t.Errorf("feature row has capacity %d beyond its %d features", cap(r), len(r))
	}
	cp := *m
	if machineTable(&cp) == a {
		t.Error("a copy of the registered machine shares its table")
	}
}

// TestMachineTableContract: on every machine the table is env.Space with its
// keys, feature rows and default position, and repeats no configuration.
func TestMachineTableContract(t *testing.T) {
	for _, m := range topology.All() {
		tab := machineTable(m)
		space := env.Space(m)
		if len(tab.space) != len(space) || len(tab.keys) != len(space) || len(tab.feats) != len(space)*len(env.Names()) {
			t.Fatalf("%s: %d configurations, %d keys, %d feature values for a %d-configuration space",
				m.Arch, len(tab.space), len(tab.keys), len(tab.feats), len(space))
		}
		for i, cfg := range space {
			if tab.space[i] != cfg || tab.keys[i] != cfg.Key() {
				t.Fatalf("%s: position %d holds %q, want %q", m.Arch, i, tab.keys[i], cfg.Key())
			}
			for k, v := range env.Names() {
				if got, want := tab.row(i)[k], cfg.Feature(v); got != want {
					t.Fatalf("%s: position %d feature %s = %v, want %v", m.Arch, i, v, got, want)
				}
			}
		}
		if def := env.Default(m); tab.defCfg != def || tab.defIdx < 0 || space[tab.defIdx] != def {
			t.Errorf("%s: defIdx %d does not locate the default", m.Arch, tab.defIdx)
		}
		tab.aliasRepeats()
		if tab.first != nil {
			t.Errorf("%s: the study space repeats a configuration", m.Arch)
		}
	}
}

// TestSpaceIndexPosition: on every machine, and on a machine outside the
// registry, the position computed from a configuration's fields is its index
// in env.Space, and a configuration outside the space — one with a value the
// sweep does not take — has none.
func TestSpaceIndexPosition(t *testing.T) {
	custom := *topology.MustGet(topology.Milan)
	custom.Arch, custom.CacheLineBytes = "custom", 256
	for _, m := range append(topology.All(), &custom) {
		x := newSpaceIndex(m)
		space := env.Space(m)
		for i, cfg := range space {
			if got := x.pos(&cfg); got != i {
				t.Fatalf("%s: %s at position %d, want %d", m.Arch, cfg, got, i)
			}
		}
		outside := func(what string, edit func(*env.Config)) {
			cfg := space[len(space)-1]
			edit(&cfg)
			if got := x.pos(&cfg); got != -1 {
				t.Errorf("%s: %s (%s) has position %d, want none", m.Arch, what, cfg, got)
			}
		}
		outside("numa places", func(c *env.Config) { c.Places = topology.PlaceNUMA })
		outside("serial library", func(c *env.Config) { c.Library = openmp.LibSerial })
		outside("blocktime 50", func(c *env.Config) { c.BlocktimeMS = 50 })
		outside("align 32", func(c *env.Config) { c.AlignAlloc = 32 })
		for _, cfg := range ExtendedSpace(m)[len(space):] {
			if got := x.pos(&cfg); got != -1 {
				t.Fatalf("%s: extended %s has position %d, want none", m.Arch, cfg, got)
			}
		}
	}
}

// TestCarriedPositionsAndSeeds: on every registered machine, for a seeded
// sample of configurations and every single-variable move from each, the
// position a descent carries is the one spaceIndex.pos scans for, and the
// seed a model probe reads there, once the machine's table is built, is
// sim.KeyHash of the configuration's key. A modified copy of a machine and
// the measured backend hold no table seeds: their probes take
// problemSeries.keyed.
func TestCarriedPositionsAndSeeds(t *testing.T) {
	app, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range topology.All() {
		space := machineTable(m).space
		s, err := newSearchState(context.Background(), "greedy",
			SearchSpec{Machine: m, App: app, Setting: app.Settings(m)[0]}, newReporter(nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.init(); err != nil {
			t.Fatal(err)
		}
		if s.prob.hashes == nil {
			t.Fatalf("%s: the model on the registered machine reads no table seeds", m.Arch)
		}
		rng := newLCG(7)
		for range 48 {
			pos := rng.intn(len(space))
			cur := space[pos]
			for _, c := range s.coordinates() {
				at := cur.Index(m, c.v)
				for k := range c.vals {
					cand := cur.SetIndex(m, c.v, k)
					got := s.moved(pos, c, at, k, &cand)
					if want := s.prob.pos(&cand); got != want {
						t.Fatalf("%s: %s moved by %s to %d carries position %d, scan finds %d", m.Arch, cur, c.v, k, got, want)
					}
					if key, seed := s.prob.keyed(&cand, got); key != "" || seed != sim.KeyHash(cand.Key()) {
						t.Fatalf("%s: %s reads key %q and seed %#x, want none and %#x", m.Arch, cand, key, seed, sim.KeyHash(cand.Key()))
					}
				}
			}
		}
	}

	m := topology.MustGet(topology.Milan)
	copied := *m
	measured, err := NewBackend("measured", measure.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Space(m)[17]
	for _, p := range []struct {
		name    string
		prob    boundProblem
		wantKey string
	}{
		{"model on a modified copy", NewEvalCache().bindProblem(ModelEvaluator{}, &copied, app, app.Settings(m)[0]), ""},
		{"measured backend", NewEvalCache().bindProblem(measured, m, app, app.Settings(m)[0]), cfg.Key()},
	} {
		if p.prob.hashes != nil {
			t.Errorf("%s: reads table seeds", p.name)
		}
		wantKey, wantSeed := p.prob.ps.keyed(&cfg)
		if key, seed := p.prob.keyed(&cfg, 17); key != p.wantKey || key != wantKey || seed != wantSeed {
			t.Errorf("%s: key %q, seed %#x; want problemSeries.keyed's %q, %#x", p.name, key, seed, wantKey, wantSeed)
		}
	}
}

// TestMachineTableConcurrentFirstUse: goroutines that make the first use of
// a machine's table at once all get the one table.
func TestMachineTableConcurrentFirstUse(t *testing.T) {
	var memo tableMemo
	m := topology.MustGet(topology.A64FX)
	got := make([]*configTable, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = memo.get(m)
		}()
	}
	close(start)
	wg.Wait()
	for g, tab := range got {
		if tab != got[0] {
			t.Fatalf("goroutine %d got a table of its own", g)
		}
	}
	if len(got[0].space) != len(env.Space(m)) {
		t.Errorf("table of %d configurations, want %d", len(got[0].space), len(env.Space(m)))
	}
}

// TestSearchCustomPool: a caller's pool — the 24 fastest configurations,
// without the default, one of them listed twice, smaller than the budget —
// is all the sampling strategies draw from. The surrogate probes each of its
// configurations once and then runs out of candidates.
func TestSearchCustomPool(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	def := env.Default(m)
	cache := NewEvalCache()
	var ranked []env.Config
	for _, cfg := range env.Space(m) {
		if cfg != def {
			ranked = append(ranked, cfg)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		a, _ := cache.Mean(ModelEvaluator{}, m, app, ranked[i], set)
		b, _ := cache.Mean(ModelEvaluator{}, m, app, ranked[j], set)
		return a < b
	})
	pool := append(ranked[:24:24], ranked[3])
	inPool := map[env.Config]bool{}
	for _, cfg := range pool {
		inPool[cfg] = true
	}
	const budget = 100
	for _, name := range []string{"random", "restart", "surrogate"} {
		searcher, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		ev := failing()
		res, err := searcher.Search(context.Background(), SearchSpec{
			Machine: m, App: app, Setting: set, Space: pool, Seed: 3,
			Evaluator: ev, Budget: SearchBudget{MaxEvals: budget},
		})
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case "random", "surrogate":
			for _, a := range ev.asked {
				if a.cfg != def && !inPool[a.cfg] {
					t.Errorf("%s probed %s, outside the pool", name, a.key)
				}
			}
		case "restart":
			starts := 0
			for _, st := range res.Trajectory {
				if st.Variable == "restart" {
					starts++
					if !inPool[st.Config] {
						t.Errorf("restart started from %s, outside the pool", st.Value)
					}
				}
			}
			if starts == 0 {
				t.Errorf("no restart start on the trajectory %+v", res.Trajectory)
			}
		}
		if name != "surrogate" {
			if res.Evaluations != budget {
				t.Errorf("%s: %d evaluations, want the budget %d", name, res.Evaluations, budget)
			}
			continue
		}
		if want := 1 + len(inPool); res.Evaluations != want || res.CacheHits != 0 || len(ev.asked) != want {
			t.Errorf("surrogate: %d evaluations, %d cache hits, %d series; want the default and each of the %d pool configurations once",
				res.Evaluations, res.CacheHits, len(ev.asked), len(inPool))
		}
	}
}

// TestTableHashesAreSeriesSeeds: a table's hashes are the seeds the model
// reads, on every registered machine's table and on an extended table, so
// Bound.Series under a table's hash is sim.Evaluate, repetition by
// repetition, on a seeded draw of each machine's configurations.
func TestTableHashesAreSeriesSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, m := range topology.All() {
		extended := newConfigTable(ExtendedSpace(m), env.Default(m))
		for _, tab := range []*configTable{machineTable(m), extended} {
			checkTableKeys(t, tab)
			for _, app := range apps.OnArch(m.Arch) {
				sets := app.Settings(m)
				set := sets[rng.Intn(len(sets))]
				b := sim.Bind(m, app.Profile, set)
				for range 8 {
					i := rng.Intn(len(tab.space))
					got := b.Series(tab.space[i], tab.hashes[i])
					for rep := range got {
						if want := sim.Evaluate(m, app.Profile, tab.space[i], set, rep); got[rep] != want {
							t.Fatalf("%s %s %s %s rep %d: Series under the table's hash %v, Evaluate %v",
								m.Arch, app.Name, set.Label, tab.keys[i], rep, got[rep], want)
						}
					}
				}
			}
		}
	}
}
