package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// studyDraws calls f with seeded configurations for every (machine, app,
// setting) of the study: the default, then draws from the extended space.
func studyDraws(t *testing.T, perSetting int, f func(m *topology.Machine, p *sim.Profile, set sim.Setting, cfgs []env.Config)) {
	t.Helper()
	rng := rand.New(rand.NewSource(20261017))
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		space := core.ExtendedSpace(m)
		for _, app := range apps.All() {
			for _, set := range app.Settings(m) {
				cfgs := []env.Config{env.Default(m)}
				for range perSetting {
					cfgs = append(cfgs, space[rng.Intn(len(space))])
				}
				f(m, app.Profile, set, cfgs)
			}
		}
	}
}

// TestBoundMatchesFrozenModel holds the bound model to a frozen copy of the
// per-call model it replaced (bound_ref_test.go) bit for bit: a hoisted term
// is the same expression on the same operands, so no sample of the study's
// goldens may move.
func TestBoundMatchesFrozenModel(t *testing.T) {
	studyDraws(t, 48, func(m *topology.Machine, p *sim.Profile, set sim.Setting, cfgs []env.Config) {
		b := sim.Bind(m, p, set)
		for _, cfg := range cfgs {
			key := cfg.Key()
			want := sim.RefSeries(m, p, cfg, key, set)
			exact := sim.RefExact(m, p, cfg, set)
			if got := sim.EvaluateExact(m, p, cfg, set); math.Float64bits(got) != math.Float64bits(exact) {
				t.Fatalf("%s %s %s %s: EvaluateExact %v, frozen %v", m.Arch, p.Name, set.Label, key, got, exact)
			}
			if got := b.Series(cfg, sim.KeyHash(key)); got != want {
				t.Fatalf("%s %s %s %s: Bound.Series %v, frozen %v", m.Arch, p.Name, set.Label, key, got, want)
			}
			if got := sim.EvaluateSeries(m, p, cfg, key, set); got != want {
				t.Fatalf("%s %s %s %s: EvaluateSeries %v, frozen %v", m.Arch, p.Name, set.Label, key, got, want)
			}
			for rep := range want {
				if got := sim.Evaluate(m, p, cfg, set, rep); got != want[rep] {
					t.Fatalf("%s %s %s %s rep %d: Evaluate %v, frozen %v", m.Arch, p.Name, set.Label, key, rep, got, want[rep])
				}
			}
		}
	})
}

// evalTuple is one argument list of Evaluate.
type evalTuple struct {
	m   *topology.Machine
	p   *sim.Profile
	cfg env.Config
	set sim.Setting
	rep int
}

// evalTuples draws n seeded tuples spread over the machines, their apps,
// settings and study spaces.
func evalTuples(n int) []evalTuple {
	rng := rand.New(rand.NewSource(7))
	machines := topology.All()
	spaces := make([][]env.Config, len(machines))
	for i, m := range machines {
		spaces[i] = env.Space(m)
	}
	out := make([]evalTuple, n)
	for k := range out {
		m, space := machines[k%len(machines)], spaces[k%len(machines)]
		on := apps.OnArch(m.Arch)
		app := on[rng.Intn(len(on))]
		sets := app.Settings(m)
		out[k] = evalTuple{m, app.Profile, space[rng.Intn(len(space))], sets[rng.Intn(len(sets))], k % sim.Reps}
	}
	return out
}

// BenchmarkEvaluate times one-shot Evaluate calls over seeded tuples of
// different problems: each call binds its problem for the one
// configuration, so this is the cost a caller without a Bound pays.
func BenchmarkEvaluate(b *testing.B) {
	tuples := evalTuples(1024)
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		t := &tuples[i%len(tuples)]
		sum += sim.Evaluate(t.m, t.p, t.cfg, t.set, t.rep)
	}
	if sum <= 0 {
		b.Fatal("runtimes sum to", sum)
	}
}

// BenchmarkBoundSeries times Bound.Series over the study space of one
// bound problem per machine (Nqueens at its first setting), as a search
// probe that misses the cache evaluates it: key hashes are computed
// beforehand, as the configuration table holds them.
func BenchmarkBoundSeries(b *testing.B) {
	app, err := apps.ByName("Nqueens")
	if err != nil {
		b.Fatal(err)
	}
	type problem struct {
		bound  sim.Bound
		space  []env.Config
		hashes []uint64
	}
	var probs []problem
	for _, m := range topology.All() {
		space := env.Space(m)
		hashes := make([]uint64, len(space))
		for i, cfg := range space {
			hashes[i] = sim.KeyHash(cfg.Key())
		}
		probs = append(probs, problem{sim.Bind(m, app.Profile, app.Settings(m)[0]), space, hashes})
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		p := &probs[i%len(probs)]
		j := (i * 7919) % len(p.space)
		sum += p.bound.Series(p.space[j], p.hashes[j])[0]
	}
	if sum <= 0 {
		b.Fatal("runtimes sum to", sum)
	}
}
