package core

import (
	"testing"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// TestPlanKeepsWhatTheConcatenatedHashKept holds the plan-time sampling —
// key table, prefix hash state, kept list — to the rule it replaced, spelled
// out here as the reference: hash the concatenated "app|arch|setting|key"
// string of every configuration of every unit. It walks the full default
// campaign, so the Table II sample counts fall out as a by-product.
func TestPlanKeepsWhatTheConcatenatedHashKept(t *testing.T) {
	units, err := planUnits(SweepConfig{})
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	perArch := map[topology.Arch]int{}
	checked := map[*configTable]bool{}
	for _, u := range units {
		if !checked[u.configTable] {
			checked[u.configTable] = true
			if len(u.keys) != len(u.space) {
				t.Fatalf("%s: %d keys for %d configurations", u.arch, len(u.keys), len(u.space))
			}
			for i, cfg := range u.space {
				if u.keys[i] != cfg.Key() {
					t.Fatalf("%s: keys[%d] = %q, want %q", u.arch, i, u.keys[i], cfg.Key())
				}
			}
			if u.defIdx < 0 || u.space[u.defIdx] != env.Default(u.m) {
				t.Fatalf("%s: defIdx %d does not locate the default", u.arch, u.defIdx)
			}
		}
		var want []int32
		for i, cfg := range u.space {
			h := hash64(u.app.Name + "|" + string(u.arch) + "|" + u.set.Label + "|" + u.keys[i])
			if cfg == u.defCfg || float64(h>>11)/(1<<53) < u.frac {
				want = append(want, int32(i))
			}
		}
		if len(u.kept) != len(want) || u.cfgCount != len(want) {
			t.Fatalf("%s: kept %d (cfgCount %d), reference keeps %d", u.key(), len(u.kept), u.cfgCount, len(want))
		}
		for n := range want {
			if u.kept[n] != want[n] {
				t.Fatalf("%s: kept[%d] = %d, reference %d", u.key(), n, u.kept[n], want[n])
			}
		}
		perArch[u.arch] += u.cfgCount
	}
	for arch, want := range map[topology.Arch]int{topology.A64FX: 53806, topology.Skylake: 90480, topology.Milan: 100019} {
		if perArch[arch] != want {
			t.Errorf("%s: plan samples %d configurations, Table II count %d", arch, perArch[arch], want)
		}
	}
}

// recordingEvaluator embeds the model and overrides Evaluate, the shape of
// nanEvaluator: not being the model backend itself, it must be asked for
// every repetition of every configuration.
type recordingEvaluator struct {
	ModelEvaluator
	seen *[]env.Config
}

func (e recordingEvaluator) Evaluate(m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting, rep int) float64 {
	*e.seen = append(*e.seen, cfg)
	return e.ModelEvaluator.Evaluate(m, app, cfg, set, rep)
}

// TestEvalUnitAsksBackendPerRepDefaultFirst: the model's one-call series is
// reserved for ModelEvaluator itself, any other backend sees the default
// configuration first (a failed default must cost nothing else) and then
// sim.Reps calls per kept configuration — and returns what the model path
// returns.
func TestEvalUnitAsksBackendPerRepDefaultFirst(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := units[0]
	var seen []env.Config
	got, skipped, err := evalUnit(u, recordingEvaluator{seen: &seen})
	if err != nil || skipped != 0 {
		t.Fatalf("evalUnit: %d skipped, err %v", skipped, err)
	}
	if len(seen) != u.cfgCount*sim.Reps {
		t.Fatalf("backend saw %d calls, want %d configurations x %d reps", len(seen), u.cfgCount, sim.Reps)
	}
	if seen[0] != u.defCfg {
		t.Errorf("first configuration evaluated is %s, want the default", seen[0])
	}
	want, _, err := evalUnit(u, ModelEvaluator{})
	if err != nil || len(want) != len(got) {
		t.Fatalf("model evalUnit: %d samples vs %d, err %v", len(want), len(got), err)
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("sample %d differs between the per-rep and the series path:\n%+v\n%+v", i, *got[i], *want[i])
		}
	}
}

// TestEvalUnitAllocsPerSample pins the sweep's inner loop as a count: with
// the key table and kept list planned up front and the samples carved from
// one slab, a batch allocates per unit, not per sample.
func TestEvalUnitAllocsPerSample(t *testing.T) {
	units, err := planUnits(SweepConfig{Arches: []topology.Arch{topology.Milan}, AppNames: []string{"CG"}})
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := units[0]
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		out, _, err := evalUnit(u, ModelEvaluator{})
		if err != nil {
			t.Fatal(err)
		}
		n = len(out)
	})
	if n != u.cfgCount || n < 2000 {
		t.Fatalf("unit returned %d samples, planned %d", n, u.cfgCount)
	}
	if perSample := allocs / float64(n); perSample >= 0.5 {
		t.Errorf("evalUnit: %.0f allocs for %d samples = %.3f per sample, want < 0.5", allocs, n, perSample)
	}
}
