package core

import (
	"testing"

	"omptune/internal/env"
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

// TestEvalUnitAsksEachSeriesOnceDefaultFirst: a backend sees the default
// configuration first (a failed default must cost nothing else), then every
// kept configuration exactly once, in plan order, each with the key the plan
// already built — and a backend that answers like the model yields the
// model's samples.
func TestEvalUnitAsksEachSeriesOnceDefaultFirst(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := units[0]
	ev := &seamBackend{}
	got, skipped, err := evalUnit(u, ev)
	if err != nil || skipped != 0 {
		t.Fatalf("evalUnit: %d skipped, err %v", skipped, err)
	}
	want := []int32{int32(u.defIdx)}
	for _, i := range u.kept {
		if int(i) != u.defIdx {
			want = append(want, i)
		}
	}
	if len(ev.asked) != len(want) {
		t.Fatalf("backend asked for %d series, want one per kept configuration = %d", len(ev.asked), len(want))
	}
	for n, i := range want {
		if a := ev.asked[n]; a.cfg != u.space[i] || a.key != u.keys[i] {
			t.Fatalf("series %d asked for %s with key %q, want %s with the plan's key %q", n, a.cfg, a.key, u.space[i], u.keys[i])
		}
	}
	model, _, err := evalUnit(u, ModelEvaluator{})
	if err != nil || len(model) != len(got) {
		t.Fatalf("model evalUnit: %d samples vs %d, err %v", len(model), len(got), err)
	}
	for i := range model {
		g := *got[i]
		g.Source = model[i].Source
		if g != *model[i] {
			t.Fatalf("sample %d differs between the wrapped and the bare model:\n%+v\n%+v", i, g, *model[i])
		}
	}
}

// TestEvalUnitAllocsPerSample pins the sweep's inner loop as a count: with
// the key table and kept list planned up front and the samples carved from
// one slab, a batch allocates per unit, not per sample.
func TestEvalUnitAllocsPerSample(t *testing.T) {
	units, err := planUnits(SweepConfig{Arches: []topology.Arch{topology.Milan}, Apps: []string{"CG"}})
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
