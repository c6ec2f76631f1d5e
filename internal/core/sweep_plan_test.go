package core

import (
	"math"
	"slices"
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
	for _, u := range units {
		perArch[u.arch] += u.cfgCount
	}
	checkKeptAgainstConcatenation(t, units)
	for arch, want := range map[topology.Arch]int{topology.A64FX: 53806, topology.Skylake: 90480, topology.Milan: 100019} {
		if perArch[arch] != want {
			t.Errorf("%s: plan samples %d configurations, Table II count %d", arch, perArch[arch], want)
		}
	}
}

// TestPlanKeepsOnEveryPlanShape runs the same reference over the plan with
// the longest keys and the shortest shared prefixes: the extended space
// (numa_domains places, six thread counts).
func TestPlanKeepsOnEveryPlanShape(t *testing.T) {
	for _, sc := range []SweepConfig{{Extended: true}} {
		units, err := planUnits(sc)
		if err != nil {
			t.Fatalf("planUnits(extended %v): %v", sc.Extended, err)
		}
		checkKeptAgainstConcatenation(t, units)
	}
}

// TestPlanKeepsWithALongKey: the walk's saved states are sized from the
// table's longest key, so a caller's space whose integers render longer than
// any study key's is sampled like any other. Five units cover a full group
// of four and a lone one.
func TestPlanKeepsWithALongKey(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	app, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	def := env.Default(m)
	space := slices.DeleteFunc(env.Space(m)[:40], func(c env.Config) bool { return c == def })
	long := def
	long.Places, long.AlignAlloc = topology.PlaceNUMA, math.MaxInt
	longer := long
	longer.BlocktimeMS = math.MinInt
	space = append(space, long, def, longer, long)
	table := newConfigTable(space, def)
	if table.maxKey != len(longer.Key()) || table.maxKey < 125 { // the longest swept key is 102 bytes
		t.Fatalf("maxKey %d, longest key %d bytes", table.maxKey, len(longer.Key()))
	}
	var units []*sweepUnit
	for i, sets := 0, app.Settings(m); i < 5; i++ {
		set := sets[i%len(sets)]
		units = append(units, &sweepUnit{index: i, arch: m.Arch, m: m, app: app, set: set, frac: 0.5, configTable: table})
	}
	sampleUnits(units)
	checkKeptAgainstConcatenation(t, units)
}

// checkKeptAgainstConcatenation checks every unit's kept list against the
// concatenated-string reference, and each table it meets once: its keys,
// seed hashes, shared prefixes, longest key and default position.
func checkKeptAgainstConcatenation(t *testing.T, units []*sweepUnit) {
	t.Helper()
	checked := map[*configTable]bool{}
	for _, u := range units {
		if !checked[u.configTable] {
			checked[u.configTable] = true
			checkTableKeys(t, u.configTable)
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
	}
}

// checkTableKeys checks a table's per-key columns: keys[i] is the
// configuration's key, hashes[i] the model's seed of it, shared[i] the
// longest prefix keys[i] shares with keys[i-1], maxKey the longest key.
func checkTableKeys(t *testing.T, tab *configTable) {
	t.Helper()
	if len(tab.keys) != len(tab.space) || len(tab.hashes) != len(tab.space) || len(tab.shared) != len(tab.space) {
		t.Fatalf("%d keys, %d hashes, %d shared lengths for %d configurations", len(tab.keys), len(tab.hashes), len(tab.shared), len(tab.space))
	}
	longest := 0
	for i, cfg := range tab.space {
		key := cfg.Key()
		if tab.keys[i] != key {
			t.Fatalf("keys[%d] = %q, want %q", i, tab.keys[i], key)
		}
		if tab.hashes[i] != sim.KeyHash(key) {
			t.Fatalf("hashes[%d] = %#x, sim.KeyHash(%q) = %#x", i, tab.hashes[i], key, sim.KeyHash(key))
		}
		n := 0
		if i > 0 {
			prev := tab.keys[i-1]
			for n < len(key) && n < len(prev) && key[n] == prev[n] {
				n++
			}
		}
		if int(tab.shared[i]) != n {
			t.Fatalf("shared[%d] = %d, keys %q and %q share %d bytes", i, tab.shared[i], tab.keys[max(i-1, 0)], key, n)
		}
		longest = max(longest, len(key))
	}
	if tab.maxKey != longest {
		t.Fatalf("maxKey %d, longest key %d bytes", tab.maxKey, longest)
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

// BenchmarkPlanUnits times the default campaign's planning alone: every
// unit's kept list over its machine's table (the tables are built on the
// first call and shared from then on), the sampling the sweep's
// throughput pays per Collect before it evaluates anything.
func BenchmarkPlanUnits(b *testing.B) {
	b.ReportAllocs()
	kept := 0
	for i := 0; i < b.N; i++ {
		units, err := planUnits(SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for _, u := range units {
			kept += u.cfgCount
		}
	}
	b.ReportMetric(float64(kept)/float64(b.N), "kept/op")
}
