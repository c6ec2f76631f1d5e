package core

import (
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
)

func TestCompareModelsForestDominatesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	rows, err := CompareModels(ds.ByApp("XSbench"), PerArch,
		ml.LogisticOptions{Epochs: 80}, ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 1}, 8)
	if err != nil {
		t.Fatalf("CompareModels: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// The forest accuracies are pinned exactly: a split kernel that moves
	// one node of one tree moves them.
	wantForest := map[string]float64{"a64fx": 0.9874454148471615, "milan": 0.9519701261910893, "skylake": 0.9660161954068764}
	for _, r := range rows {
		if r.ForestAcc != wantForest[r.Group] {
			t.Errorf("%s: forest accuracy %v, pinned %v", r.Group, r.ForestAcc, wantForest[r.Group])
		}
		if r.ForestAcc < r.LogisticAcc-0.02 {
			t.Errorf("%s: forest %v should not lose to logistic %v", r.Group, r.ForestAcc, r.LogisticAcc)
		}
		if r.ForestAcc < r.MajorityAcc-0.02 {
			t.Errorf("%s: forest %v below majority baseline %v", r.Group, r.ForestAcc, r.MajorityAcc)
		}
		if r.Samples == 0 {
			t.Errorf("%s: no samples", r.Group)
		}
	}
}

func TestTransferReflectsArchitectureDependence(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	opt := ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 5}
	// NQueens' winning configuration is architecture-independent
	// (turnaround everywhere): knowledge should transfer.
	nq, err := Transfer(ds, "Nqueens", opt, 8)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if len(nq) != 3 {
		t.Fatalf("Nqueens transfer rows = %d", len(nq))
	}
	transfers := 0
	for _, r := range nq {
		if r.Transfers {
			transfers++
		}
	}
	if transfers < 2 {
		t.Errorf("Nqueens should transfer across most architectures, got %d/3: %+v", transfers, nq)
	}
	// XSbench's optimum is Milan-specific: the model trained on the two
	// quiet machines should NOT beat the baseline meaningfully on Milan.
	xs, err := Transfer(ds, "XSbench", opt, 8)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	for _, r := range xs {
		if r.HeldOut == topology.Milan && r.Accuracy > r.Majority+0.15 {
			t.Errorf("XSbench held-out Milan: accuracy %v vs majority %v — should not transfer well", r.Accuracy, r.Majority)
		}
	}
	// Held-out accuracies, pinned exactly (a64fx, skylake, milan order).
	for _, c := range []struct {
		rows []TransferRow
		want []float64
	}{
		{nq, []float64{1, 0.9851063829787234, 0.9426102656693319}},
		{xs, []float64{0.6334606986899564, 0.7472454533386433, 0.446819469482359}},
	} {
		for i, r := range c.rows {
			if r.Accuracy != c.want[i] {
				t.Errorf("%s held-out %s: accuracy %v, pinned %v", r.App, r.HeldOut, r.Accuracy, c.want[i])
			}
		}
	}
}

func TestRandomSearchNeedsMoreEvalsThanGuided(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	set := sim.Setting{Label: "medium", Threads: m.Cores, Scale: 1}
	guided := Tune(nil, m, app, set, nil, 60)
	random := RandomSearch(nil, m, app, set, 60, 99)
	if guided.Speedup() < 4 {
		t.Errorf("guided speedup %v, want > 4", guided.Speedup())
	}
	if random.Speedup() > guided.Speedup()+0.3 {
		t.Errorf("random search %v should not clearly beat guided %v at equal budget",
			random.Speedup(), guided.Speedup())
	}
	if random.Evaluations != 60 {
		t.Errorf("random search used %d evaluations, want 60", random.Evaluations)
	}
	// Random search still finds turnaround eventually: about half the space
	// has an infinite effective blocktime, so 60 draws all but guarantee it.
	if random.Speedup() < 2 {
		t.Errorf("random search speedup %v, want > 2", random.Speedup())
	}
}

func TestExtendedSpaceAddsNUMAPlaces(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	base := len(ExtendedSpace(m))
	// numa_domains variants exist only for configs whose places were unset:
	// a quarter of the base space.
	if want := 9216 + 9216/4; base != want {
		t.Errorf("extended space = %d, want %d", base, want)
	}
	seenNUMA := false
	for _, c := range ExtendedSpace(m) {
		if c.Places == topology.PlaceNUMA {
			seenNUMA = true
			break
		}
	}
	if !seenNUMA {
		t.Error("extended space missing numa_domains configurations")
	}
}

func TestNestedSpaceShape(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	base := env.Space(m)
	nested := NestedSpace(m)
	variants := nestedVariants(m)
	if len(variants) == 0 {
		t.Fatal("nestedVariants is empty")
	}
	if len(nested) != len(base)+len(variants) {
		t.Errorf("NestedSpace = %d configs, want base %d + variants %d",
			len(nested), len(base), len(variants))
	}
	// The base prefix is untouched: position i of NestedSpace is position i
	// of the flat space (checkpoint resumes of flat campaigns depend on it).
	for i, c := range base {
		if nested[i] != c {
			t.Fatalf("NestedSpace[%d] differs from the flat space", i)
		}
	}
	def := env.Default(m)
	keys := map[string]bool{}
	for _, c := range variants {
		if c.NumThreadsList == "" {
			t.Fatal("nested variant without a thread list")
		}
		if _, err := openmp.ParseThreadList(c.NumThreadsList); err != nil {
			t.Fatalf("nested variant list %q: %v", c.NumThreadsList, err)
		}
		if c.Places != def.Places || c.ProcBind != def.ProcBind {
			t.Fatal("nested variants must stay at default placement")
		}
		if keys[c.Key()] {
			t.Fatalf("duplicate nested config %s", c.Key())
		}
		keys[c.Key()] = true
		if err := c.Validate(m); err != nil {
			t.Fatalf("nested variant invalid: %v", err)
		}
	}
}

func TestNestedSweepPlanAddsAppsAndSpace(t *testing.T) {
	sc := SweepConfig{
		Arches:   []topology.Arch{topology.Milan},
		Fraction: map[topology.Arch]float64{topology.Milan: 0.01},
		Nested:   true,
	}
	units, err := planUnits(sc)
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	m := topology.MustGet(topology.Milan)
	wantSpace := len(NestedSpace(m))
	appsSeen := map[string]bool{}
	for _, u := range units {
		appsSeen[u.app.Name] = true
		if len(u.space) != wantSpace {
			t.Fatalf("unit %s space = %d configs, want %d", u.key(), len(u.space), wantSpace)
		}
	}
	for _, name := range []string{"LUNest", "TreeNest"} {
		if !appsSeen[name] {
			t.Errorf("nested sweep plan omits %s", name)
		}
	}
	// Explicit app lists stay exactly as given — nested apps don't tag along.
	sc.Apps = []string{"XSbench"}
	units, err = planUnits(sc)
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	for _, u := range units {
		if u.app.Name != "XSbench" {
			t.Errorf("explicit app list grew a %s unit", u.app.Name)
		}
	}
}

func TestNestedSweepProducesNestedConfigs(t *testing.T) {
	ds, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.Milan},
		Apps:     []string{"LUNest"},
		Fraction: map[topology.Arch]float64{topology.Milan: 0.02},
		Nested:   true,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	nestedSeen := false
	for _, s := range ds.Samples {
		if s.App != "LUNest" {
			t.Fatalf("unexpected app %s", s.App)
		}
		if s.Config.NumThreadsList != "" {
			nestedSeen = true
		}
	}
	if !nestedSeen {
		t.Error("nested sweep sampled no per-level thread-list configurations")
	}
}

func TestCheckpointManifestPinsNestedAxis(t *testing.T) {
	flat := sweepManifest{Version: manifestVersion}
	nested := sweepManifest{Version: manifestVersion, Nested: true}
	if d := flat.diff(nested); !strings.Contains(d, "nested") {
		t.Errorf("manifest diff %q should flag the nested axis", d)
	}
	if d := nested.diff(nested); d != "" {
		t.Errorf("identical manifests diff: %q", d)
	}
}

func TestBestNUMAPlacementHelpsMemoryBoundOnMilan(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	app, err := apps.ByName("XSbench")
	if err != nil {
		t.Fatal(err)
	}
	set := sim.Setting{Label: "t24", Threads: 24, Scale: 1}
	cfg, speedup := BestNUMAPlacement(nil, m, app, set)
	if cfg.Places != topology.PlaceNUMA {
		t.Fatalf("best config places = %s, want numa_domains", cfg.Places)
	}
	if speedup < 1.5 {
		t.Errorf("numa_domains binding speedup %v on Milan XSbench, want > 1.5", speedup)
	}
}

func TestExtendedThreadSettings(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	sets := ExtendedThreadSettings(m)
	if len(sets) != 6 {
		t.Fatalf("settings = %d, want 6", len(sets))
	}
	want := []int{5, 10, 15, 20, 30, 40}
	for i, s := range sets {
		if s.Threads != want[i] {
			t.Errorf("setting %d threads = %d, want %d", i, s.Threads, want[i])
		}
		if s.Scale != 1 {
			t.Errorf("setting %d scale = %v, want 1", i, s.Scale)
		}
	}
}

func TestMajorityAccuracy(t *testing.T) {
	if got := majorityAccuracy([]bool{true, true, false}); got < 0.66 || got > 0.67 {
		t.Errorf("majority = %v", got)
	}
	if got := majorityAccuracy(nil); got != 0 {
		t.Errorf("empty majority = %v", got)
	}
	if got := majorityAccuracy([]bool{false, false}); got != 1 {
		t.Errorf("all-false majority = %v", got)
	}
}

func TestExtendedSweepIncludesNUMAAndMoreThreads(t *testing.T) {
	ds, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.Milan},
		Apps:     []string{"XSbench"},
		Fraction: map[topology.Arch]float64{topology.Milan: 0.05},
		Extended: true,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	settings := map[string]bool{}
	numaSeen := false
	for _, s := range ds.Samples {
		settings[s.Setting] = true
		if s.Config.Places == topology.PlaceNUMA {
			numaSeen = true
		}
	}
	if len(settings) != 6 {
		t.Errorf("extended thread settings = %d, want 6", len(settings))
	}
	if !numaSeen {
		t.Error("extended sweep contains no numa_domains configurations")
	}
}

func TestDrillDownNQueensOnA64FX(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	// A fifth of the Table II campaign: the three fits run ml's default
	// epochs, and the shapes below do not need the other four fifths.
	ds, err := RunSweep(SweepConfig{Fraction: map[topology.Arch]float64{
		topology.A64FX: 0.05, topology.Skylake: 0.05, topology.Milan: 0.05}})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	d, err := Drill(ds, "Nqueens", topology.A64FX)
	if err != nil {
		t.Fatalf("Drill: %v", err)
	}
	if d.BestHi < 4 {
		t.Errorf("drill best speedup %v, want > 4", d.BestHi)
	}
	// NQueens is architecture-independent: Fig 2's arch column is tiny.
	if d.AppLevelArchInfluence > 0.1 {
		t.Errorf("NQueens arch influence %v, want < 0.1", d.AppLevelArchInfluence)
	}
	// The wait-policy variables must rank first at the finest level.
	top := d.Variables[0].Variable
	if top != env.VarLibrary && top != env.VarBlocktime {
		t.Errorf("top variable = %s, want library or blocktime", top)
	}
	// Tuning in the drill-down's order must recover the big win within a
	// small budget.
	var order []env.VarName
	for _, rv := range d.Variables {
		order = append(order, rv.Variable)
	}
	app, _ := apps.ByName("Nqueens")
	res := Tune(nil, topology.MustGet(topology.A64FX), app,
		sim.Setting{Label: "medium", Threads: 48, Scale: 1}, order, 40)
	if res.Speedup() < 4 {
		t.Errorf("drill-guided tuning speedup %v, want > 4", res.Speedup())
	}
	if s := d.String(); !strings.Contains(s, "Nqueens") || !strings.Contains(s, "tune first") {
		t.Errorf("drill summary malformed:\n%s", s)
	}
}

func TestDrillDownMissingGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	if _, err := Drill(ds, "Sort", topology.Milan); err == nil {
		t.Error("Sort on Milan is excluded; Drill should error")
	}
}

func TestQ2ConsistencyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	rows := NewFrame(ds).Q2Consistency()
	if len(rows) != 15 {
		t.Fatalf("Q2 rows = %d, want 15", len(rows))
	}
	byApp := map[string]Q2Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// NQueens' winner is architecture-independent: KMP_LIBRARY must be in
	// every architecture's top set and hence in the intersection.
	nq := byApp["Nqueens"]
	found := false
	for _, v := range nq.Consistent {
		if v == env.VarLibrary {
			found = true
		}
	}
	if !found {
		t.Errorf("NQueens Q2 consistent set %v missing KMP_LIBRARY", nq.Consistent)
	}
	if nq.Jaccard < 0.3 {
		t.Errorf("NQueens Q2 overlap %v, want substantial", nq.Jaccard)
	}
	// Sort ran on one architecture only: trivially consistent.
	if sortRow := byApp["Sort"]; len(sortRow.PerArchTop) != 1 {
		t.Errorf("Sort should have one architecture, got %d", len(sortRow.PerArchTop))
	}
}

func TestQ3BestVariablesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	hm, err := InfluenceHeatmap(ds, PerArch, ml.LogisticOptions{Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	rows := Q3BestVariables(hm)
	if len(rows) != 3 {
		t.Fatalf("Q3 rows = %d", len(rows))
	}
	for _, r := range rows {
		// Ranking is sorted and covers all seven variables.
		if len(r.Ranked) != 7 {
			t.Errorf("%s: ranked %d variables", r.Arch, len(r.Ranked))
		}
		for i := 1; i < len(r.Ranked); i++ {
			if r.Ranked[i].Influence > r.Ranked[i-1].Influence {
				t.Errorf("%s: ranking not sorted", r.Arch)
			}
		}
		// §V-3: tuning OMP_WAIT_POLICY alone addresses a meaningful share.
		if r.WaitPolicyShare < 0.1 {
			t.Errorf("%s: wait-policy share %v, want >= 0.1", r.Arch, r.WaitPolicyShare)
		}
		// The paper's strongest Q3 claim: reduction/align are last.
		last := r.Ranked[len(r.Ranked)-1].Variable
		second := r.Ranked[len(r.Ranked)-2].Variable
		lastTwo := map[env.VarName]bool{last: true, second: true}
		if !lastTwo[env.VarForceReduction] && !lastTwo[env.VarAlignAlloc] {
			t.Errorf("%s: least influential = %v/%v, expected reduction/align among them", r.Arch, second, last)
		}
	}
}
