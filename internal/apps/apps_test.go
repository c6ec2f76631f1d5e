package apps

import (
	"math"
	"slices"
	"testing"

	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
)

func defaultCfg(m *topology.Machine) env.Config { return env.Default(m) }

func newTestRuntime(t *testing.T, mutate func(*openmp.Options)) *openmp.Runtime {
	t.Helper()
	o := openmp.DefaultOptions()
	o.NumThreads = 3
	o.BlocktimeMS = 0
	if mutate != nil {
		mutate(&o)
	}
	rt, err := openmp.New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d apps, want 15", len(all))
	}
	wantNames := map[string]Suite{
		"BT": NPB, "CG": NPB, "EP": NPB, "FT": NPB, "LU": NPB, "MG": NPB,
		"Alignment": BOTS, "Health": BOTS, "Nqueens": BOTS, "Sort": BOTS, "Strassen": BOTS,
		"RSBench": Proxy, "XSbench": Proxy, "SU3Bench": Proxy, "LULESH": Proxy,
	}
	for _, a := range all {
		suite, ok := wantNames[a.Name]
		if !ok {
			t.Errorf("unexpected app %q", a.Name)
			continue
		}
		if a.Suite != suite {
			t.Errorf("%s: suite = %s, want %s", a.Name, a.Suite, suite)
		}
		if a.Profile == nil || a.Kernel == nil {
			t.Errorf("%s: missing profile or kernel", a.Name)
		}
		if a.Profile.Name != a.Name {
			t.Errorf("%s: profile name %q mismatched", a.Name, a.Profile.Name)
		}
	}
}

func TestDatasetAppCountsMatchTableII(t *testing.T) {
	counts := map[topology.Arch]int{topology.A64FX: 15, topology.Milan: 13, topology.Skylake: 12}
	for arch, want := range counts {
		if got := len(OnArch(arch)); got != want {
			t.Errorf("%s: %d apps, want %d (Table II)", arch, got, want)
		}
	}
	// Sort and Strassen specifically are the x86 exclusions (Fig 2 note).
	for _, name := range []string{"Sort", "Strassen"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !a.RunsOn(topology.A64FX) || a.RunsOn(topology.Milan) || a.RunsOn(topology.Skylake) {
			t.Errorf("%s: exclusion pattern wrong", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("DOOM"); err == nil {
		t.Error("ByName(DOOM): want error")
	}
}

func TestSettingsStyles(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	cg, _ := ByName("CG")
	xs, _ := ByName("XSbench")
	cgSet := cg.Settings(m)
	if len(cgSet) != 3 || cgSet[0].Threads != m.Cores || cgSet[0].Scale == cgSet[2].Scale {
		t.Errorf("CG settings should vary input at fixed threads: %+v", cgSet)
	}
	xsSet := xs.Settings(m)
	if len(xsSet) != 3 || xsSet[0].Threads == xsSet[2].Threads || xsSet[0].Scale != 1.0 {
		t.Errorf("XSbench settings should vary threads at fixed input: %+v", xsSet)
	}
}

// kernelResults runs every kernel once on a small runtime and returns the
// checksums, verifying nothing panics or hangs.
func TestAllKernelsRunAndAreDeterministic(t *testing.T) {
	rt := newTestRuntime(t, nil)
	first := make(map[string]float64)
	for _, a := range All() {
		first[a.Name] = a.Kernel(rt, 1.0)
	}
	for _, a := range All() {
		again := a.Kernel(rt, 1.0)
		diff := math.Abs(again - first[a.Name])
		tol := 1e-9 * (1 + math.Abs(first[a.Name]))
		if diff > tol {
			t.Errorf("%s: non-deterministic checksum: %v vs %v", a.Name, first[a.Name], again)
		}
	}
}

func TestKernelsInvariantAcrossConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("config-invariance sweep in -short mode")
	}
	// The numeric result must not depend on schedule, reduction method,
	// library mode or thread count (modulo float reassociation).
	variants := []func(*openmp.Options){
		func(o *openmp.Options) { o.Schedule = openmp.ScheduleDynamic },
		func(o *openmp.Options) { o.Schedule = openmp.ScheduleGuided; o.NumThreads = 2 },
		func(o *openmp.Options) { o.Reduction = openmp.ReductionAtomic },
		func(o *openmp.Options) { o.Reduction = openmp.ReductionCritical; o.NumThreads = 4 },
		func(o *openmp.Options) { o.Library = openmp.LibTurnaround },
		func(o *openmp.Options) { o.NumThreads = 1 },
	}
	base := newTestRuntime(t, nil)
	for _, a := range All() {
		want := a.Kernel(base, 1.0)
		for vi, mutate := range variants {
			rt := newTestRuntime(t, mutate)
			got := a.Kernel(rt, 1.0)
			relTol := 1e-6 * (1 + math.Abs(want))
			if math.Abs(got-want) > relTol {
				t.Errorf("%s variant %d: checksum %v, want %v", a.Name, vi, got, want)
			}
			rt.Close()
		}
	}
}

func TestNQueensKnownCount(t *testing.T) {
	rt := newTestRuntime(t, nil)
	// 8-queens has exactly 92 solutions.
	if got := kernelNQueens(1.0)(rt); got != 92 {
		t.Errorf("8-queens solutions = %v, want 92", got)
	}
}

// TestSortProducesSortedOutput checks Sort key by key: on two consecutive
// runs of one workspace, on one thread and then two, the keys a run leaves
// are its input's, sorted — none lost, duplicated or read stale from the run
// before.
func TestSortProducesSortedOutput(t *testing.T) {
	const scale = 1.0
	want := slices.Clone(sortInputs.get(scale))
	slices.Sort(want)
	run, data := sortWorkspace(scale)
	for _, threads := range []int{1, 2} {
		rt := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = threads })
		for call := 0; call < 2; call++ {
			// Misplacements are encoded as bad*1e6; a sorted result keeps
			// the checksum far below that.
			if got := run(rt); got >= 1e6 {
				t.Errorf("%d threads, call %d: sort checksum %v implies misplaced elements", threads, call, got)
			}
			if !slices.Equal(data, want) {
				i := 0
				for data[i] == want[i] {
					i++
				}
				t.Errorf("%d threads, call %d: key %d is %v, want %v", threads, call, i, data[i], want[i])
			}
		}
	}
}

func TestFTRoundTripAccuracy(t *testing.T) {
	rt := newTestRuntime(t, nil)
	// The checksum embeds the max inverse-transform error; re-deriving it
	// here keeps the bound tight: forward+inverse must reproduce the input.
	got := kernelFT(1.0)(rt)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("FT checksum = %v", got)
	}
	rt2 := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = 1 })
	serial := kernelFT(1.0)(rt2)
	if math.Abs(got-serial) > 1e-6*(1+math.Abs(serial)) {
		t.Errorf("FT parallel %v != serial %v", got, serial)
	}
}

func TestStrassenMatchesNaive(t *testing.T) {
	// Strassen at the cutoff boundary must agree with the naive product;
	// the kernel's checksum is over the product matrix, so comparing one
	// thread vs many exercises the task tree deeply.
	a := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = 1 })
	b := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = 4 })
	sa := kernelStrassen(1.0)(a)
	sb := kernelStrassen(1.0)(b)
	if math.Abs(sa-sb) > 1e-7*(1+math.Abs(sa)) {
		t.Errorf("strassen 1-thread %v != 4-thread %v", sa, sb)
	}
}

func TestProfilesAreModelReady(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	for _, a := range All() {
		p := a.Profile
		if p.CPUWorkGOps <= 0 || p.WorkGrowth <= 0 {
			t.Errorf("%s: non-positive work parameters", a.Name)
		}
		if p.Class == sim.TaskParallel && (p.Tasks <= 0 || p.TaskIdleFactor <= 0) {
			t.Errorf("%s: task app without task parameters", a.Name)
		}
		if p.Class == sim.LoopParallel && p.ItersPerRegion <= 0 {
			t.Errorf("%s: loop app without iteration count", a.Name)
		}
		for _, set := range a.Settings(m) {
			for rep := 0; rep < sim.Reps; rep++ {
				rt := sim.Evaluate(m, p, defaultCfg(m), set, rep)
				if rt <= 0 || math.IsNaN(rt) || rt > 3600 {
					t.Errorf("%s %s rep %d: simulated runtime %v out of range", a.Name, set.Label, rep, rt)
				}
			}
		}
	}
}
