package apps

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"omptune/openmp"
)

// These tests check the numerics of each functional kernel, beyond the
// determinism and config-invariance covered in apps_test.go.

func TestCGConverges(t *testing.T) {
	// Run the CG kernel's algorithm directly at two iteration budgets by
	// exploiting that its checksum embeds the residual norm: the kernel is
	// fixed at 15 iterations, so instead verify the residual it reports is
	// small relative to the right-hand side (diagonally dominant system).
	rt := newTestRuntime(t, nil)
	sum := kernelCG(1.0)(rt)
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		t.Fatalf("CG checksum = %v", sum)
	}
	// The residual component is bounded by the checksum construction; a
	// divergent CG would blow up by orders of magnitude.
	if math.Abs(sum) > 1e6 {
		t.Errorf("CG checksum %v suggests divergence", sum)
	}
}

func TestEPAcceptanceRatioNearTheory(t *testing.T) {
	// Marsaglia polar method: acceptance probability is pi/4 ~ 0.785.
	rt := newTestRuntime(t, nil)
	pairs := scaleDim(60000, 1.0, 1.0)
	sum := kernelEP(1.0)(rt)
	// kernelEP returns sx+sy+accepted; the Gaussian sums are O(sqrt(n))
	// while accepted is O(n), so the count dominates.
	ratio := sum / float64(pairs)
	if ratio < 0.75 || ratio > 0.82 {
		t.Errorf("EP acceptance ratio %v, want ~pi/4=0.785", ratio)
	}
}

func TestMGReducesResidual(t *testing.T) {
	// The MG kernel returns the final residual norm; two V-cycles on a
	// smooth right-hand side must bring it well below the RHS norm (~0.29
	// for uniform [-0.5, 0.5) entries).
	rt := newTestRuntime(t, nil)
	res := kernelMG(1.0)(rt)
	if res <= 0 {
		t.Fatalf("MG residual %v", res)
	}
	if res > 0.15 {
		t.Errorf("MG residual %v after 2 V-cycles, want < 0.15", res)
	}
}

func TestLUStaysBounded(t *testing.T) {
	// SSOR with omega=1.2 on a diagonally dominant operator converges to a
	// bounded fixed point; the RMS of the solution must be O(1).
	rt := newTestRuntime(t, nil)
	rms := kernelLU(1.0)(rt)
	if rms <= 0 || rms > 10 {
		t.Errorf("LU RMS %v out of bounds", rms)
	}
}

func TestAlignmentScoreProperties(t *testing.T) {
	// Needleman-Wunsch with a symmetric substitution matrix is symmetric:
	// the total over all unordered pairs must not depend on task order, and
	// aligning identical sequences yields match*len.
	rt := newTestRuntime(t, nil)
	run := kernelAlignment(1.0)
	a, b := run(rt), run(rt)
	if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
		t.Errorf("alignment total not stable: %v vs %v", a, b)
	}
}

func TestXSBenchLookupsPositive(t *testing.T) {
	// Every macroscopic cross section is a sum of positive entries.
	rt := newTestRuntime(t, nil)
	total := kernelXSBench(1.0)(rt)
	if total <= 0 {
		t.Errorf("XSBench total XS %v, want > 0", total)
	}
	const lookups = 20000
	perLookup := total / lookups
	if perLookup < 0.1 || perLookup > 20 {
		t.Errorf("XSBench per-lookup XS %v implausible", perLookup)
	}
}

func TestRSBenchMagnitudesPositive(t *testing.T) {
	rt := newTestRuntime(t, nil)
	total := kernelRSBench(1.0)(rt)
	if total <= 0 || math.IsNaN(total) {
		t.Errorf("RSBench total %v", total)
	}
}

func TestSU3UnitaryLikeScale(t *testing.T) {
	// Products of matrices with entries in [-0.5, 0.5) stay O(1); the
	// checksum over ~36k values must not explode.
	rt := newTestRuntime(t, nil)
	sum := kernelSU3(1.0)(rt)
	if math.Abs(sum) > 1e5 || math.IsNaN(sum) {
		t.Errorf("SU3 checksum %v out of scale", sum)
	}
}

func TestLULESHEnergyConservationish(t *testing.T) {
	// Energies are clamped positive and the courant dt stays in its bounds;
	// the checksum (total energy + trace) must be positive and finite.
	rt := newTestRuntime(t, nil)
	sum := kernelLULESH(1.0)(rt)
	if sum <= 0 || math.IsInf(sum, 0) || math.IsNaN(sum) {
		t.Errorf("LULESH checksum %v", sum)
	}
}

func TestHealthTreatmentsScaleWithLevels(t *testing.T) {
	rt := newTestRuntime(t, nil)
	small := kernelHealth(1.0)(rt) // 4 levels
	large := kernelHealth(2.0)(rt) // 5 levels: 3x the villages
	if large <= small {
		t.Errorf("health treated %v at scale 2 vs %v at scale 1, want growth", large, small)
	}
}

func TestBTSolveIsStable(t *testing.T) {
	// The Thomas solves use a diagonally dominant operator (|b| > |a|+|c|);
	// repeated sweeps must keep the field bounded.
	rt := newTestRuntime(t, nil)
	sum := kernelBT(1.0)(rt)
	if math.Abs(sum) > 1e4 || math.IsNaN(sum) {
		t.Errorf("BT checksum %v out of bounds", sum)
	}
}

func TestKernelsScaleGrowsRuntimeMonotonically(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling check in -short mode")
	}
	// Larger inputs must do more work; spot-check with operation counters
	// (chunks + tasks) rather than wall time, which is noisy on 1 CPU. Only
	// task apps are used: their task counts grow with the input, whereas
	// loop apps grow per-iteration work at a fixed chunk count.
	for _, name := range []string{"Sort", "Alignment"} {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		count := func(scale float64) uint64 {
			o := openmp.DefaultOptions()
			o.NumThreads = 2
			o.BlocktimeMS = 0
			rt, err := openmp.New(o)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			app.Kernel(rt, scale)
			st := rt.Stats()
			return st.Chunks + st.TasksRun
		}
		small, large := count(0.5), count(2.0)
		if large <= small {
			t.Errorf("%s: work at scale 2 (%d ops) not above scale 0.5 (%d ops)", name, large, small)
		}
	}
}

func TestBlockThomasSolvesTheAssembledSystem(t *testing.T) {
	// Assemble the full block-tridiagonal matrix densely for a short line,
	// run the block Thomas solver, and verify A*x = rhs directly.
	const m = 6
	const dim = m * blockDim
	rhs := make([]float64, dim)
	line := make([]bvec, m)
	rng := newLCG(101)
	for i := 0; i < m; i++ {
		for c := 0; c < blockDim; c++ {
			v := rng.float64() - 0.5
			line[i][c] = v
			rhs[i*blockDim+c] = v
		}
	}
	// Dense assembly of the same coefficients the solver uses.
	dense := make([]float64, dim*dim)
	set := func(bi, bj int, mat *bmat) {
		for r := 0; r < blockDim; r++ {
			for c := 0; c < blockDim; c++ {
				dense[(bi*blockDim+r)*dim+bj*blockDim+c] = mat[r*blockDim+c]
			}
		}
	}
	for i := 0; i < m; i++ {
		a, b, c := btCoefficients(i)
		set(i, i, &b)
		if i > 0 {
			set(i, i-1, &a)
		}
		if i < m-1 {
			set(i, i+1, &c)
		}
	}
	solveBlockLine(line, btCoefficientTable(m), make([]bmat, m))
	// Check residual of A*x against the original rhs.
	for r := 0; r < dim; r++ {
		s := 0.0
		for c := 0; c < dim; c++ {
			s += dense[r*dim+c] * line[c/blockDim][c%blockDim]
		}
		if math.Abs(s-rhs[r]) > 1e-9 {
			t.Fatalf("row %d: A*x = %v, rhs = %v", r, s, rhs[r])
		}
	}
}

func TestBlockLUSolve(t *testing.T) {
	// A * x = b for a known system: verify against direct substitution.
	var a bmat
	rng := newLCG(77)
	for i := range a {
		a[i] = rng.float64() - 0.5
	}
	for i := 0; i < blockDim; i++ {
		a[i*blockDim+i] += 3 // dominance
	}
	var x bvec
	for i := range x {
		x[i] = float64(i + 1)
	}
	var b bvec
	matVec(&b, &a, &x)
	ac := a
	ac.luSolve(&b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-10 {
			t.Fatalf("luSolve[%d] = %v, want %v", i, b[i], x[i])
		}
	}
}

// frozenChecksums are every kernel's one-thread checksums at scales 1 and
// 2 under openmp.DefaultOptions, recorded before the kernels cached their
// inputs per scale.
var frozenChecksums = map[string][2]float64{
	"BT":        {-0.17943274834889075, -0.16579225819319374},
	"CG":        {3.8462458556037569, 8.9045660200753538},
	"EP":        {47152.520588519947, 94272.003283853453},
	"FT":        {-50.360360890061287, -338.42344837824135},
	"LU":        {0.53665520316586035, 0.53909536378566758},
	"MG":        {0.032685349719523867, 0.037002493602518963},
	"Alignment": {-5438, -11497},
	"Health":    {2719, 8155},
	"Nqueens":   {92, 352},
	"Sort":      {1.5012289072081235, 1.5011601834612889},
	"Strassen":  {46.952253117966997, 51.597656886956273},
	"LULESH":    {6163.4959468688194, 12023.460041992435},
	"RSBench":   {440970.40900251514, 439748.28213912074},
	"SU3Bench":  {-48.340652467672605, -34.372990966403414},
	"XSbench":   {126940.74691321673, 127282.88381286662},
	"LUNest":    {53.020178159850289, 46.64976525980731},
	"TreeNest":  {2018573, 8162595},
}

// checkFrozen reports a checksum of app at scale (1 or 2) that is not the
// frozen one. The tolerance only absorbs a GOARCH that fuses multiply-adds;
// a kernel handed another scale's inputs misses by far more.
func checkFrozen(t *testing.T, app string, scale, got float64) {
	t.Helper()
	want := frozenChecksums[app][int(scale)-1]
	if got != want && math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Errorf("%s at scale %v: checksum %.17g, frozen %.17g", app, scale, got, want)
	}
}

func everyKernel() []*App { return append(All(), runtimeOnly...) }

func TestKernelChecksumsFrozen(t *testing.T) {
	rt := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = 1 })
	// Scale 1 again after 2: a cache that hands out the wrong scale's
	// inputs, or whose inputs a call wrote to, fails the second pass.
	for _, scale := range []float64{1, 2, 1} {
		for _, a := range everyKernel() {
			checkFrozen(t, a.Name, scale, a.Kernel(rt, scale))
		}
	}
	for _, a := range everyKernel() {
		for _, scale := range []float64{2, 1} {
			checkFrozen(t, a.Name, scale, a.Reference(scale))
		}
	}
}

// TestKernelsShareInputsAcrossGoroutines runs every kernel from two
// goroutines at once, each with a one-thread and a two-thread runtime of its
// own, both in the same order over three rounds at alternating scales. In
// each round the two run at different widths, and each switches width from
// round to round, so each kernel's inputs at a scale are read (and, run
// alone, built) by both at about the same time, and a call takes a
// workspace last used at another width, by either goroutine. Under -race a
// kernel that writes to a shared input or to a workspace in use, or an
// unguarded cache or free list, shows.
func TestKernelsShareInputsAcrossGoroutines(t *testing.T) {
	type result struct {
		app          string
		scale, value float64
	}
	results := make([][]result, 2)
	var wg sync.WaitGroup
	for g := range results {
		var rts [2]*openmp.Runtime
		for w := range rts {
			rts[w] = newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = w + 1 })
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, a := range everyKernel() {
					scale := float64(1 + (i+round)%2)
					rt := rts[(round+g)%2]
					results[g] = append(results[g], result{a.Name, scale, a.Kernel(rt, scale)})
				}
			}
		}()
	}
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			checkFrozen(t, r.app, r.scale, r.value)
		}
	}
}

// changed returns the scales at which in holds a value that building it
// again does not give: a kernel wrote to an input it shares.
func (in *input[T]) changed() (scales []float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for scale, e := range in.byScale {
		if !reflect.DeepEqual(e.v, in.build(scale)) {
			scales = append(scales, scale)
		}
	}
	return scales
}

// TestKernelsLeaveInputsUnchanged runs each kernel that memoizes its inputs
// on two threads, then builds each input again and compares: a kernel that
// writes to what it shares (a Sort that sorts its input in place) fails
// here, without -race.
func TestKernelsLeaveInputsUnchanged(t *testing.T) {
	inputs := map[string][]interface{ changed() []float64 }{
		"BT": {&btInputs, &btCoef}, "CG": {&cgInputs}, "FT": {&ftInputs}, "LU": {&luInputs}, "MG": {&mgInputs},
		"Alignment": {&alignmentInputs}, "Health": {&healthInputs}, "Sort": {&sortInputs}, "Strassen": {&strassenInputs},
		"LUNest": {&luNestInputs}, "XSbench": {&xsInputs}, "RSBench": {&rsInputs}, "SU3Bench": {&su3Inputs}, "LULESH": {&luleshInputs},
	}
	rt := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = 2 })
	for _, a := range everyKernel() {
		memos, ok := inputs[a.Name]
		if !ok {
			continue
		}
		delete(inputs, a.Name)
		a.Kernel(rt, 1)
		for _, m := range memos {
			if scales := m.changed(); len(scales) > 0 {
				t.Errorf("%s: a run on two threads changed its shared input at scales %v", a.Name, scales)
			}
		}
	}
	for name := range inputs {
		t.Errorf("no kernel %s", name)
	}
}

// TestKernelsAllocateNothing pins every study kernel's allocations per call
// to zero once a call has built its inputs and workspace at the scale and
// team width: what a call writes, the task closures and loop bodies it hands
// the runtime included, is in its workspace.
//
// One exception is the runtime's, not the kernel's: a task descriptor comes
// from its spawner's free list, which grows by a slab of 64 whenever more of
// the thread's descriptors are in flight at once than ever before on the
// runtime. On one thread that peak is the same every call; on two, which
// thread wins a Single and how many tasks a steal moves follow the
// interleaving, so a later call can still allocate a slab. A two-thread task
// kernel is held to one allocation per 64 of its tasks, far below the one a
// task that a closure built per spawn costs.
func TestKernelsAllocateNothing(t *testing.T) {
	for _, threads := range []int{1, 2} {
		rt := newTestRuntime(t, func(o *openmp.Options) { o.NumThreads = threads })
		for _, a := range All() {
			for _, scale := range []float64{1, 2} {
				before := rt.Stats()
				a.Kernel(rt, scale)
				ceiling := 0.0
				if threads > 1 {
					ceiling = float64(rt.Stats().Sub(before).TasksRun) / 64
				}
				if got := testing.AllocsPerRun(5, func() { a.Kernel(rt, scale) }); got > ceiling {
					t.Errorf("%s at scale %g on %d threads: %.1f allocs a call, want at most %g", a.Name, scale, threads, got, ceiling)
				}
			}
		}
	}
}

// benchScale is each app's input scale in the benchmark's measured_kernels
// workload (benchmark/pinned.go kernelScale).
var benchScale = map[string]float64{
	"BT": 1, "CG": 4, "EP": 3, "FT": 2, "LU": 4, "MG": 2,
	"Alignment": 0.8, "Health": 2, "Nqueens": 2, "Sort": 0.8, "Strassen": 2,
	"LULESH": 2, "RSBench": 1, "SU3Bench": 2, "XSbench": 3,
}

// BenchmarkKernel times one call of each study kernel at its benchmark
// scale on min(2, NumCPU) threads under the default options, inputs and
// workspace built, with its allocations.
func BenchmarkKernel(b *testing.B) {
	o := openmp.DefaultOptions()
	o.NumThreads = min(2, runtime.NumCPU())
	rt := openmp.MustNew(o) // the default options are valid
	defer rt.Close()
	for _, a := range All() {
		scale := benchScale[a.Name]
		b.Run(a.Name, func(b *testing.B) {
			a.Kernel(rt, scale)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				a.Kernel(rt, scale)
			}
		})
	}
}
