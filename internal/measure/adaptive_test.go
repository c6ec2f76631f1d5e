package measure

import (
	"math"
	"testing"
	"time"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/stats"
	"omptune/internal/topology"
	"omptune/openmp"
)

// fakeClock scripts the monotonic clock: every timeNow() call advances by
// the next step (cycling), so a rep's "runtime" is exactly the step consumed
// by its end timestamp. runSeries calls timeNow once before the loop, then
// twice per repetition (start, end) plus once more per iteration when a time
// budget is set — steps are consumed in that order, so tests pick cycle
// lengths coprime with the calls-per-rep to get varying runtimes (an
// even-length cycle with two calls per rep would pin every end call to the
// same step).
type fakeClock struct {
	now   time.Time
	steps []time.Duration
	i     int
}

func (c *fakeClock) next() time.Time {
	if len(c.steps) > 0 {
		c.now = c.now.Add(c.steps[c.i%len(c.steps)])
		c.i++
	}
	return c.now
}

func withFakeClock(t *testing.T, steps []time.Duration) {
	t.Helper()
	c := &fakeClock{now: time.Unix(0, 0), steps: steps}
	orig := timeNow
	timeNow = c.next
	t.Cleanup(func() { timeNow = orig })
}

func noopKernel(rt *openmp.Runtime, scale float64) float64 { return 1 }

func testRuntime(t *testing.T) *openmp.Runtime {
	t.Helper()
	rt := openmp.MustNew(openmp.Options{
		NumThreads: 2, Schedule: openmp.ScheduleStatic,
		Library: openmp.LibThroughput, BlocktimeMS: 0, AlignAlloc: 64,
	})
	t.Cleanup(rt.Close)
	return rt
}

// TestAdaptiveQuietStopsAtMinReps: a constant-runtime (quiet) series meets
// any positive CoV target as soon as the variance exists, so it stops at
// MinReps with reason "target".
func TestAdaptiveQuietStopsAtMinReps(t *testing.T) {
	// Every rep takes exactly 10ms: CoV = 0 at n = 2.
	withFakeClock(t, []time.Duration{10 * time.Millisecond})
	rt := testRuntime(t)
	s := RunAdaptive(rt, noopKernel, 0.1, 1, Adaptive{TargetCoV: 0.05, MinReps: 2, MaxReps: 16})
	if s.RepsRun != 2 || len(s.Runtimes) != 2 {
		t.Fatalf("quiet series ran %d reps, want MinReps=2 (runtimes %v)", s.RepsRun, s.Runtimes)
	}
	if s.StopReason != StopTarget {
		t.Fatalf("StopReason = %q, want %q", s.StopReason, StopTarget)
	}
	if s.CoV != 0 {
		t.Fatalf("constant series CoV = %v, want 0", s.CoV)
	}
	if s.Warmup != 1 {
		t.Fatalf("Warmup = %d, want 1", s.Warmup)
	}
	for i, r := range s.Runtimes {
		if math.Abs(r-0.010) > 1e-12 {
			t.Fatalf("rep %d runtime %v, want 0.010", i, r)
		}
	}
}

// TestAdaptiveNoisyRunsToMaxReps: a series cycling 30/20/10ms runtimes has
// CoV ~0.4 forever — far above a 5% target — so it must run to MaxReps.
func TestAdaptiveNoisyRunsToMaxReps(t *testing.T) {
	withFakeClock(t, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond})
	rt := testRuntime(t)
	s := RunAdaptive(rt, noopKernel, 0.1, 0, Adaptive{TargetCoV: 0.05, MinReps: 2, MaxReps: 6})
	if s.RepsRun != 6 {
		t.Fatalf("noisy series ran %d reps, want MaxReps=6", s.RepsRun)
	}
	if s.StopReason != StopMaxReps {
		t.Fatalf("StopReason = %q, want %q", s.StopReason, StopMaxReps)
	}
	if s.CoV < 0.2 {
		t.Fatalf("noisy series CoV = %v, want >= 0.2", s.CoV)
	}
	if s.CIRel <= 0 || s.CIHalfWidth <= 0 {
		t.Fatalf("noise estimates missing: CIRel %v CIHalfWidth %v", s.CIRel, s.CIHalfWidth)
	}
}

// TestAdaptiveBudgetStops: with a time budget smaller than the reps needed
// to converge, the series stops with reason "budget" after the budget is
// spent, at or past MinReps but well before MaxReps.
func TestAdaptiveBudgetStops(t *testing.T) {
	// Alternating noise keeps the CoV target unreachable; each iteration
	// consumes three scripted steps (~45ms of clock), so a 100ms budget
	// allows only a few reps.
	withFakeClock(t, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	rt := testRuntime(t)
	s := RunAdaptive(rt, noopKernel, 0.1, 0, Adaptive{
		TargetCoV: 0.01, MinReps: 2, MaxReps: 64, MaxTime: 100 * time.Millisecond,
	})
	if s.StopReason != StopBudget {
		t.Fatalf("StopReason = %q, want %q (ran %d reps)", s.StopReason, StopBudget, s.RepsRun)
	}
	if s.RepsRun < 2 || s.RepsRun >= 64 {
		t.Fatalf("budget stop after %d reps, want between MinReps and MaxReps", s.RepsRun)
	}
}

// TestAdaptiveCIRelTarget: the CI-based rule needs more reps than the CoV
// rule at the same level — at n=2 the t multiplier (12.7) makes the interval
// huge even for mild noise — so a mildly noisy series stops later with
// reason "target" once the interval tightens.
func TestAdaptiveCIRelTarget(t *testing.T) {
	// Mild 10/10.4/10.2ms cycle → CoV ~2%, but CIRel at n=2 is ~12%.
	withFakeClock(t, []time.Duration{10 * time.Millisecond, 10400 * time.Microsecond, 10200 * time.Microsecond})
	rt := testRuntime(t)
	s := RunAdaptive(rt, noopKernel, 0.1, 0, Adaptive{TargetCIRel: 0.05, MinReps: 2, MaxReps: 32})
	if s.StopReason != StopTarget {
		t.Fatalf("StopReason = %q, want %q (CIRel %v after %d reps)", s.StopReason, StopTarget, s.CIRel, s.RepsRun)
	}
	if s.RepsRun <= 2 {
		t.Fatalf("CI target met at n=%d; the t-based rule must need more than 2 reps here", s.RepsRun)
	}
	if s.CIRel > 0.05 {
		t.Fatalf("stopped with CIRel %v above the 0.05 target", s.CIRel)
	}
}

// TestFixedRunRecordsNoiseEstimates: the fixed-rep path (measure.Run) now
// records the same provenance fields with stop reason "fixed".
func TestFixedRunRecordsNoiseEstimates(t *testing.T) {
	withFakeClock(t, []time.Duration{10 * time.Millisecond, 12 * time.Millisecond, 11 * time.Millisecond})
	rt := testRuntime(t)
	s := Run(rt, noopKernel, 0.1, 0, 4)
	if s.StopReason != StopFixed {
		t.Fatalf("StopReason = %q, want %q", s.StopReason, StopFixed)
	}
	if s.RepsRun != 4 || len(s.Runtimes) != 4 {
		t.Fatalf("fixed run: %d reps, want 4", s.RepsRun)
	}
	if s.CoV <= 0 || s.CIRel <= 0 {
		t.Fatalf("fixed run must still estimate noise: CoV %v CIRel %v", s.CoV, s.CIRel)
	}
}

// TestEvaluatorAdaptiveSeriesMeta: an adaptive evaluator preserves the
// sweep's sim.Reps sample shape by cycling and returns the real rep count
// and noise estimates with the runtimes.
func TestEvaluatorAdaptiveSeriesMeta(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(Options{Warmup: 1, Adaptive: Adaptive{TargetCoV: 0.5, MinReps: 2, MaxReps: 3}})
	cfg := env.Default(m)
	set := sim.Setting{Label: "t2", Threads: 2, Scale: 0.3}
	slots, meta, err := e.EvaluateSeries(m, app, cfg, cfg.Key(), set)
	if err != nil {
		t.Fatal(err)
	}
	for rep, r := range slots {
		if !(r > 0) {
			t.Fatalf("rep %d runtime %v", rep, r)
		}
	}
	if meta.Reps < 2 || meta.Reps > 3 {
		t.Fatalf("meta.Reps = %d, want within [MinReps=2, MaxReps=3]", meta.Reps)
	}
	if meta.StopReason != StopTarget && meta.StopReason != StopMaxReps {
		t.Fatalf("meta.StopReason = %q", meta.StopReason)
	}
	// The sample slots cycle over the real reps: slot i repeats slot i-Reps.
	for rep := meta.Reps; rep < sim.Reps; rep++ {
		if slots[rep] != slots[rep-meta.Reps] {
			t.Fatalf("slot %d (%v) does not cycle over %d real reps (%v)", rep, slots[rep], meta.Reps, slots)
		}
	}
}

// TestSeriesMetaRecordsShortFixedSeries: the sim.Reps slots cycle over a
// short series and keep the first sim.Reps runs of a long one, and the
// returned provenance is the record that distinguishes real reps from
// recycled ones — its noise figures cover every rep run, not just the slots.
// The scripted clock makes rep k of a series take 3, 5, 7, 2, 4, 6 ms.
func TestSeriesMetaRecordsShortFixedSeries(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.Default(m)
	set := sim.Setting{Label: "t2", Threads: 2, Scale: 0.3}
	ran := []float64{0.003, 0.005, 0.007, 0.002, 0.004, 0.006}
	for _, tc := range []struct {
		reps int
		want [sim.Reps]float64
	}{
		{1, [sim.Reps]float64{0.003, 0.003, 0.003, 0.003}},
		{2, [sim.Reps]float64{0.003, 0.005, 0.003, 0.005}},
		{6, [sim.Reps]float64{0.003, 0.005, 0.007, 0.002}},
	} {
		var steps []time.Duration
		for ms := 1; ms <= 7; ms++ {
			steps = append(steps, time.Duration(ms)*time.Millisecond)
		}
		withFakeClock(t, steps)
		e := NewEvaluator(Options{TimedReps: tc.reps})
		slots, meta, err := e.EvaluateSeries(m, app, cfg, cfg.Key(), set)
		if err != nil {
			t.Fatal(err)
		}
		for i := range slots {
			if math.Abs(slots[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("%d timed reps: slots %v, want %v", tc.reps, slots, tc.want)
			}
		}
		var w stats.Welford
		for _, r := range ran[:tc.reps] {
			w.Add(r)
		}
		if meta.Reps != tc.reps || meta.StopReason != StopFixed ||
			math.Abs(meta.CoV-w.CoV()) > 1e-9 || math.Abs(meta.CIRel-w.CIRel(CIConfidence)) > 1e-9 {
			t.Fatalf("%d timed reps: meta %+v, want reps %d, %q, CoV %v, CIRel %v",
				tc.reps, meta, tc.reps, StopFixed, w.CoV(), w.CIRel(CIConfidence))
		}
	}
}
