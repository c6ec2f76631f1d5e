package measure

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
	"omptune/openmp/profile"
)

func testSetting() sim.Setting { return sim.Setting{Label: "t4", Threads: 4, Scale: 0.3} }

func TestRunHarness(t *testing.T) {
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	rt := openmp.MustNew(openmp.Options{
		NumThreads: 4, Schedule: openmp.ScheduleStatic,
		Library: openmp.LibThroughput, BlocktimeMS: 200, AlignAlloc: 64,
	})
	defer rt.Close()
	s := Run(rt, app.Kernel, 0.3, 2, 3)
	if len(s.Runtimes) != 3 {
		t.Fatalf("got %d timed reps, want 3", len(s.Runtimes))
	}
	for i, r := range s.Runtimes {
		if r <= 0 {
			t.Errorf("rep %d runtime %v not positive", i, r)
		}
	}
	if s.Warmup != 2 {
		t.Errorf("Warmup = %d, want 2", s.Warmup)
	}
	if s.Checksum == 0 {
		t.Error("checksum not captured")
	}
	if s.Stats.Regions == 0 {
		t.Error("stats not captured: no regions recorded")
	}
}

func TestRunClampsDegenerateArguments(t *testing.T) {
	app, err := apps.ByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	rt := openmp.MustNew(openmp.Options{
		NumThreads: 2, Schedule: openmp.ScheduleStatic,
		Library: openmp.LibThroughput, BlocktimeMS: 0, AlignAlloc: 64,
	})
	defer rt.Close()
	s := Run(rt, app.Kernel, 0.3, -1, 0)
	if s.Warmup != 0 || len(s.Runtimes) != 1 {
		t.Fatalf("clamping failed: warmup %d, reps %d", s.Warmup, len(s.Runtimes))
	}
	if s.Runtimes[0] <= 0 {
		t.Fatalf("runtime %v not positive", s.Runtimes[0])
	}
}

func TestEvaluatorIdentity(t *testing.T) {
	e := NewEvaluator(Options{})
	if e.Name() != "measured" {
		t.Errorf("Name = %q", e.Name())
	}
}

// TestEvaluatorConcurrentSeries: the evaluator holds only its options, so
// sweep workers share one; concurrent series (same key included — nothing is
// deduplicated here, that is core.EvalCache's job) each measure on their own
// runtime and fold into the shared profile. Meaningful under -race.
func TestEvaluatorConcurrentSeries(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	agg := profile.NewAggregator()
	e := NewEvaluator(Options{TimedReps: 2, Profile: agg})
	cfg := env.Default(m)
	key := cfg.Key()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := sim.Setting{Label: "t2", Threads: 2, Scale: 0.3 + float64(0.1*float64(w%2))}
			slots, meta, err := e.EvaluateSeries(m, app, cfg, key, set)
			if err != nil || meta.Reps != 2 || slots[0] <= 0 || slots[0] != slots[2] {
				t.Errorf("worker %d: slots %v meta %+v err %v", w, slots, meta, err)
			}
		}(w)
	}
	wg.Wait()
	if len(agg.Snapshot().Regions) == 0 {
		t.Error("no region rows aggregated from the concurrent series")
	}
}

// TestEvaluatorFailureDoesNotPanic is the regression test for the
// sweep-killing panic: a kernel-measurement failure used to panic out of the
// evaluator (and with it an hours-long checkpointed campaign). It must
// instead be an ordinary error that wraps the cause and names the series,
// while other series keep measuring.
func TestEvaluatorFailureDoesNotPanic(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected runtime failure")
	orig := newRuntime
	failing := true
	newRuntime = func(opts openmp.Options) (*openmp.Runtime, error) {
		if failing {
			return nil, boom
		}
		return openmp.New(opts)
	}
	defer func() { newRuntime = orig }()

	e := NewEvaluator(Options{Warmup: 0, TimedReps: 1})
	cfg := env.Default(m)
	set := testSetting()
	_, meta, err := e.EvaluateSeries(m, app, cfg, cfg.Key(), set)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped injected failure", err)
	}
	if want := "a64fx|EP|t4|" + cfg.Key(); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the series %q", err, want)
	}
	if meta != (dataset.SeriesMeta{}) {
		t.Errorf("failed series carries provenance: %+v", meta)
	}
	// Nothing is remembered: the same series measures once the cause is gone.
	failing = false
	if slots, _, err := e.EvaluateSeries(m, app, cfg, cfg.Key(), set); err != nil || !(slots[0] > 0) {
		t.Fatalf("healthy series after a failed one = %v, %v", slots, err)
	}
}

// TestEvaluatorRejectsWrongChecksum: a series whose checksum is not the
// app's one-thread reference computed something else, and is an error
// naming the series like a failed measurement; drift of a rounding's size
// measures.
func TestEvaluatorRejectsWrongChecksum(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	// The fake kernel's checksum moves with the team size, by step per
	// thread beyond the first.
	fake := func(step float64) *apps.App {
		return &apps.App{Name: "Fake", Kernel: func(rt *openmp.Runtime, _ float64) float64 {
			return 1 + float64(step*float64(rt.NumThreads()-1))
		}}
	}
	e := NewEvaluator(Options{Warmup: 0, TimedReps: 1})
	cfg := env.Default(m)
	set := testSetting()
	if _, _, err := e.EvaluateSeries(m, fake(1e-12), cfg, cfg.Key(), set); err != nil {
		t.Fatalf("checksum within rounding of the reference: %v", err)
	}
	_, meta, err := e.EvaluateSeries(m, fake(0.5), cfg, cfg.Key(), set)
	if err == nil || !strings.Contains(err.Error(), "checksum 2.5, one-thread reference 1") {
		t.Fatalf("err = %v, want the wrong checksum and its reference", err)
	}
	if want := "a64fx|Fake|t4|" + cfg.Key(); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the series %q", err, want)
	}
	if meta != (dataset.SeriesMeta{}) {
		t.Errorf("failed series carries provenance: %+v", meta)
	}
}

// TestEvaluatorChecksEveryRun: a series fails when any run, warmup or
// timed, computed something else, though the last run matches the
// reference; the error names the run.
func TestEvaluatorChecksEveryRun(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	cfg := env.Default(m)
	e := NewEvaluator(Options{Warmup: 1, TimedReps: 4})
	for _, tc := range []struct {
		offCall int // the call on the series' runtime whose checksum is off
		want    string
	}{
		{1, "warmup run 0: checksum 1.0000009999999999, one-thread reference 1"},
		{3, "rep 1: checksum 1.0000009999999999, one-thread reference 1"},
	} {
		calls := 0
		fake := &apps.App{Name: "Fake", Kernel: func(rt *openmp.Runtime, _ float64) float64 {
			if rt.NumThreads() == 1 {
				return 1 // the reference's runtime
			}
			calls++
			if calls == tc.offCall {
				return 1 + 1e-6
			}
			return 1
		}}
		_, meta, err := e.EvaluateSeries(m, fake, cfg, cfg.Key(), testSetting())
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("call %d off: err = %v, want %q", tc.offCall, err, tc.want)
		}
		if calls != 5 {
			t.Errorf("call %d off: %d calls, want a warmup and 4 reps", tc.offCall, calls)
		}
		if meta != (dataset.SeriesMeta{}) {
			t.Errorf("failed series carries provenance: %+v", meta)
		}
	}
}

// TestEvaluatorRejectsDriftingCounts: a series whose timed reps hand out
// different numbers of loop chunks ran different work, and is an error
// naming the series, even though its checksum matches.
func TestEvaluatorRejectsDriftingCounts(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	calls := 0 // kernel calls so far: call k runs k nowait loops
	fake := &apps.App{Name: "Fake", Kernel: func(rt *openmp.Runtime, _ float64) float64 {
		calls++
		rt.Parallel(func(th *openmp.Thread) {
			for range calls {
				th.ForNowait(100, func(int) {})
			}
		})
		return 1
	}}
	e := NewEvaluator(Options{Warmup: 1, TimedReps: 3})
	cfg := env.Default(m)
	_, meta, err := e.EvaluateSeries(m, fake, cfg, cfg.Key(), testSetting())
	if err == nil || !strings.Contains(err.Error(), "rep 1: 1 regions, 12 chunks, 0 tasks run; rep 0: 1, 8, 0") {
		t.Fatalf("err = %v, want rep 1's chunk count against rep 0's", err)
	}
	if want := "a64fx|Fake|t4|" + cfg.Key(); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the series %q", err, want)
	}
	if meta != (dataset.SeriesMeta{}) {
		t.Errorf("failed series carries provenance: %+v", meta)
	}
}

func TestEvaluatorHonoursConfigAndSetting(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(Options{Warmup: 0, TimedReps: 1})
	// Distinct configs and settings are distinct series — both must measure
	// (positive runtimes) without interference.
	cfgA := env.Default(m)
	cfgB, err := cfgA.Set(env.VarSchedule, "dynamic")
	if err != nil {
		t.Fatal(err)
	}
	setA := sim.Setting{Label: "t2", Threads: 2, Scale: 0.3}
	setB := sim.Setting{Label: "t4", Threads: 4, Scale: 0.3}
	for _, probe := range []struct {
		cfg env.Config
		set sim.Setting
	}{{cfgA, setA}, {cfgB, setA}, {cfgA, setB}} {
		if r, _, err := e.EvaluateSeries(m, app, probe.cfg, probe.cfg.Key(), probe.set); err != nil || r[0] <= 0 {
			t.Fatalf("cfg %s set %s: runtimes %v, err %v", probe.cfg, probe.set.Label, r, err)
		}
	}
}

// TestEvaluatorProfileAggregation: with Options.Profile set, every measured
// series folds its per-region profile into the shared aggregate, and the
// warmup run stays out of the profiled counts.
func TestEvaluatorProfileAggregation(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("EP")
	if err != nil {
		t.Fatal(err)
	}
	agg := profile.NewAggregator()
	e := NewEvaluator(Options{Warmup: 1, TimedReps: 2, Profile: agg})
	set := testSetting()
	if r, _, err := e.EvaluateSeries(m, app, env.Default(m), env.Default(m).Key(), set); err != nil || !(r[0] > 0) {
		t.Fatalf("runtimes = %v, err %v", r, err)
	}
	rep := agg.Snapshot()
	if len(rep.Regions) == 0 {
		t.Fatal("no region rows aggregated from the measured series")
	}
	var total int64
	for _, rp := range rep.Regions {
		if rp.WallNS <= 0 || rp.ThreadNS <= 0 {
			t.Errorf("region %q has non-positive times: %+v", rp.Name, rp)
		}
		total += rp.Count
	}
	if total == 0 {
		t.Error("aggregated region count is zero")
	}

	// A second configuration folds into the same aggregate.
	cfg, err := env.Default(m).Set(env.VarSchedule, "dynamic")
	if err != nil {
		t.Fatal(err)
	}
	if r, _, err := e.EvaluateSeries(m, app, cfg, cfg.Key(), set); err != nil || !(r[0] > 0) {
		t.Fatalf("runtimes = %v, err %v", r, err)
	}
	rep2 := agg.Snapshot()
	var total2 int64
	for _, rp := range rep2.Regions {
		total2 += rp.Count
	}
	if total2 <= total {
		t.Errorf("second series did not grow the aggregate: %d then %d", total, total2)
	}
}

// TestScheduleReachesChunkClaims: every OMP_SCHEDULE value of the swept space
// reaches the runtime's loop claims. A one-loop kernel runs through Run on
// each value's RuntimeOptions, and every rep's Chunks delta must equal the
// value's closed form (openmp's TestLoopChunkAccounting, with the sweep's
// default chunk): static hands min(n, T) threads one block, dynamic claims n
// one-iteration chunks, guided follows its remainder chain, and auto is
// static.
func TestScheduleReachesChunkClaims(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	const n, threads = 1000, 4
	kernel := func(rt *openmp.Runtime, _ float64) float64 {
		rt.ParallelFor(n, func(int) {})
		return 1
	}
	want := func(schedule string) uint64 {
		switch schedule {
		case "dynamic":
			return n
		case "guided":
			chunks := uint64(0)
			for rem := n; rem > 0; chunks++ {
				rem -= min(max(rem/(2*threads), 1), rem)
			}
			return chunks
		default:
			return min(n, threads)
		}
	}
	for _, v := range env.Values(m, env.VarSchedule) {
		cfg, err := env.Default(m).Set(env.VarSchedule, v)
		if err != nil {
			t.Fatal(err)
		}
		opts := cfg.RuntimeOptions(m)
		opts.NumThreads = threads
		rt, err := openmp.New(opts)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		s := Run(rt, kernel, 1, 1, 3)
		rt.Close()
		if len(s.RepStats) != 3 {
			t.Fatalf("%s: %d rep stats, want 3", v, len(s.RepStats))
		}
		for i, st := range s.RepStats {
			if st.Chunks != want(v) {
				t.Errorf("OMP_SCHEDULE=%s rep %d: %d chunks, want %d", v, i, st.Chunks, want(v))
			}
		}
	}
}
