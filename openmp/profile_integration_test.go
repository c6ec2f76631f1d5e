package openmp

import (
	"strings"
	"testing"
	"time"

	"omptune/openmp/profile"
)

// findRegion returns the first report row at the given nesting level, or nil.
func findRegion(r *profile.Report, level int) *profile.RegionProfile {
	for i := range r.Regions {
		if r.Regions[i].Level == level {
			return &r.Regions[i]
		}
	}
	return nil
}

func TestProfileRegionMetrics(t *testing.T) {
	o := testMetricsOpts(4)
	o.Schedule = ScheduleDynamic
	rt := testRuntime(t, o)
	if err := rt.StartProfile(); err != nil {
		t.Fatalf("StartProfile: %v", err)
	}

	const regions, iters, tasks = 3, 64, 8
	for r := 0; r < regions; r++ {
		rt.Parallel(func(th *Thread) {
			th.For(iters, func(i int) {
				if i == 0 {
					time.Sleep(2 * time.Millisecond) // imbalance: one heavy iteration
				}
			})
			if th.ID() == 0 {
				for i := 0; i < tasks; i++ {
					th.Task(func(*Thread) {})
				}
			}
		})
	}

	rep := rt.Profile()
	if len(rep.Regions) != 1 {
		t.Fatalf("got %d region rows, want 1: %+v", len(rep.Regions), rep.Regions)
	}
	rp := rep.Regions[0]
	if rp.Count != regions {
		t.Errorf("Count = %d, want %d", rp.Count, regions)
	}
	if rp.Threads != 4 {
		t.Errorf("Threads = %d, want 4", rp.Threads)
	}
	if rp.Samples != regions*4 {
		t.Errorf("Samples = %d, want %d", rp.Samples, regions*4)
	}
	if rp.Missing != 0 {
		t.Errorf("Missing = %d, want 0", rp.Missing)
	}
	if rp.Level != 0 {
		t.Errorf("Level = %d, want 0", rp.Level)
	}
	if !strings.Contains(rp.Name, "TestProfileRegionMetrics") {
		t.Errorf("Name = %q, want the calling test function", rp.Name)
	}
	if rp.TasksRun != regions*tasks {
		t.Errorf("TasksRun = %d, want %d", rp.TasksRun, regions*tasks)
	}
	if rp.TasksCreated != regions*tasks {
		t.Errorf("TasksCreated = %d, want %d", rp.TasksCreated, regions*tasks)
	}
	if rp.Chunks == 0 {
		t.Error("Chunks = 0, want > 0")
	}
	if rp.SchedNS <= 0 {
		t.Error("SchedNS = 0, want > 0 (dynamic schedule claims)")
	}
	if rp.WallNS <= 0 || rp.ThreadNS <= 0 || rp.BusyNS <= 0 {
		t.Errorf("time sums not positive: wall=%d thread=%d busy=%d", rp.WallNS, rp.ThreadNS, rp.BusyNS)
	}
	if rp.ThreadNS < rp.BusyNS {
		t.Errorf("ThreadNS %d < BusyNS %d", rp.ThreadNS, rp.BusyNS)
	}
	if rp.ParallelEfficiency <= 0 || rp.ParallelEfficiency > 1 {
		t.Errorf("ParallelEfficiency = %v, want in (0, 1]", rp.ParallelEfficiency)
	}
	if rp.LoadBalance <= 0 || rp.LoadBalance > 1 {
		t.Errorf("LoadBalance = %v, want in (0, 1]", rp.LoadBalance)
	}
	// The sleeping iteration makes three threads wait at the For barrier and
	// the join barrier for ~2ms while one computes: barrier-wait share must
	// register, and the arrival spread with it.
	if rp.BarrierWaitShare <= 0 {
		t.Error("BarrierWaitShare = 0, want > 0")
	}
	if rp.BarrierNS() <= 0 {
		t.Error("BarrierNS = 0, want > 0")
	}

	// StopProfile detaches: the next region must not fold anywhere.
	final := rt.StopProfile()
	if got := findRegion(final, 0); got == nil || got.Count != regions {
		t.Errorf("StopProfile report lost data: %+v", final)
	}
	rt.Parallel(func(th *Thread) {})
	if rt.hooks.Load() != nil {
		t.Error("observer snapshot still published after the last consumer detached")
	}
	if got := rt.Profile(); len(got.Regions) != 0 {
		t.Errorf("detached Profile() returned %d regions, want 0", len(got.Regions))
	}
}

// TestProfileConstructIdentity checks that distinct Parallel call sites get
// distinct rows — including two ParallelFor sites, which share the internal
// dispatch path and must not alias through it.
func TestProfileConstructIdentity(t *testing.T) {
	rt := testRuntime(t, testMetricsOpts(2))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}

	rt.ParallelFor(8, func(i int) {}) // site A
	rt.ParallelFor(8, func(i int) {}) // site B
	for i := 0; i < 3; i++ {
		rt.Parallel(func(th *Thread) {}) // site C, three instances
	}

	rep := rt.Profile()
	if len(rep.Regions) != 3 {
		t.Fatalf("got %d region rows, want 3 distinct call sites:\n%s", len(rep.Regions), rep)
	}
	var counts []int64
	for _, rp := range rep.Regions {
		counts = append(counts, rp.Count)
		if rp.Line == 0 {
			t.Errorf("region %q has no resolved source line", rp.Name)
		}
	}
	// One site ran 3 times, the others once each.
	var threes, ones int
	for _, c := range counts {
		switch c {
		case 3:
			threes++
		case 1:
			ones++
		}
	}
	if threes != 1 || ones != 2 {
		t.Errorf("instance counts = %v, want one 3 and two 1s", counts)
	}
}

// TestProfileNestedAttribution is the satellite criterion: inner regions are
// keyed by (construct, level) and never alias their enclosing region.
func TestProfileNestedAttribution(t *testing.T) {
	o := nestedOpts(2, 2)
	o.BlocktimeMS = BlocktimeInfinite
	rt := testRuntime(t, o)

	innerBody := func(ith *Thread) {
		ith.ForNowait(16, func(i int) {})
		ith.Barrier()
	}
	body := func(th *Thread) { th.Parallel(innerBody) }
	rt.Parallel(body) // builds the inner hot teams before profiling starts

	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	const reps = 4
	for i := 0; i < reps; i++ {
		rt.Parallel(body)
	}

	rep := rt.Profile()
	outer, inner := findRegion(rep, 0), findRegion(rep, 1)
	if outer == nil || inner == nil {
		t.Fatalf("want level-0 and level-1 rows, got:\n%s", rep)
	}
	if outer.Count != reps {
		t.Errorf("outer Count = %d, want %d", outer.Count, reps)
	}
	// Each outer region forks one inner region per outer thread.
	if inner.Count != reps*2 {
		t.Errorf("inner Count = %d, want %d", inner.Count, reps*2)
	}
	if inner.Threads != 2 {
		t.Errorf("inner Threads = %d, want 2", inner.Threads)
	}
	if inner.Missing != 0 {
		t.Errorf("inner Missing = %d, want 0", inner.Missing)
	}
	// The worksharing loop runs on the inner team only: its chunks must not
	// leak into the outer row.
	if outer.Chunks != 0 {
		t.Errorf("outer Chunks = %d, want 0 (loop runs in the inner region)", outer.Chunks)
	}
	if inner.Chunks == 0 {
		t.Error("inner Chunks = 0, want > 0")
	}
}

// TestProfileColdNestedTeamWhole: a nested team first forked after
// StartProfile records into the slots it was built with, so every one of
// its threads is counted — no warm-up run before profiling.
func TestProfileColdNestedTeamWhole(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	const reps = 3
	for i := 0; i < reps; i++ {
		rt.Parallel(func(th *Thread) {
			th.Parallel(func(ith *Thread) { ith.For(8, func(int) {}) })
		})
	}
	inner := findRegion(rt.Profile(), 1)
	if inner == nil {
		t.Fatalf("no level-1 row:\n%s", rt.Profile())
	}
	if inner.Count != reps*2 || inner.Threads != 2 {
		t.Errorf("inner count/threads = %d/%d, want %d/2", inner.Count, inner.Threads, reps*2)
	}
	if inner.Samples != inner.Count*int64(inner.Threads) || inner.Missing != 0 {
		t.Errorf("inner samples/missing = %d/%d, want %d/0",
			inner.Samples, inner.Missing, inner.Count*int64(inner.Threads))
	}
}

// TestProfileDeepNesting: a region nested nine levels deep gets its own row
// like any other level, and nothing is dropped.
func TestProfileDeepNesting(t *testing.T) {
	const depth = 9
	rt := testRuntime(t, nestedOpts(2, 2))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	var fork func(th *Thread)
	fork = func(th *Thread) {
		if th.Level() < depth {
			th.Parallel(fork)
		}
	}
	rt.Parallel(fork)
	rep := rt.Profile()
	if rep.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", rep.Dropped)
	}
	for level := 0; level <= depth; level++ {
		rp := findRegion(rep, level)
		if rp == nil {
			t.Errorf("no row at level %d:\n%s", level, rep)
			continue
		}
		if rp.Missing != 0 || rp.Samples != rp.Count*int64(rp.Threads) {
			t.Errorf("level %d: samples/missing = %d/%d, want %d/0",
				level, rp.Samples, rp.Missing, rp.Count*int64(rp.Threads))
		}
	}
}

// TestProfileSerializedNestedUnprofiled: the no-context serialized fallback
// (Runtime.Parallel inside an active region) has no profile slots and must
// be skipped without polluting the table.
func TestProfileSerializedNestedUnprofiled(t *testing.T) {
	rt := testRuntime(t, testMetricsOpts(2))
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(func(th *Thread) {
		if th.ID() == 0 {
			rt.Parallel(func(ith *Thread) {}) // serialized width-1 fallback
		}
	})
	rep := rt.Profile()
	if got := len(rep.Regions); got != 1 {
		t.Fatalf("got %d region rows, want only the outer one:\n%s", got, rep)
	}
	if rep.Regions[0].Level != 0 {
		t.Errorf("unexpected nested row: %+v", rep.Regions[0])
	}
}

// TestProfileZeroAlloc pins the acceptance criterion: region dispatch stays
// at zero allocations with nothing attached, with the profiler attached, and
// with every other combination the observer seam is pinned for.
func TestProfileZeroAlloc(t *testing.T) {
	for _, set := range observerSets {
		rt := testRuntime(t, testMetricsOpts(2))
		body := func(th *Thread) {}
		attachObservers(t, rt, set)
		rt.Parallel(body) // warm the hot team
		if avg := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); avg != 0 {
			t.Errorf("%s: %v allocs/region, want 0", set.name, avg)
		}
		if !set.profile {
			continue
		}
		// The report sorts by attributed thread-time, so the 1-count warm-up
		// call site can outrank the measured one when it was descheduled:
		// find the measured row by its count, not by position.
		rep := rt.Profile()
		measured := false
		for _, r := range rep.Regions {
			measured = measured || r.Count >= 100
		}
		if !measured {
			t.Errorf("%s: profiler recorded nothing: %+v", set.name, rep)
		}
	}
}

// TestProfileZeroAllocWorksharing extends the alloc pin to the instrumented
// worksharing paths (dynamic claims time themselves when enabled): a dynamic
// loop allocates nothing, with the profiler off or on.
func TestProfileZeroAllocWorksharing(t *testing.T) {
	o := testMetricsOpts(2)
	o.Schedule = ScheduleDynamic
	rt := testRuntime(t, o)
	body := func(th *Thread) { th.For(64, func(i int) {}) }

	for i := 0; i < 3; i++ {
		rt.Parallel(body)
	}
	if avg := testing.AllocsPerRun(50, func() { rt.Parallel(body) }); avg != 0 {
		t.Errorf("disabled profiler dynamic loop: %v allocs/region, want 0", avg)
	}
	if err := rt.StartProfile(); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(body)
	if avg := testing.AllocsPerRun(50, func() { rt.Parallel(body) }); avg != 0 {
		t.Errorf("enabled profiler dynamic loop: %v allocs/region, want 0", avg)
	}
}

func TestProfileStartErrors(t *testing.T) {
	rt := MustNew(testMetricsOpts(2))
	if err := rt.StartProfile(); err != nil {
		t.Fatalf("StartProfile: %v", err)
	}
	if err := rt.StartProfile(); err == nil {
		t.Error("second StartProfile succeeded, want error")
	}
	rt.StopProfile()
	if err := rt.StartProfile(); err != nil {
		t.Errorf("StartProfile after StopProfile: %v", err)
	}
	rt.Close()
	rt.StopProfile()
	if err := rt.StartProfile(); err == nil {
		t.Error("StartProfile on closed runtime succeeded, want error")
	}
}
