package openmp

// Tests for the hot-team fork–join paths: steady-state allocation-freedom,
// the lock-free construct ring (including a thread's bounded lead), the
// wait-policy-aware barrier, sharded stats aggregation, and critical-section
// lock caching. Nested-parallelism behaviour is covered in nested_test.go.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelSteadyStateZeroAlloc is the headline acceptance criterion:
// once the hot team is warm, dispatching a region allocates nothing. Most
// cases run under turnaround, where every wait spins; the park cases repeat a
// region and a barrier under KMP_LIBRARY=throughput with KMP_BLOCKTIME=0,
// where every wait parks — on the thread's parker, whose token channel is
// made once, so sleeping allocates nothing either (AllocsPerRun counts
// allocations from all goroutines, workers included). The other cases are the
// remaining operations the micro-benchmarks report at 0 allocs/op, pinned
// here so the property is a test and not a number in a benchmark log. The
// first cases run with Runtime.hooks nil; the loop-region cases repeat a
// region with each observer attached alone and with all three, and the ring
// constructs and task spawns run under every pairing of wait policy and
// observer set.
func TestParallelSteadyStateZeroAlloc(t *testing.T) {
	region := func(body func(*Runtime) func(*Thread)) func(*Runtime) func() {
		return func(rt *Runtime) func() {
			b := body(rt)
			return func() { rt.Parallel(b) }
		}
	}
	empty := region(func(*Runtime) func(*Thread) { return func(*Thread) {} })
	// loop is a region with a static loop and its barrier, so every hook of
	// the untasked path fires on every thread.
	loop := region(func(*Runtime) func(*Thread) {
		return func(th *Thread) { th.For(64, func(int) {}) }
	})
	type pin struct {
		name    string
		park    bool // throughput, zero blocktime instead of turnaround
		mutate  func(*Options)
		op      func(*Runtime) func() // builds the measured operation
		observe int                   // index into observerSets; 0 attaches nothing
	}
	cases := []pin{
		{name: "empty region", op: empty},
		// BenchmarkOverheadParallel and BenchmarkOverheadBarrier,
		// policy=throughput: the parallel_park and barrier_park cells.
		{name: "empty region, park", park: true, op: empty},
		{name: "explicit barrier, park", park: true, op: region(func(*Runtime) func(*Thread) {
			return func(th *Thread) {
				for i := 0; i < 4; i++ {
					th.Barrier()
				}
			}
		})},
		// BenchmarkOuterOnlyRegression: nesting configured but never used
		// may not tax the flat dispatch.
		{name: "nesting configured, unused", mutate: func(o *Options) {
			o.ThreadsPerLevel = []int{4, 2}
			o.MaxActiveLevels = 2
			o.ThreadLimit = 16
		}, op: empty},
		// BenchmarkLockContended.
		{name: "contended lock", op: region(func(rt *Runtime) func(*Thread) {
			l, n := rt.NewLock(), 0
			return func(*Thread) {
				for i := 0; i < 32; i++ {
					l.Lock()
					n++
					l.Unlock()
				}
			}
		})},
		// BenchmarkOverheadCritical: name→lock resolution on the cached path.
		{name: "named critical", op: region(func(*Runtime) func(*Thread) {
			n := 0
			inc := func() { n++ }
			return func(th *Thread) {
				for i := 0; i < 32; i++ {
					th.Critical("pin", inc)
				}
			}
		})},
		// BenchmarkLockUncontended.
		{name: "uncontended lock", op: func(rt *Runtime) func() {
			l := rt.NewLock()
			return func() { l.Lock(); l.Unlock() }
		}},
		// BenchmarkOverheadStats: the snapshot walks the per-thread shards.
		{name: "stats snapshot", op: func(rt *Runtime) func() {
			rt.Parallel(func(*Thread) {})
			return func() { _ = rt.Stats() }
		}},
	}
	for i := 1; i < len(observerSets); i++ {
		cases = append(cases, pin{name: "loop region, " + observerSets[i].name, op: loop, observe: i})
	}
	// The ring constructs (BenchmarkOverheadFor dynamic_c1, dynamic_c8 and
	// guided, BenchmarkOverheadSingle, BenchmarkOverheadReduce) keep their
	// shared state in their ring slot, and the tree reduction in its team's
	// buffer. Each region enters one or more of them, so the measured regions
	// wrap the ring: slot reuse allocates nothing either, waits spinning or
	// parking, hooks nil or attached.
	schedule := func(kind ScheduleKind, chunk int) func(*Options) {
		return func(o *Options) { o.Schedule, o.ChunkSize = kind, chunk }
	}
	reduction := func(m ReductionMethod) func(*Options) {
		return func(o *Options) { o.Reduction = m }
	}
	forBody := func(th *Thread) { th.For(64, func(int) {}) }
	reduceBody := func(th *Thread) { th.ReduceSum(1) }
	// BenchmarkTaskSpawnRun and BenchmarkTaskFibonacci's tree shape: task
	// descriptors come back to their spawners' free lists, whichever thread
	// ran them, and the deques are fixed rings.
	spawnBody := func(th *Thread) {
		th.Master(func() {
			for i := 0; i < 4*dequeCap; i++ {
				th.Task(func(*Thread) {})
			}
			th.TaskWait()
		})
	}
	// tree[d] spawns two tasks running tree[d+1] and waits for them: 126
	// tasks a region, and no closure built per spawn.
	tree := make([]func(*Thread), 7)
	for d := range tree {
		tree[d] = func(th *Thread) {
			if d+1 < len(tree) {
				th.Task(tree[d+1])
				th.Task(tree[d+1])
				th.TaskWait()
			}
		}
	}
	treeBody := func(th *Thread) { th.Single(func() { tree[0](th) }) }
	constructs := []struct {
		name   string
		mutate func(*Options)
		body   func(*Thread)
	}{
		{"dynamic_c1", schedule(ScheduleDynamic, 1), forBody},
		{"dynamic_c8", schedule(ScheduleDynamic, 8), forBody},
		{"guided", schedule(ScheduleGuided, 0), forBody},
		{"single", nil, func(th *Thread) {
			for i := 0; i < 4; i++ {
				th.Single(func() {})
			}
		}},
		{"reduce tree", reduction(ReductionTree), reduceBody},
		{"reduce atomic", reduction(ReductionAtomic), reduceBody},
		{"reduce critical", reduction(ReductionCritical), reduceBody},
		{"task spawn", nil, spawnBody},
		{"task tree", nil, treeBody},
	}
	for _, c := range constructs {
		op := region(func(*Runtime) func(*Thread) { return c.body })
		for _, park := range []bool{false, true} {
			for i, set := range observerSets {
				name := c.name + ", " + set.name
				if park {
					name += ", park"
				}
				cases = append(cases, pin{name: name, park: park, mutate: c.mutate, op: op, observe: i})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := optsN(4)
			o.Library = LibTurnaround
			if tc.park {
				o.Library = LibThroughput // optsN's blocktime is 0
			}
			if tc.mutate != nil {
				tc.mutate(&o)
			}
			rt := testRuntime(t, o)
			attachObservers(t, rt, observerSets[tc.observe])
			op := tc.op(rt)
			for i := 0; i < 10; i++ {
				op() // warm the hot team
			}
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("steady-state %s: %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// A static worksharing loop needs no shared construct state, so a whole
// region containing one stays allocation-free too — blocked (chunk 0) and
// round-robin chunked alike (BenchmarkOverheadFor sched=static, static_c8),
// with its waits spinning (turnaround) or parking (throughput, blocktime 0).
func TestParallelStaticForZeroAlloc(t *testing.T) {
	for _, lib := range []LibraryMode{LibTurnaround, LibThroughput} {
		for _, chunk := range []int{0, 8} {
			for _, set := range observerSets {
				staticForZeroAlloc(t, lib, chunk, set)
			}
		}
	}
}

func staticForZeroAlloc(t *testing.T, lib LibraryMode, chunk int, set observerSet) {
	t.Helper()
	o := optsN(4)
	o.Library = lib // optsN's blocktime is 0
	o.Schedule, o.ChunkSize = ScheduleStatic, chunk
	rt := testRuntime(t, o)
	attachObservers(t, rt, set)
	var sink atomic.Int64
	iter := func(i int) {
		if i == 0 {
			sink.Add(1)
		}
	}
	body := func(th *Thread) { th.For(256, iter) }
	for i := 0; i < 10; i++ {
		rt.Parallel(body)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("static-for region, %s, chunk %d, %s: %.1f allocs/op, want 0", lib, chunk, set.name, allocs)
	}
}

// TestParallelLoopShorthandZeroAlloc: ParallelFor and ParallelReduceSum fork
// their regions on the hot team with a package-level body that reads the
// loop from the team, so with a body built once neither allocates — under
// every schedule, and ParallelReduceSum under every reduction method.
func TestParallelLoopShorthandZeroAlloc(t *testing.T) {
	var sink atomic.Int64
	do := func(i int) {
		if i == 0 {
			sink.Add(1)
		}
	}
	sum := func(i int) float64 { return float64(i) }
	for _, sched := range []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		for _, red := range []ReductionMethod{ReductionTree, ReductionAtomic, ReductionCritical} {
			o := optsN(4)
			o.Schedule, o.Reduction = sched, red
			rt := testRuntime(t, o)
			ops := map[string]func(){
				"ParallelFor": func() { rt.ParallelFor(256, do) },
				"ParallelReduceSum": func() {
					if got := rt.ParallelReduceSum(256, sum); got != 255*256/2 {
						t.Fatalf("sum %v, want %d", got, 255*256/2)
					}
				},
			}
			for name, op := range ops {
				for i := 0; i < 10; i++ {
					op()
				}
				if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
					t.Errorf("%s, %s, %s: %.1f allocs/op, want 0", name, sched, red, allocs)
				}
			}
		}
	}
}

// TestConstructRingOverflow runs one thread through 3 × constructRingSize
// nowait constructs — Singles alternating with dynamic or guided loops —
// while its teammate starts late. The ring is the only construct store, so
// after passing construct k a thread may be at most constructRingSize
// constructs ahead of the one its teammate has entered: the next construct
// waits for its slot's previous occupant to be released. Every Single body
// must still run exactly once, and every loop cover its range exactly once,
// from the zeroed word of a reused slot.
func TestConstructRingOverflow(t *testing.T) {
	for _, sched := range []ScheduleKind{ScheduleDynamic, ScheduleGuided} {
		o := optsN(2)
		o.Schedule = sched
		rt := testRuntime(t, o)
		const steps, iters = 3 * constructRingSize / 2, 16 // one Single and one loop a step
		var ran atomic.Int32
		var hits [steps][iters]atomic.Int32
		var entered [2]atomic.Int64 // constructs each thread has entered
		rt.Parallel(func(th *Thread) {
			me, other := th.ID(), 1-th.ID()
			if me == 1 {
				// Start once thread 0 is past the ring's reach, or has stalled.
				deadline := time.Now().Add(time.Second)
				for entered[0].Load() <= constructRingSize && time.Now().Before(deadline) {
					runtime.Gosched()
				}
			}
			lead, at := int64(0), int64(0)
			pass := func(k int64, construct func()) {
				entered[me].Store(k)
				construct()
				if d := k - entered[other].Load(); d > lead {
					lead, at = d, k
				}
			}
			for s := range steps {
				pass(int64(2*s+1), func() { th.Single(func() { ran.Add(1) }) })
				pass(int64(2*s+2), func() { th.ForNowait(iters, func(i int) { hits[s][i].Add(1) }) })
			}
			if lead > constructRingSize {
				t.Errorf("%s: thread %d passed construct %d, %d ahead of its teammate; the ring holds %d",
					sched, me, at, lead, constructRingSize)
			}
		})
		if got := ran.Load(); got != steps {
			t.Errorf("%s: %d Single bodies ran, want %d", sched, got, steps)
		}
		for s := range hits {
			for i := range hits[s] {
				if got := hits[s][i].Load(); got != 1 {
					t.Errorf("%s: loop %d ran iteration %d %d times, want 1", sched, s, i, got)
				}
			}
		}
	}
}

// TestConstructRingStress hammers the ring with mixed nowait constructs
// across many regions; run under -race it checks the claim/release protocol's
// happens-before edges, and the sums check construct identity and the zeroed
// word (a duplicated, cross-wired or stale slot would double- or under-count).
func TestConstructRingStress(t *testing.T) {
	o := optsN(4)
	o.Schedule = ScheduleDynamic
	o.ChunkSize = 4
	rt := testRuntime(t, o)
	const regions, iters = 25, 96
	var loopSum, singleSum atomic.Int64
	for r := 0; r < regions; r++ {
		rt.Parallel(func(th *Thread) {
			th.ForNowait(iters, func(i int) { loopSum.Add(1) })
			th.Single(func() { singleSum.Add(1) })
			th.ForNowait(iters, func(i int) { loopSum.Add(1) })
			if got := th.ReduceSum(1); got != 4 {
				t.Errorf("ReduceSum(1) = %v, want 4", got)
			}
		})
	}
	if got := loopSum.Load(); got != 2*regions*iters {
		t.Errorf("dynamic loops ran %d iterations, want %d", got, 2*regions*iters)
	}
	if got := singleSum.Load(); got != regions {
		t.Errorf("singles ran %d times, want %d", got, regions)
	}
}

// barrierRounds runs rounds of a 3-thread explicit barrier, thread 0
// arriving late, on a team whose runtime has no pooled workers: every
// Sleep/Wakeup it returns is a barrier wait.
func barrierRounds(t *testing.T, o Options, rounds int) Stats {
	rt := testRuntime(t, o)
	tm := newTeam(rt, nil, 3, true)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := range tm.threads {
			wg.Add(1)
			go func(th *Thread) {
				defer wg.Done()
				if th.ID() == 0 {
					time.Sleep(200 * time.Microsecond) // let the others park
				}
				th.Barrier()
			}(&tm.threads[i])
		}
		wg.Wait()
	}
	return rt.Stats()
}

// TestBarrierParkWake: with a zero blocktime, waiters that arrive early park,
// and the generation's releaser wakes every one of them — across many reused
// generations.
func TestBarrierParkWake(t *testing.T) {
	s := barrierRounds(t, optsN(1), 50)
	if s.Sleeps == 0 {
		t.Error("no barrier waiter ever parked despite a zero blocktime")
	}
	if s.Sleeps != s.Wakeups {
		t.Errorf("sleeps = %d but wakeups = %d; every park must be woken", s.Sleeps, s.Wakeups)
	}
}

// In turnaround mode barrier waiters spin and never park, whatever the
// arrival skew.
func TestBarrierTurnaroundNeverParks(t *testing.T) {
	o := optsN(1)
	o.Library = LibTurnaround
	if s := barrierRounds(t, o, 10); s.Sleeps != 0 {
		t.Errorf("barrier waiters parked %d times in turnaround mode, want 0", s.Sleeps)
	}
}

// TestStatsShardAggregation checks that Stats() sums the per-thread shards
// into exactly the totals the old single-counter implementation produced for
// a deterministic workload.
func TestStatsShardAggregation(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	rt.Parallel(func(th *Thread) {
		th.For(400, func(int) {}) // static, no chunk: one chunk per thread
		for i := 0; i < 3; i++ {
			th.Task(func(*Thread) {})
		}
		th.TaskWait()
	})
	s := rt.Stats()
	if s.Regions != 1 {
		t.Errorf("Regions = %d, want 1", s.Regions)
	}
	if s.Chunks != 4 {
		t.Errorf("Chunks = %d, want 4 (one static chunk per thread)", s.Chunks)
	}
	if s.TasksRun != 12 {
		t.Errorf("TasksRun = %d, want 12", s.TasksRun)
	}
}

// TestNoSleepsWithinBlocktime is the satellite fix for spurious sleep
// accounting: regions dispatched back-to-back well inside the blocktime
// budget must never count a sleep, because a worker that finds work during
// its final pre-park re-check did not actually sleep.
func TestNoSleepsWithinBlocktime(t *testing.T) {
	o := optsN(4)
	o.BlocktimeMS = 10_000 // far longer than this test
	rt := testRuntime(t, o)
	for r := 0; r < 20; r++ {
		rt.Parallel(func(*Thread) {})
	}
	if s := rt.Stats(); s.Sleeps != 0 {
		t.Errorf("Sleeps = %d with a 10s blocktime and immediate redispatch, want 0", s.Sleeps)
	}
}

func TestCriticalLockCachedPerName(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	a1 := rt.criticalFor("a")
	if a2 := rt.criticalFor("a"); a2 != a1 {
		t.Error("criticalFor returned different locks for the same name")
	}
	if b := rt.criticalFor("b"); b == a1 {
		t.Error("criticalFor returned the same lock for different names")
	}
	x := 0
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Critical("a", func() { x++ })
		}
	})
	if x != 400 {
		t.Errorf("critical-section counter = %d, want 400", x)
	}
}
