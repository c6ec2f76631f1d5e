package openmp

// Tests that hold the runtime's observers to one account of what happened:
// the event trace, the online profile, the latency sinks and the always-on
// Stats counters are separate instruments over the same construct
// boundaries, and the variability claims read from them are only as good as
// their agreement.

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// observerSinks is a counting Metrics: one allocation-free observer per
// instrument.
type observerSinks struct {
	region, barrier, task countingObserver
}

func (s *observerSinks) metrics() *Metrics {
	return &Metrics{Region: &s.region, BarrierWait: &s.barrier, TaskRun: &s.task}
}

// observerSets are the attachment states the allocation pins cover: nothing
// attached (Runtime.hooks nil), each consumer alone, and all three at once.
type observerSet struct {
	name                    string
	trace, profile, metrics bool
}

var observerSets = []observerSet{
	{"hooks nil", false, false, false},
	{"tracer", true, false, false},
	{"profiler", false, true, false},
	{"metrics", false, false, true},
	{"all three", true, true, true},
}

// attachObservers attaches the chosen consumers to rt for the rest of the
// test. The rings are small: a pin runs a few hundred near-empty regions.
func attachObservers(t *testing.T, rt *Runtime, set observerSet) {
	t.Helper()
	if set.trace {
		if err := rt.StartTrace(1 << 12); err != nil {
			t.Fatalf("StartTrace: %v", err)
		}
		t.Cleanup(func() { rt.StopTrace() })
	}
	if set.profile {
		if err := rt.StartProfile(); err != nil {
			t.Fatalf("StartProfile: %v", err)
		}
		t.Cleanup(func() { rt.StopProfile() })
	}
	if set.metrics {
		rt.SetMetrics(new(observerSinks).metrics())
		t.Cleanup(func() { rt.SetMetrics(nil) })
	}
	if attached := set.trace || set.profile || set.metrics; (rt.hooks.Load() != nil) != attached {
		t.Fatalf("Runtime.hooks = %v with %q attached", rt.hooks.Load(), set.name)
	}
}

// waitCount polls until obs has seen at least want observations: a worker's
// end-of-region barrier span closes after the primary has already returned
// from Parallel, so the last few observations may trail.
func waitCount(obs *countingObserver, want uint64) uint64 {
	deadline := time.Now().Add(5 * time.Second)
	for obs.n.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return obs.n.Load()
}

// reportTotals adds a profile report's rows up.
func reportTotals(rep *profile.Report) (sum profile.Sums) {
	for i := range rep.Regions {
		sum.Add(&rep.Regions[i].Sums)
	}
	return sum
}

// TestObserversAgree runs one fixed mix — a worksharing loop under each
// schedule, an explicit barrier, a two-level task tree whose first task is
// forced onto a thief, and one threaded nested region per outer thread —
// with the tracer, the profiler and a counting Metrics attached at once,
// and requires the three views and the Stats delta to agree at quiescence.
//
// Teams are two wide on purpose: a deque then never holds enough surplus
// for a batch to be stolen twice over, so the steal invariants below do not
// depend on how re-steals are accounted.
func TestObserversAgree(t *testing.T) {
	const (
		reps  = 3
		roots = 4 // root tasks per region; each spawns one child
		iters = 64

		regionsPerRep  = 3           // one outer region, one inner per outer thread
		tasksPerRep    = 2 * roots   // roots and their children
		barriersPerRep = 2*3 + 2*2*2 // outer: For, Barrier, join; each inner: Barrier, join
	)
	schedules := []struct {
		kind  ScheduleKind
		chunk int
	}{{ScheduleStatic, 0}, {ScheduleDynamic, 1}, {ScheduleGuided, 1}}
	for _, sched := range schedules {
		t.Run(sched.kind.String(), func(t *testing.T) {
			o := nestedOpts(2, 2)
			o.Schedule, o.ChunkSize = sched.kind, sched.chunk
			o.Places = []PlaceSpec{{Cores: []int{0}}, {Cores: []int{1}}}
			o.Bind = BindSpread
			o.PlaceDistances = [][]float64{{10, 40}, {40, 10}}
			rt := testRuntime(t, o)

			var onThief atomic.Bool
			inner := func(ith *Thread) {
				ith.ForNowait(16, func(int) {})
				ith.Barrier()
			}
			root := func(c *Thread) {
				if c.ID() != 0 {
					onThief.Store(true)
				}
				c.Task(func(*Thread) {})
				c.TaskWait()
			}
			mix := func(th *Thread) {
				th.For(iters, func(int) {})
				if th.ID() == 0 {
					for i := 0; i < roots; i++ {
						th.Task(root)
					}
				}
				// The barrier holds thread 1 in the body until the tasks are
				// queued; the producer then leaves its own deque alone until
				// a root has started on the other thread.
				th.Barrier()
				if th.ID() == 0 {
					for !onThief.Load() {
						runtime.Gosched()
					}
					th.TaskWait()
				}
				th.Parallel(inner)
			}
			run := func() {
				onThief.Store(false)
				rt.Parallel(mix)
			}
			var sinks observerSinks
			if err := rt.StartTrace(0); err != nil {
				t.Fatalf("StartTrace: %v", err)
			}
			if err := rt.StartProfile(); err != nil {
				t.Fatalf("StartProfile: %v", err)
			}
			rt.SetMetrics(sinks.metrics())
			prev := rt.Stats()
			for i := 0; i < reps; i++ {
				run()
			}
			d := rt.Stats().Sub(prev)
			barriers := waitCount(&sinks.barrier, reps*barriersPerRep)
			rt.SetMetrics(nil)
			rep := rt.StopProfile()
			data := rt.StopTrace()

			if d.Regions != reps*regionsPerRep || d.TasksRun != reps*tasksPerRep {
				t.Fatalf("Stats delta: %d regions, %d tasks run, want %d and %d",
					d.Regions, d.TasksRun, reps*regionsPerRep, reps*tasksPerRep)
			}
			if d.Chunks == 0 || d.TasksStolen == 0 {
				t.Fatalf("Stats delta: %d chunks, %d tasks stolen, want both > 0", d.Chunks, d.TasksStolen)
			}

			checkStealInvariants(t, d, true)

			// Trace and profile against the Stats delta.
			if data.Dropped != 0 || rep.Dropped != 0 {
				t.Fatalf("dropped: %d trace events, %d profile regions, want 0 and 0", data.Dropped, rep.Dropped)
			}
			sum := trace.Summarize(data)
			tot := reportTotals(rep)
			if tot.Missing != 0 {
				t.Errorf("profile missed %d thread samples, want 0", tot.Missing)
			}
			for _, c := range []struct {
				what            string
				trace, prof, st uint64
			}{
				{"regions", uint64(len(sum.Regions)), uint64(tot.Count), d.Regions},
				{"chunks", uint64(sum.Chunks), uint64(tot.Chunks), d.Chunks},
				{"tasks created", uint64(sum.TasksCreated), uint64(tot.TasksCreated), d.TasksRun},
				{"tasks run", uint64(sum.TasksRun), uint64(tot.TasksRun), d.TasksRun},
				{"tasks stolen", uint64(sum.TasksStolen), uint64(tot.TasksStolen), d.TasksStolen},
				{"steal batches", uint64(sum.StealBatches), uint64(tot.StealBatches), d.StealBatches},
				{"steals local", uint64(sum.StealsLocal), uint64(tot.StealsLocal), d.StealsLocal},
				{"steals remote", uint64(sum.StealsRemote), uint64(tot.StealsRemote), d.StealsRemote},
			} {
				if c.trace != c.st || c.prof != c.st {
					t.Errorf("%s: trace %d, profile %d, stats %d — want all equal", c.what, c.trace, c.prof, c.st)
				}
			}
			if uint64(sum.NestedRegions) != d.NestedRegions {
				t.Errorf("nested regions: trace %d, stats %d", sum.NestedRegions, d.NestedRegions)
			}

			// The latency sinks: one observation per region, per executed task
			// and per thread per barrier passed.
			if got := sinks.region.n.Load(); got != d.Regions {
				t.Errorf("Region observations = %d, want %d", got, d.Regions)
			}
			if got := sinks.task.n.Load(); got != d.TasksRun {
				t.Errorf("TaskRun observations = %d, want %d", got, d.TasksRun)
			}
			if barriers != reps*barriersPerRep {
				t.Errorf("BarrierWait observations = %d, want %d", barriers, reps*barriersPerRep)
			}

			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, data); err != nil {
				t.Fatalf("WriteChrome: %v", err)
			}
			if _, err := trace.ValidateChrome(&buf, true); err != nil {
				t.Errorf("ValidateChrome(strictPairs): %v", err)
			}
		})
	}
}

// TestObserversAttachDetachUnderLoad cycles all three consumers on and off
// from one goroutine while another runs regions back to back. A region
// observes through the snapshot it forked with, so whatever the
// interleaving each consumer must have seen every region whole or not at
// all: traces pair up, profiles miss no thread, the latency sinks hold the
// same number of regions' worth of barriers and tasks as of regions, and
// the flush regions StopTrace dispatches in between show up nowhere.
func TestObserversAttachDetachUnderLoad(t *testing.T) {
	const (
		cycles = 200
		iters  = 8
	)
	o := optsN(2)
	o.Schedule, o.ChunkSize = ScheduleDynamic, 1
	rt := testRuntime(t, o)
	// A Parallel that finds another goroutine's region active — here only
	// StopTrace's flush — runs as a serialized width-1 nested region; the
	// body counts those, since they pass their barriers one thread wide.
	var serialized atomic.Uint64
	body := func(th *Thread) {
		if th.NumThreads() == 1 {
			serialized.Add(1)
		}
		th.For(iters, func(int) {})
		if th.ID() == 0 {
			th.Task(func(*Thread) {})
		}
		th.Barrier()
	}
	const barriersPerThread = 3 // For, Barrier and join

	var stop atomic.Bool
	var regions atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			rt.Parallel(body)
			regions.Add(1)
		}
	}()
	// runSome yields until the load goroutine has completed a few regions.
	runSome := func() {
		for target := regions.Load() + 2; regions.Load() < target; {
			runtime.Gosched()
		}
	}

	var sinks observerSinks
	var buf bytes.Buffer
	traced := 0
	for i := 0; i < cycles; i++ {
		if err := rt.StartTrace(1 << 12); err != nil {
			t.Fatalf("cycle %d: StartTrace: %v", i, err)
		}
		rt.SetMetrics(sinks.metrics())
		if err := rt.StartProfile(); err != nil {
			t.Fatalf("cycle %d: StartProfile: %v", i, err)
		}
		runSome()
		data := rt.StopTrace()
		rt.SetMetrics(nil)
		rep := rt.StopProfile()

		// StopTrace runs between regions and flushes the stragglers, so
		// every span it collected is closed unless a ring overflowed.
		traced += len(data.Events)
		buf.Reset()
		if err := trace.WriteChrome(&buf, data); err != nil {
			t.Fatalf("cycle %d: WriteChrome: %v", i, err)
		}
		if _, err := trace.ValidateChrome(&buf, data.Dropped == 0); err != nil {
			t.Fatalf("cycle %d: ValidateChrome (%d dropped): %v", i, data.Dropped, err)
		}
		// StopProfile may cut a region in flight off (it folds into the
		// detached profiler), but a region that did fold was stamped by the
		// same profiler on every thread.
		if rep.Dropped != 0 {
			t.Fatalf("cycle %d: profile dropped %d regions", i, rep.Dropped)
		}
		for _, r := range rep.Regions {
			if r.Missing != 0 || r.Samples > r.Count*int64(r.Threads) {
				t.Fatalf("cycle %d: profile row %s: %d regions × %d threads, %d samples, %d missing",
					i, r.Name, r.Count, r.Threads, r.Samples, r.Missing)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	if traced == 0 {
		t.Error("no cycle traced any event")
	}
	st, n := rt.Stats(), regions.Load()
	if st.Regions != n || st.TasksRun != n || st.Chunks != n*iters {
		t.Errorf("Stats after %d regions: %d regions, %d tasks, %d chunks — want %d, %d, %d",
			n, st.Regions, st.TasksRun, st.Chunks, n, n, n*iters)
	}
	// One more flush orders every worker's trailing span ends before the
	// sinks are read.
	if err := rt.StartTrace(1); err != nil {
		t.Fatalf("StartTrace: %v", err)
	}
	rt.StopTrace()
	seen := sinks.region.n.Load()
	if seen == 0 || seen > n {
		t.Errorf("Region sink saw %d of %d regions", seen, n)
	}
	if got := sinks.task.n.Load(); got != seen {
		t.Errorf("TaskRun sink saw %d tasks for %d regions", got, seen)
	}
	hi := seen * 2 * barriersPerThread
	lo := hi - serialized.Load()*barriersPerThread
	if got := sinks.barrier.n.Load(); got < lo || got > hi {
		t.Errorf("BarrierWait sink saw %d waits for %d regions (%d serialized overall), want %d..%d",
			got, seen, serialized.Load(), lo, hi)
	}
}
