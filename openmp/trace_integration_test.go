package openmp

// Integration tests for the OMPT-style tracing layer: event emission from
// the instrumented runtime sites, allocation-freedom of the disabled hot
// path (including after a Start/Stop cycle), and the Stats exact-snapshot
// contract at Close.

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"omptune/openmp/trace"
)

// TestTraceCapturesRegionEvents runs a traced region exercising every
// instrumented site — worksharing chunks, explicit tasks with forced
// steals, an explicit barrier — and checks the collected events and the
// derived summary.
func TestTraceCapturesRegionEvents(t *testing.T) {
	o := optsN(4)
	o.Schedule = ScheduleDynamic
	o.ChunkSize = 4
	rt := testRuntime(t, o)
	if err := rt.StartTrace(0); err != nil {
		t.Fatalf("StartTrace: %v", err)
	}
	if err := rt.StartTrace(0); err == nil {
		t.Error("second StartTrace did not error")
	}
	const tasks = 64
	rt.Parallel(func(th *Thread) {
		th.For(64, func(i int) {})
		// All tasks spawn on thread 0; any other thread that runs one must
		// have stolen it. The sleep keeps thread 0 from draining its own
		// deque before the others arrive, making steals all but certain.
		if th.ID() == 0 {
			for i := 0; i < tasks; i++ {
				th.Task(func(*Thread) { time.Sleep(50 * time.Microsecond) })
			}
		}
		th.Barrier()
	})
	d := rt.StopTrace()
	if rt.StopTrace().Events != nil {
		t.Error("second StopTrace returned events")
	}

	counts := map[trace.Kind]int{}
	exhausted := 0 // claims that found the loop empty: scheduling time, no chunk
	for _, e := range d.Events {
		if e.Kind == trace.KindChunk && e.ChunkIters() == 0 {
			exhausted++
			continue
		}
		counts[e.Kind]++
	}
	if counts[trace.KindRegionFork] != 1 || counts[trace.KindRegionJoin] != 1 {
		t.Errorf("fork/join = %d/%d, want 1/1", counts[trace.KindRegionFork], counts[trace.KindRegionJoin])
	}
	if counts[trace.KindImplicitBegin] != 4 || counts[trace.KindImplicitEnd] != 4 {
		t.Errorf("implicit begin/end = %d/%d, want 4/4",
			counts[trace.KindImplicitBegin], counts[trace.KindImplicitEnd])
	}
	// 64 iters / chunk 4 = 16 chunks; each thread also passes the explicit
	// barrier, the loop's implicit barrier, and the end-of-region barrier.
	if counts[trace.KindChunk] != 16 || exhausted != 4 {
		t.Errorf("chunks = %d, exhausted claims = %d, want 16 and one per thread", counts[trace.KindChunk], exhausted)
	}
	if counts[trace.KindBarrierEnter] != 12 || counts[trace.KindBarrierLeave] != 12 {
		t.Errorf("barrier enter/leave = %d/%d, want 12/12",
			counts[trace.KindBarrierEnter], counts[trace.KindBarrierLeave])
	}
	if counts[trace.KindTaskCreate] != tasks || counts[trace.KindTaskBegin] != tasks || counts[trace.KindTaskEnd] != tasks {
		t.Errorf("task create/begin/end = %d/%d/%d, want %d each",
			counts[trace.KindTaskCreate], counts[trace.KindTaskBegin], counts[trace.KindTaskEnd], tasks)
	}
	if counts[trace.KindTaskSteal] == 0 {
		t.Error("no task steals traced (all tasks spawned on one thread)")
	}

	s := trace.Summarize(d)
	if len(s.Regions) != 1 {
		t.Fatalf("summary has %d regions, want 1", len(s.Regions))
	}
	m := s.Regions[0]
	if m.Threads != 4 || m.WallNS <= 0 || m.BarrierNS() <= 0 {
		t.Errorf("region threads/wall/barrierWait = %d/%d/%d, want 4/>0/>0",
			m.Threads, m.WallNS, m.BarrierNS())
	}
	if m.TasksRun != tasks || m.Chunks != 16 {
		t.Errorf("region tasksRun/chunks = %d/%d, want %d/16", m.TasksRun, m.Chunks, tasks)
	}
	if s.StealRate <= 0 {
		t.Errorf("steal rate = %v, want > 0", s.StealRate)
	}

	// The trace must render as valid Chrome JSON; with no drops the spans
	// must balance strictly.
	if d.Dropped != 0 {
		t.Fatalf("trace dropped %d events with a default-size buffer", d.Dropped)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if n, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes()), true); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	} else if n != len(d.Events) {
		t.Errorf("validated %d events, want %d", n, len(d.Events))
	}
}

// TestTraceColdNestedTeamWhole: a nested team first forked after StartTrace
// takes its rings when it is built, so every one of its threads is traced —
// no warm-up run before tracing.
func TestTraceColdNestedTeamWhole(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	if err := rt.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	const reps = 3
	for i := 0; i < reps; i++ {
		rt.Parallel(func(th *Thread) {
			th.Parallel(func(ith *Thread) { ith.For(8, func(int) {}) })
		})
	}
	d := rt.StopTrace()
	if d.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", d.Dropped)
	}

	// Per inner region and kind, the threads that emitted it: both inner
	// threads open and close their implicit task and pass two barriers
	// (the loop's and the region's end).
	type key struct {
		region uint64
		kind   trace.Kind
	}
	tids := map[key]map[int32]int{}
	for _, e := range d.Events {
		if e.Level != 1 {
			continue
		}
		k := key{e.Region, e.Kind}
		if tids[k] == nil {
			tids[k] = map[int32]int{}
		}
		tids[k][e.Tid]++
	}
	var inner []uint64
	for k := range tids {
		if k.kind == trace.KindRegionFork {
			inner = append(inner, k.region)
		}
	}
	if len(inner) != reps*2 {
		t.Fatalf("traced %d inner regions, want %d", len(inner), reps*2)
	}
	for _, region := range inner {
		for kind, per := range map[trace.Kind]int{
			trace.KindImplicitBegin: 1, trace.KindImplicitEnd: 1,
			trace.KindBarrierEnter: 2, trace.KindBarrierLeave: 2,
		} {
			got := tids[key{region, kind}]
			if len(got) != 2 {
				t.Errorf("region %d: %v from %d threads %v, want 2", region, kind, len(got), got)
			}
			for tid, n := range got {
				if n != per {
					t.Errorf("region %d: tid %d emitted %d %v, want %d", region, tid, n, kind, per)
				}
			}
		}
	}

	s := trace.Summarize(d)
	if len(s.Levels) != 2 || s.Levels[1].Regions != reps*2 || s.Levels[1].MaxThreads != 2 {
		t.Errorf("summary levels %+v, want a level-1 row of %d regions, 2 threads wide", s.Levels, reps*2)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(&buf, true); err != nil {
		t.Errorf("ValidateChrome(strictPairs): %v", err)
	}
}

// TestStartTraceRejectsHugeRings: a ring capacity past trace.MaxBufferSize
// is an error returned at once, and the runtime stays usable and untraced.
func TestStartTraceRejectsHugeRings(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	for _, n := range []int{1<<62 + 1, math.MaxInt} {
		done := make(chan error, 1)
		go func() { done <- rt.StartTrace(n) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("StartTrace(%d) succeeded", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("StartTrace(%d) did not return", n)
		}
	}
	if h := rt.hooks.Load(); h != nil {
		t.Errorf("a rejected StartTrace left hooks %+v attached", h)
	}
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) { th.Parallel(func(*Thread) { ran.Add(1) }) })
	if ran.Load() != 4 {
		t.Errorf("after rejected StartTrace: inner bodies ran %d times, want 4", ran.Load())
	}
	if err := rt.StartTrace(trace.MaxBufferSize >> 10); err != nil {
		t.Fatalf("StartTrace within the maximum: %v", err)
	}
	rt.Parallel(func(*Thread) {})
	if d := rt.StopTrace(); len(d.Events) == 0 || d.Dropped != 0 {
		t.Errorf("traced region after the rejections: %d events, %d dropped", len(d.Events), d.Dropped)
	}
}

// TestTraceSmallRingDropsCounted forces ring overflow and checks the trace
// still collects cleanly with the loss accounted for.
func TestTraceSmallRingDropsCounted(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	if err := rt.StartTrace(8); err != nil {
		t.Fatalf("StartTrace: %v", err)
	}
	rt.Parallel(func(th *Thread) {
		th.For(4096, func(i int) {}) // static: few chunks
		for i := 0; i < 200; i++ {
			th.Barrier() // 2 events per thread per barrier: overflows 8-slot rings
		}
	})
	d := rt.StopTrace()
	if d.Dropped == 0 {
		t.Error("expected drops with an 8-event ring")
	}
	if len(d.Events) == 0 {
		t.Error("no events survived")
	}
}

// TestTraceDisabledZeroAlloc proves the acceptance criterion: with tracing
// disabled — both never-enabled and after a Start/Stop cycle — the
// steady-state hot-team dispatch stays allocation-free.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	o := optsN(4)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	body := func(th *Thread) { th.For(64, func(i int) {}) }
	for i := 0; i < 10; i++ {
		rt.Parallel(body)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("never-traced Parallel: %.1f allocs/op, want 0", allocs)
	}

	// A past tracing session must leave no residue on the hot path.
	if err := rt.StartTrace(0); err != nil {
		t.Fatalf("StartTrace: %v", err)
	}
	rt.Parallel(body)
	if d := rt.StopTrace(); len(d.Events) == 0 {
		t.Error("traced region produced no events")
	}
	for i := 0; i < 10; i++ {
		rt.Parallel(body)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("post-StopTrace Parallel: %.1f allocs/op, want 0", allocs)
	}
}

// TestTraceEnabledZeroAlloc: emitting into preallocated rings is itself
// allocation-free, as long as the rings don't wrap (drops are free too, but
// large rings keep the event stream meaningful).
func TestTraceEnabledZeroAlloc(t *testing.T) {
	o := optsN(4)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	body := func(th *Thread) { th.For(64, func(i int) {}) }
	if err := rt.StartTrace(1 << 12); err != nil {
		t.Fatalf("StartTrace: %v", err)
	}
	for i := 0; i < 10; i++ {
		rt.Parallel(body)
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("traced Parallel: %.1f allocs/op, want 0", allocs)
	}
	rt.StopTrace()
}

// TestStatsExactAtQuiescence pins the Stats contract: region-scoped
// counters are exact once Parallel returns, and after Close every counter
// is final with Sleeps == Wakeups.
func TestStatsExactAtQuiescence(t *testing.T) {
	o := optsN(4)
	rt, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const regions, iters, tasks = 7, 64, 9
	before := rt.Stats()
	for r := 0; r < regions; r++ {
		rt.Parallel(func(th *Thread) {
			th.For(iters, func(i int) {})
			if th.ID() == 1 {
				for k := 0; k < tasks; k++ {
					th.Task(func(*Thread) {})
				}
			}
		})
	}
	got := rt.Stats().Sub(before)
	// Static schedule, 4 threads, 64 iters: every thread gets one chunk.
	if got.Regions != regions {
		t.Errorf("Regions = %d, want %d", got.Regions, regions)
	}
	if got.Chunks != regions*4 {
		t.Errorf("Chunks = %d, want %d", got.Chunks, regions*4)
	}
	if got.TasksRun != regions*tasks {
		t.Errorf("TasksRun = %d, want %d", got.TasksRun, regions*tasks)
	}

	rt.Close()
	final := rt.Stats()
	if final.Sleeps != final.Wakeups {
		t.Errorf("after Close: Sleeps %d != Wakeups %d", final.Sleeps, final.Wakeups)
	}
	if again := rt.Stats(); again != final {
		t.Errorf("Stats changed after Close: %+v then %+v", final, again)
	}
}
