package openmp

import (
	"sync/atomic"
	"testing"
)

// testRuntime builds a runtime closed at the end of the test, when the Close
// invariant of the Stats contract — Sleeps == Wakeups — is checked.
func testRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		rt.Close()
		if s := rt.Stats(); s.Sleeps != s.Wakeups {
			t.Errorf("after Close: Sleeps %d != Wakeups %d", s.Sleeps, s.Wakeups)
		}
	})
	return rt
}

func optsN(n int) Options {
	o := DefaultOptions()
	o.NumThreads = n
	o.BlocktimeMS = 0 // sleep immediately: cheapest on a 1-CPU host
	return o
}

func TestParallelRunsEveryThreadOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		rt := testRuntime(t, optsN(n))
		seen := make([]int32, n)
		rt.Parallel(func(th *Thread) {
			atomic.AddInt32(&seen[th.ID()], 1)
			if th.NumThreads() != n {
				t.Errorf("NumThreads = %d, want %d", th.NumThreads(), n)
			}
		})
		for id, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: thread %d ran %d times, want 1", n, id, c)
			}
		}
	}
}

func TestParallelReusableAcrossRegions(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	var total atomic.Int64
	for r := 0; r < 50; r++ {
		rt.Parallel(func(th *Thread) { total.Add(1) })
	}
	if got := total.Load(); got != 200 {
		t.Errorf("50 regions x 4 threads = %d executions, want 200", got)
	}
	if got := rt.Stats().Regions; got != 50 {
		t.Errorf("Stats().Regions = %d, want 50", got)
	}
}

func TestSerialModeRunsInline(t *testing.T) {
	o := optsN(8)
	o.Library = LibSerial
	rt := testRuntime(t, o)
	if rt.NumThreads() != 1 {
		t.Fatalf("serial NumThreads = %d, want 1", rt.NumThreads())
	}
	ran := 0
	rt.Parallel(func(th *Thread) {
		ran++
		if th.ID() != 0 {
			t.Errorf("serial thread id = %d, want 0", th.ID())
		}
	})
	if ran != 1 {
		t.Errorf("serial region ran %d times, want 1", ran)
	}
}

func TestCloseIdempotentAndPanicsAfterUse(t *testing.T) {
	rt := MustNew(optsN(2))
	rt.Close()
	rt.Close() // must not panic or deadlock
	defer func() {
		if recover() == nil {
			t.Error("Parallel after Close should panic")
		}
	}()
	rt.Parallel(func(*Thread) {})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 4
	rt := testRuntime(t, optsN(n))
	var phase1, phase2 atomic.Int32
	rt.Parallel(func(th *Thread) {
		phase1.Add(1)
		th.Barrier()
		if got := phase1.Load(); got != n {
			t.Errorf("thread %d passed barrier with phase1=%d, want %d", th.ID(), got, n)
		}
		phase2.Add(1)
	})
	if phase2.Load() != n {
		t.Errorf("phase2 = %d, want %d", phase2.Load(), n)
	}
}

func TestMasterAndSingle(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	var masterRuns, singleRuns atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Master(func() { masterRuns.Add(1) })
		th.Single(func() { singleRuns.Add(1) })
		th.Barrier()
		th.Single(func() { singleRuns.Add(1) }) // a second single construct
	})
	if masterRuns.Load() != 1 {
		t.Errorf("master ran %d times, want 1", masterRuns.Load())
	}
	if singleRuns.Load() != 2 {
		t.Errorf("two single constructs ran %d times total, want 2", singleRuns.Load())
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	rt := testRuntime(t, optsN(8))
	counter := 0 // unsynchronized on purpose; Critical must protect it
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 200; i++ {
			th.Critical("ctr", func() { counter++ })
		}
	})
	if counter != 8*200 {
		t.Errorf("counter = %d, want %d", counter, 8*200)
	}
}

func TestCriticalDistinctNamesAreIndependentLocks(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	a, b := 0, 0
	rt.Parallel(func(th *Thread) {
		th.Critical("a", func() { a++ })
		th.Critical("b", func() { b++ })
	})
	if a != 2 || b != 2 {
		t.Errorf("a=%d b=%d, want 2 2", a, b)
	}
}

func TestPlacementBookkeeping(t *testing.T) {
	o := optsN(4)
	o.Places = []PlaceSpec{{Cores: []int{0}}, {Cores: []int{1}}, {Cores: []int{2}}, {Cores: []int{3}}}
	o.Bind = BindClose
	rt := testRuntime(t, o)
	got := rt.Placement()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Placement[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	rt.Parallel(func(th *Thread) {
		if th.Place() != th.ID() {
			t.Errorf("thread %d on place %d, want %d", th.ID(), th.Place(), th.ID())
		}
	})
}

func TestUnboundPlacementIsNil(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	if rt.Placement() != nil {
		t.Errorf("unbound Placement = %v, want nil", rt.Placement())
	}
	rt.Parallel(func(th *Thread) {
		if th.Place() != -1 {
			t.Errorf("unbound Place() = %d, want -1", th.Place())
		}
	})
}

func TestWaitPolicySleepAndWake(t *testing.T) {
	// Blocktime 0: workers sleep immediately; every dispatched region wakes them.
	o := optsN(3)
	rt := testRuntime(t, o)
	for i := 0; i < 5; i++ {
		rt.Parallel(func(*Thread) {})
	}
	st := rt.Stats()
	if st.Sleeps == 0 {
		t.Error("blocktime=0: expected workers to sleep, Stats().Sleeps = 0")
	}
	if st.Wakeups == 0 {
		t.Error("blocktime=0: expected wakeups, Stats().Wakeups = 0")
	}
}

func TestWaitPolicyTurnaroundNeverSleeps(t *testing.T) {
	o := optsN(3)
	o.Library = LibTurnaround
	o.BlocktimeMS = 0 // turnaround must override this to infinite
	rt := testRuntime(t, o)
	for i := 0; i < 5; i++ {
		rt.Parallel(func(*Thread) {})
	}
	if st := rt.Stats(); st.Sleeps != 0 || st.Wakeups != 0 {
		t.Errorf("turnaround: Sleeps=%d Wakeups=%d, want 0 0", st.Sleeps, st.Wakeups)
	}
}

func TestWaitPolicyInfiniteBlocktimeNeverSleeps(t *testing.T) {
	o := optsN(2)
	o.BlocktimeMS = BlocktimeInfinite
	rt := testRuntime(t, o)
	for i := 0; i < 3; i++ {
		rt.Parallel(func(*Thread) {})
	}
	if st := rt.Stats(); st.Sleeps != 0 {
		t.Errorf("infinite blocktime: Sleeps=%d, want 0", st.Sleeps)
	}
}

func TestParallelForCoversRange(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	const n = 1000
	hits := make([]int32, n)
	rt.ParallelFor(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times, want 1", i, h)
		}
	}
}

func TestParallelReduceSum(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	got := rt.ParallelReduceSum(100, func(i int) float64 { return float64(i) })
	if got != 4950 {
		t.Errorf("sum 0..99 = %v, want 4950", got)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	bad := []Options{
		{NumThreads: 0, AlignAlloc: 64},
		{NumThreads: 2, AlignAlloc: 48},
		{NumThreads: 2, AlignAlloc: 4},
		{NumThreads: 2, AlignAlloc: 64, BlocktimeMS: -2},
		{NumThreads: 2, AlignAlloc: 64, ChunkSize: -1},
	}
	for _, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("New(%+v): want error, got nil", o)
		}
	}
}

func TestStringMentionsKeySettings(t *testing.T) {
	o := optsN(2)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	s := rt.String()
	for _, want := range []string{"threads=2", "turnaround"} {
		if !containsStr(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
