package openmp

import (
	"runtime"
	"testing"
	"time"
)

// TestWaitPolicyTightPhase pins libomp's yield rule as New resolves it: a
// runtime whose threads fit on GOMAXPROCS polls tight first, an
// oversubscribed one yields from its first poll, and a Lock never polls
// tight, whatever the runtime's policy.
func TestWaitPolicyTightPhase(t *testing.T) {
	nested := func(widths ...int) func(*Options) {
		return func(o *Options) {
			o.NumThreads = widths[0]
			o.ThreadsPerLevel = widths
			o.MaxActiveLevels = len(widths)
		}
	}
	cases := []struct {
		name   string
		mutate func(*Options)
		procs  int
		tight  bool
	}{
		{"T=2 on 2", func(o *Options) { o.NumThreads = 2 }, 2, true},
		{"T=4 on 2", func(o *Options) { o.NumThreads = 4 }, 2, false},
		{"T=4 on 1", func(o *Options) { o.NumThreads = 4 }, 1, false},
		{"1x2 nested on 2", nested(1, 2), 2, true},
		{"2x2 nested on 2", nested(2, 2), 2, false},
		{"2x2 nested, one active level, on 2", func(o *Options) {
			nested(2, 2)(o)
			o.MaxActiveLevels = 1
		}, 2, true},
		{"2x2 nested under OMP_THREAD_LIMIT=2", func(o *Options) {
			nested(2, 2)(o)
			o.ThreadLimit = 2
		}, 2, true},
		{"serial T=8 on 1", func(o *Options) {
			o.NumThreads = 8
			o.Library = LibSerial
		}, 1, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		for _, lib := range []LibraryMode{LibThroughput, LibTurnaround} {
			o := DefaultOptions()
			o.Library = lib
			c.mutate(&o)
			runtime.GOMAXPROCS(c.procs)
			rt := testRuntime(t, o)
			if got := rt.wait.tight > 0; got != c.tight {
				t.Errorf("%s, %s: tight phase %v, want %v", c.name, lib, got, c.tight)
			}
			if rt.wait.parks == (o.Library == LibTurnaround) {
				t.Errorf("%s, %s: parks = %v", c.name, lib, rt.wait.parks)
			}
			want := rt.wait
			want.tight = 0
			if l := rt.NewLock(); l.wait != want {
				t.Errorf("%s, %s: Lock policy %+v, want %+v: the runtime's without its tight phase", c.name, lib, l.wait, want)
			}
		}
	}
}

// TestOversubscribedTurnaroundYields runs a turnaround team four times wider
// than GOMAXPROCS through 2,000 regions, each with a dynamic loop, its
// barrier and an explicit barrier. Every wait there needs a teammate that
// holds no P, so a waiter that never yielded would stall until the
// scheduler preempts it (10 ms) at each of them: minutes in all, where
// yielding waiters take milliseconds.
func TestOversubscribedTurnaroundYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := optsN(4)
	o.Library = LibTurnaround
	o.Schedule, o.ChunkSize = ScheduleDynamic, 1
	rt := testRuntime(t, o)
	const regions, bound = 2000, 20 * time.Second
	counts := make([]int64, 4)
	start := time.Now()
	r := 0
	for ; r < regions && time.Since(start) < bound; r++ {
		rt.Parallel(func(th *Thread) {
			th.For(16, func(int) { counts[th.ID()]++ })
			th.Barrier()
		})
	}
	if r < regions {
		t.Fatalf("%d of %d oversubscribed regions in %v: waiters stall instead of yielding", r, regions, bound)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != regions*16 {
		t.Errorf("%d iterations, want %d", total, regions*16)
	}
	if st := rt.Stats(); st.Regions != regions || st.Sleeps != 0 {
		t.Errorf("Regions %d, Sleeps %d; want %d, 0", st.Regions, st.Sleeps, regions)
	}
}
