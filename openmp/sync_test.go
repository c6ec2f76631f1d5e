package openmp

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestLockMutualExclusion(t *testing.T) {
	for _, lib := range []LibraryMode{LibThroughput, LibTurnaround} {
		o := optsN(4)
		o.Library = lib
		rt := testRuntime(t, o)
		l := rt.NewLock()
		counter := 0
		rt.Parallel(func(th *Thread) {
			for i := 0; i < 300; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		})
		if counter != 1200 {
			t.Errorf("%s: counter = %d, want 1200", lib, counter)
		}
	}
}

func TestLockTryLock(t *testing.T) {
	rt := testRuntime(t, optsN(1))
	l := rt.NewLock()
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock() {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock()
	if !l.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	l.Unlock()
}

func TestLockUnlockOfUnlockedPanics(t *testing.T) {
	rt := testRuntime(t, optsN(1))
	l := rt.NewLock()
	defer func() {
		if recover() == nil {
			t.Error("Unlock of unlocked lock should panic")
		}
	}()
	l.Unlock()
}

func TestZeroValueLockStillExcludes(t *testing.T) {
	var l Lock
	rt := testRuntime(t, optsN(3))
	n := 0
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 100; i++ {
			l.Lock()
			n++
			l.Unlock()
		}
	})
	if n != 300 {
		t.Errorf("n = %d, want 300", n)
	}
}

func TestLockParksAfterBlocktime(t *testing.T) {
	// optsN(1): no pooled workers, so every Sleep/Wakeup below is the lock's.
	o := optsN(1)
	o.Library = LibThroughput
	o.BlocktimeMS = 0
	rt := testRuntime(t, o)
	l := rt.NewLock()
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	// Give the contender ample time to exhaust its (zero) blocktime and
	// park; a busy-spinning implementation would burn CPU here instead.
	time.Sleep(20 * time.Millisecond)
	if st := rt.Stats(); st.Sleeps == 0 {
		t.Error("contender past blocktime did not park: Stats().Sleeps = 0")
	}
	l.Unlock()
	<-done
	if st := rt.Stats(); st.Wakeups == 0 {
		t.Error("parked contender woke without accounting: Stats().Wakeups = 0")
	}
}

func TestLockTurnaroundNeverParks(t *testing.T) {
	o := optsN(4)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	l := rt.NewLock()
	counter := 0
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 200; i++ {
			l.Lock()
			counter++
			l.Unlock()
		}
	})
	if counter != 800 {
		t.Errorf("counter = %d, want 800", counter)
	}
	if st := rt.Stats(); st.Sleeps != 0 || st.Wakeups != 0 {
		t.Errorf("turnaround lock parked: Sleeps=%d Wakeups=%d, want 0 0", st.Sleeps, st.Wakeups)
	}
}

// TestWaitHammer drives every wait site across the spin→park transition at
// KMP_BLOCKTIME=0 — between regions, at a barrier, in a task wait, on a Lock
// — on 2, 3 and 4 threads with random arrival skew. Under -race it checks the
// parker's advertise/re-check/block pairing for data races and lost wakeups:
// a lost wakeup hangs its row, which the deadline turns into a failure. Every
// row must count exactly its units of work (the lock row's read-then-write
// loses updates without exclusion), park at least once, and leave Sleeps ==
// Wakeups after Close.
func TestWaitHammer(t *testing.T) {
	skew := func() {
		if d := rand.Intn(4); d > 0 {
			time.Sleep(time.Duration(d) * 25 * time.Microsecond)
		}
	}
	rows := []struct {
		name string
		per  int // units each thread counts per region
		body func(rt *Runtime, units *atomic.Int64) func(*Thread)
		// parked reads the sleeps the row's own site took; nil: all of them.
		parked func(rt *Runtime) uint64
	}{
		{name: "between regions", per: 1, body: func(_ *Runtime, units *atomic.Int64) func(*Thread) {
			return func(*Thread) {
				skew()
				units.Add(1)
			}
		}},
		{name: "barrier", per: 4, body: func(_ *Runtime, units *atomic.Int64) func(*Thread) {
			return func(th *Thread) {
				for i := 0; i < 4; i++ {
					skew()
					th.Barrier()
					units.Add(1)
				}
			}
		}},
		{name: "task wait", per: 2, body: func(_ *Runtime, units *atomic.Int64) func(*Thread) {
			return func(th *Thread) {
				for i := 0; i < 2; i++ {
					th.Task(func(*Thread) {
						skew()
						units.Add(1)
					})
				}
				skew()
				th.TaskWait()
			}
		}},
		{name: "lock", per: 8, body: func(rt *Runtime, units *atomic.Int64) func(*Thread) {
			l := rt.NewLock()
			return func(*Thread) {
				for i := 0; i < 8; i++ {
					l.Lock()
					v := units.Load()
					if rand.Intn(4) == 0 {
						skew() // hold the lock long enough that contenders park
					}
					units.Store(v + 1)
					l.Unlock()
				}
			}
		}, parked: func(rt *Runtime) uint64 { return rt.misc.sleeps.Load() }},
	}
	const regions = 40
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var parked uint64
			for n := 2; n <= 4; n++ {
				o := optsN(n)
				o.Library = LibThroughput
				rt := MustNew(o) // not testRuntime: a hung row must not hang Close
				var units atomic.Int64
				body := row.body(rt, &units)
				want := int64(regions * n * row.per)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for r := 0; r < regions; r++ {
						rt.Parallel(body)
					}
				}()
				select {
				case <-done:
				case <-time.After(time.Minute):
					t.Fatalf("%d threads: stuck at %d of %d units — a lost wakeup", n, units.Load(), want)
				}
				rt.Close()
				if got := units.Load(); got != want {
					t.Errorf("%d threads: %d units, want %d", n, got, want)
				}
				s := rt.Stats()
				if s.Sleeps != s.Wakeups {
					t.Errorf("%d threads, after Close: Sleeps %d != Wakeups %d", n, s.Sleeps, s.Wakeups)
				}
				if row.parked != nil {
					parked += row.parked(rt)
				} else {
					parked += s.Sleeps
				}
			}
			if parked == 0 {
				t.Error("nothing parked at KMP_BLOCKTIME=0: the park path went untested")
			}
		})
	}
}
