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
		}, parked: func(rt *Runtime) uint64 { return rt.stats.misc().sleeps.Load() }},
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

func TestNestLockReentrancy(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	nl := rt.NewNestLock()
	rt.Parallel(func(th *Thread) {
		if d := nl.Lock(th); d != 1 {
			t.Errorf("first Lock depth = %d, want 1", d)
		}
		if d := nl.Lock(th); d != 2 {
			t.Errorf("nested Lock depth = %d, want 2", d)
		}
		if d := nl.Unlock(th); d != 1 {
			t.Errorf("first Unlock depth = %d, want 1", d)
		}
		if d := nl.Unlock(th); d != 0 {
			t.Errorf("final Unlock depth = %d, want 0", d)
		}
	})
}

func TestNestLockCrossThreadExclusion(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	nl := rt.NewNestLock()
	counter := 0
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 100; i++ {
			nl.Lock(th)
			nl.Lock(th) // nested
			counter++
			nl.Unlock(th)
			nl.Unlock(th)
		}
	})
	if counter != 400 {
		t.Errorf("counter = %d, want 400", counter)
	}
}

func TestSectionsEachRunsOnce(t *testing.T) {
	rt := testRuntime(t, optsN(3))
	var counts [5]atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Sections(
			func() { counts[0].Add(1) },
			func() { counts[1].Add(1) },
			func() { counts[2].Add(1) },
			func() { counts[3].Add(1) },
			func() { counts[4].Add(1) },
		)
		// Implicit barrier: all sections done when any thread proceeds.
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Errorf("after Sections, section %d ran %d times", i, counts[i].Load())
			}
		}
	})
}

func TestSectionsEmptyAndRepeated(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Sections()
		th.Sections(func() { ran.Add(1) })
		th.Sections(func() { ran.Add(1) }, func() { ran.Add(1) })
	})
	if got := ran.Load(); got != 3 {
		t.Errorf("ran = %d, want 3", got)
	}
}

func TestTaskGroupWaitsForDescendants(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	var done atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.TaskGroup(func(g *Thread) {
				for i := 0; i < 5; i++ {
					g.Task(func(child *Thread) {
						child.Task(func(*Thread) { done.Add(1) }) // grandchild
						done.Add(1)
					})
				}
			})
			// Unlike TaskWait, TaskGroup awaits grandchildren too.
			if got := done.Load(); got != 10 {
				t.Errorf("TaskGroup returned with %d/10 descendants done", got)
			}
		})
	})
}

func TestTaskGroupNested(t *testing.T) {
	rt := testRuntime(t, optsN(3))
	var inner, outer atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.TaskGroup(func(g *Thread) {
				g.Task(func(t1 *Thread) {
					t1.TaskGroup(func(g2 *Thread) {
						g2.Task(func(*Thread) { inner.Add(1) })
					})
					if inner.Load() != 1 {
						t.Error("inner TaskGroup returned early")
					}
					outer.Add(1)
				})
			})
		})
	})
	if outer.Load() != 1 || inner.Load() != 1 {
		t.Errorf("outer=%d inner=%d, want 1 1", outer.Load(), inner.Load())
	}
}

func TestTaskLoopCoversRange(t *testing.T) {
	rt := testRuntime(t, optsN(4))
	const n = 1000
	hits := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.TaskLoop(n, 0, func(i int) { atomic.AddInt32(&hits[i], 1) })
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d ran %d times", i, h)
		}
	}
}

func TestTaskLoopExplicitGrainAndEdgeCases(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.TaskLoop(0, 4, func(i int) { ran.Add(1) })   // empty
			th.TaskLoop(3, 100, func(i int) { ran.Add(1) }) // more tasks than iters
			th.TaskLoop(10, 2, func(i int) { ran.Add(1) })  // explicit num_tasks
		})
	})
	if got := ran.Load(); got != 13 {
		t.Errorf("ran = %d, want 13", got)
	}
}

func TestFor2DCoversSpace(t *testing.T) {
	rt := testRuntime(t, optsN(3))
	const n, m = 20, 30
	var hits [n][m]int32
	rt.Parallel(func(th *Thread) {
		th.For2D(n, m, func(i, j int) { atomic.AddInt32(&hits[i][j], 1) })
	})
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if hits[i][j] != 1 {
				t.Fatalf("(%d,%d) ran %d times", i, j, hits[i][j])
			}
		}
	}
}
