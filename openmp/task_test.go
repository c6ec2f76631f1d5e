package openmp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func taskOpts(n int) Options {
	o := DefaultOptions()
	o.NumThreads = n
	o.BlocktimeMS = 0
	return o
}

// producerRegion runs one region in which thread 0 alone spawns n tasks
// running body and then waits for them, arranged so that a steal is certain
// rather than likely. The other threads are held in the region body until
// the tasks are queued: the end-of-region barrier is not a task scheduling
// point, so a thread that found nothing pending and went on to it would
// never come back for them. The producer in turn leaves its own deque alone
// until a task has started on another thread. It returns how often thread 0
// slept and was woken inside its TaskWait.
func producerRegion(t *testing.T, rt *Runtime, n int, body func(*Thread)) (sleeps, wakeups uint64) {
	t.Helper()
	var queued, onThief atomic.Bool
	rt.Parallel(func(th *Thread) {
		if th.ID() != 0 {
			for !queued.Load() {
				runtime.Gosched()
			}
			return
		}
		for i := 0; i < n; i++ {
			th.Task(func(c *Thread) {
				if c.ID() != 0 {
					onThief.Store(true)
				}
				body(c)
			})
		}
		queued.Store(true)
		// A victim scan that cannot see thread 0's deque fails here instead
		// of hanging the test binary.
		for deadline := time.Now().Add(30 * time.Second); !onThief.Load(); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Error("no other thread started a queued task within 30s")
				break
			}
		}
		s, w := th.stats.sleeps.Load(), th.stats.wakeups.Load()
		th.TaskWait()
		sleeps, wakeups = th.stats.sleeps.Load()-s, th.stats.wakeups.Load()-w
	})
	return sleeps, wakeups
}

// checkStealInvariants asserts the Stats steal invariants on a delta taken
// at region quiescence.
func checkStealInvariants(t *testing.T, d Stats, classified bool) {
	t.Helper()
	if d.StealBatches > d.TasksStolen || d.TasksStolen > d.TasksRun {
		t.Errorf("want StealBatches <= TasksStolen <= TasksRun, got %d, %d, %d",
			d.StealBatches, d.TasksStolen, d.TasksRun)
	}
	want := uint64(0) // unclassified steals land in neither class
	if classified {
		want = d.TasksStolen
	}
	if d.StealsLocal+d.StealsRemote != want {
		t.Errorf("locality split %d local + %d remote, want a total of %d (of %d stolen)",
			d.StealsLocal, d.StealsRemote, want, d.TasksStolen)
	}
}

func TestTasksAllExecuteBeforeRegionEnds(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			for i := 0; i < 100; i++ {
				th.Task(func(*Thread) { ran.Add(1) })
			}
		})
	})
	if got := ran.Load(); got != 100 {
		t.Errorf("ran = %d tasks, want 100", got)
	}
	if got := rt.Stats().TasksRun; got != 100 {
		t.Errorf("Stats().TasksRun = %d, want 100", got)
	}
}

func TestTaskWaitBlocksOnChildren(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	var before, after atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			for i := 0; i < 20; i++ {
				th.Task(func(*Thread) { before.Add(1) })
			}
			th.TaskWait()
			if got := before.Load(); got != 20 {
				t.Errorf("TaskWait returned with %d/20 children done", got)
			}
			after.Add(1)
		})
	})
	if after.Load() != 1 {
		t.Error("single body did not complete")
	}
}

func TestTaskWaitOnlyWaitsDirectChildren(t *testing.T) {
	// A child task spawns a grandchild; TaskWait on the parent must not
	// require the grandchild to have finished, but region end must.
	rt := testRuntime(t, taskOpts(2))
	var grandchildRan atomic.Bool
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.Task(func(inner *Thread) {
				inner.Task(func(*Thread) { grandchildRan.Store(true) })
			})
			th.TaskWait()
		})
	})
	if !grandchildRan.Load() {
		t.Error("grandchild task never ran before region end")
	}
}

// TestTopLevelTaskWaitIgnoresTeammatesTasks: each thread runs its own
// implicit task, so a TaskWait outside any explicit task waits for the
// calling thread's children only. Thread 0 spawns a task that blocks until
// thread 1's TaskWait returns; thread 1 has no children, so its TaskWait must
// return at once. Were the implicit task shared by the team, the two would
// wait on each other: the task gives up after a timeout and releases the
// region, so the test fails instead of hanging.
func TestTopLevelTaskWaitIgnoresTeammatesTasks(t *testing.T) {
	rt := testRuntime(t, taskOpts(2))
	var spawned, timedOut atomic.Bool
	returned := make(chan struct{})
	rt.Parallel(func(th *Thread) {
		switch th.ID() {
		case 0:
			th.Task(func(*Thread) {
				select {
				case <-returned:
				case <-time.After(10 * time.Second):
					timedOut.Store(true)
				}
			})
			spawned.Store(true)
		case 1:
			for !spawned.Load() {
				runtime.Gosched()
			}
			th.TaskWait()
			close(returned)
		}
	})
	if timedOut.Load() {
		t.Fatal("thread 1's TaskWait, with no children of its own, waited for thread 0's task")
	}
}

func TestNestedTaskWait(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	var sum atomic.Int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() {
			th.Task(func(a *Thread) {
				a.Task(func(*Thread) { sum.Add(1) })
				a.Task(func(*Thread) { sum.Add(2) })
				a.TaskWait()
				if got := sum.Load(); got != 3 {
					t.Errorf("inner TaskWait returned with sum=%d, want 3", got)
				}
				sum.Add(4)
			})
			th.TaskWait()
			if got := sum.Load(); got != 7 {
				t.Errorf("outer TaskWait returned with sum=%d, want 7", got)
			}
		})
	})
}

func TestRecursiveFibonacciTasks(t *testing.T) {
	// The canonical BOTS-style recursive task pattern.
	rt := testRuntime(t, taskOpts(4))
	var fib func(th *Thread, n int) int64
	fib = func(th *Thread, n int) int64 {
		if n < 2 {
			return int64(n)
		}
		var a, b int64
		th.Task(func(inner *Thread) { a = fib(inner, n-1) })
		b = fib(th, n-2)
		th.TaskWait()
		return a + b
	}
	var got int64
	rt.Parallel(func(th *Thread) {
		th.Single(func() { got = fib(th, 15) })
	})
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestTaskStealingHappensAcrossThreads(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		// Only thread 0 produces; the others must steal to make progress.
		th.Master(func() {
			for i := 0; i < 64; i++ {
				th.Task(func(*Thread) { ran.Add(1) })
			}
		})
	})
	if got := ran.Load(); got != 64 {
		t.Errorf("ran = %d, want 64", got)
	}
	// Whether any steal happens here is up to the scheduler (the producer
	// may drain its own deque first); that the counters obey their
	// invariants is not.
	checkStealInvariants(t, rt.Stats(), false)
}

// TestEndBarrierIsNotATaskSchedulingPoint pins a stated deviation from the
// spec (DESIGN.md "One wait"): a thread that reached the end-of-region barrier
// with nothing pending — spinning or parked there — does not come back for
// tasks a teammate pushes afterwards, so those run on their producer alone.
// TasksRun stays exact either way.
func TestEndBarrierIsNotATaskSchedulingPoint(t *testing.T) {
	for _, lib := range []LibraryMode{LibThroughput, LibTurnaround} {
		o := taskOpts(2)
		o.Library = lib
		rt := testRuntime(t, o)
		const tasks = 50
		var elsewhere atomic.Int32
		before := rt.Stats()
		rt.Parallel(func(th *Thread) {
			if th.ID() != 0 {
				return // straight to the end barrier
			}
			for th.team.bar.count.Load() != 1 {
				runtime.Gosched() // until thread 1 has arrived
			}
			for i := 0; i < tasks; i++ {
				th.Task(func(c *Thread) {
					if c.ID() != 0 {
						elsewhere.Add(1)
					}
				})
			}
		})
		d := rt.Stats().Sub(before)
		if n := elsewhere.Load(); n != 0 {
			t.Errorf("%s: %d tasks ran on the thread waiting at the end barrier, want 0", lib, n)
		}
		if d.TasksRun != tasks || d.TasksStolen != 0 {
			t.Errorf("%s: TasksRun %d, TasksStolen %d, want %d and 0", lib, d.TasksRun, d.TasksStolen, tasks)
		}
	}
}

func TestTasksFromAllThreads(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		for i := 0; i < 25; i++ {
			th.Task(func(*Thread) { ran.Add(1) })
		}
	})
	if got := ran.Load(); got != 100 {
		t.Errorf("ran = %d, want 100", got)
	}
}

func TestTaskSpawningInsideLoop(t *testing.T) {
	rt := testRuntime(t, taskOpts(3))
	const n = 60
	hits := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.ForNowait(n, func(i int) {
			th.Task(func(*Thread) { atomic.AddInt32(&hits[i], 1) })
		})
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task for iter %d ran %d times, want 1", i, h)
		}
	}
}

// A team's threads keep every task descriptor they ever needed on their free
// lists, so its size class is what a task-heavy region holds in the heap.
func TestTaskFitsThe24ByteClass(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got > 24 {
		t.Errorf("task is %d bytes, want at most 24", got)
	}
}

// A team's Threads sit side by side in one array: each must span exactly two
// cache lines, the first holding what teammates read, the second what the
// thread itself writes region after region.
func TestThreadIsTwoCacheLines(t *testing.T) {
	var th Thread
	if got := unsafe.Sizeof(th); got != 2*cacheLineSize {
		t.Errorf("Thread is %d bytes, want %d", got, 2*cacheLineSize)
	}
	if got := unsafe.Offsetof(th.regionID); got != cacheLineSize {
		t.Errorf("Thread's mutable fields start at byte %d, want %d", got, cacheLineSize)
	}
}

func TestDequeOrdering(t *testing.T) {
	var d taskDeque
	t1, t2, t3 := &task{}, &task{}, &task{}
	d.push(t1)
	d.push(t2)
	d.push(t3)
	if got := d.popBack(); got != t3 {
		t.Error("popBack should return newest")
	}
	if got := d.stealOne(); got != t1 {
		t.Error("stealOne should return oldest")
	}
	if got := d.popBack(); got != t2 {
		t.Error("popBack should return remaining")
	}
	if d.popBack() != nil || d.stealOne() != nil {
		t.Error("empty deque should return nil")
	}
}

// TestDequeWrapPreservesOrder fills the ring, steals part of it and refills
// it past the end of the slot array, several revolutions over: thieves still
// see FIFO order and the owner LIFO order across the wrap.
func TestDequeWrapPreservesOrder(t *testing.T) {
	var d taskDeque
	tasks := make([]task, 5*dequeCap)
	next, oldest := 0, 0
	for rev := 0; rev < 4; rev++ {
		for d.size() < dequeCap {
			d.push(&tasks[next])
			next++
		}
		for i := 0; i < dequeCap/2; i++ { // FIFO from the top
			if got := d.stealOne(); got != &tasks[oldest] {
				t.Fatalf("revolution %d: stealOne #%d returned the wrong task", rev, i)
			}
			oldest++
		}
	}
	for i := next - 1; i >= oldest; i-- { // LIFO from the bottom
		if got := d.popBack(); got != &tasks[i] {
			t.Fatalf("popBack for task %d returned the wrong task", i)
		}
	}
	if d.popBack() != nil || d.stealOne() != nil {
		t.Error("deque should be empty")
	}
}

func TestDequeBatchStealTakesHalf(t *testing.T) {
	var victim, own taskDeque
	for i := 0; i < 10; i++ {
		victim.push(&task{})
	}
	first, n, _ := victim.stealBatch(&own)
	if first == nil || n != 5 {
		t.Fatalf("stealBatch took %d of 10, want half (5)", n)
	}
	// first is returned directly; the surplus must sit on the thief's deque.
	got := 0
	for own.popBack() != nil {
		got++
	}
	if got != n-1 {
		t.Errorf("thief deque holds %d tasks, want %d", got, n-1)
	}
	left := 0
	for victim.stealOne() != nil {
		left++
	}
	if left != 5 {
		t.Errorf("victim retains %d tasks, want 5", left)
	}
}

func TestDequeBatchStealCapped(t *testing.T) {
	var victim, own taskDeque
	for i := 0; i < dequeCap; i++ {
		victim.push(&task{})
	}
	if _, n, _ := victim.stealBatch(&own); n != maxStealBatch {
		t.Errorf("stealBatch took %d, want cap %d", n, maxStealBatch)
	}
}

// TestStealScanCoversAllVictims is the regression test for a blind spot in
// the steal scan: the old loop offset the victim window by id+stealAt and
// skipped self mid-window, so for some stealAt rotations one deque was
// never tried — after a few successful steals a thread could go
// permanently blind to the only loaded deque, and single-producer regions
// stopped stealing entirely after the first region. The fixed scan visits
// every other deque from any rotation, so steals must keep happening in
// later regions, not just the first. Each region forces its steal
// (producerRegion), so a blind scan shows as a failure, not as bad luck.
func TestStealScanCoversAllVictims(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	const tasks = 200
	prev := rt.Stats()
	for region := 0; region < 3; region++ {
		producerRegion(t, rt, tasks, func(*Thread) {})
		cur := rt.Stats()
		d := cur.Sub(prev)
		prev = cur
		if d.TasksRun != tasks {
			t.Fatalf("region %d: ran %d tasks, want %d", region, d.TasksRun, tasks)
		}
		if d.TasksStolen == 0 {
			t.Errorf("region %d: no steals — victim scan went blind", region)
		}
		checkStealInvariants(t, d, false)
	}
}

// TestTaskReturnsBeforeItsChildren exercises the descriptor lifetime rule:
// roots spawn children and children spawn grandchildren, none of them
// waiting, so a task completes while its children are still queued and its
// descriptor must outlive its body until the last child releases it. Over
// many regions, with descriptors recycled throughout, every body runs
// exactly once, and newTask never hands out a descriptor whose refs is not
// zero (it panics if it would).
func TestTaskReturnsBeforeItsChildren(t *testing.T) {
	const roots, fan, regions = 4, 4, 30
	for _, n := range []int{1, 2, 4} {
		rt := testRuntime(t, taskOpts(n))
		for r := 0; r < regions; r++ {
			var hits [roots][fan][fan + 1]atomic.Int32
			var early atomic.Int32 // roots that returned with children queued
			rt.Parallel(func(th *Thread) {
				th.Single(func() {
					for i := range hits {
						th.Task(func(c *Thread) {
							for j := range hits[i] {
								c.Task(func(g *Thread) {
									hits[i][j][fan].Add(1)
									for k := 0; k < fan; k++ {
										g.Task(func(*Thread) { hits[i][j][k].Add(1) })
									}
								})
							}
							if c.curTask.refs.Load() > 1 {
								early.Add(1)
							}
						})
					}
				})
			})
			for i := range hits {
				for j := range hits[i] {
					for k := range hits[i][j] {
						if got := hits[i][j][k].Load(); got != 1 {
							t.Fatalf("%d threads, region %d: body %d/%d/%d ran %d times, want 1", n, r, i, j, k, got)
						}
					}
				}
			}
			// On one thread nothing else can run a queued child.
			if n == 1 && early.Load() != roots {
				t.Fatalf("region %d: %d of %d roots returned with queued children", r, early.Load(), roots)
			}
		}
		if got, want := rt.Stats().TasksRun, uint64(regions*roots*(1+fan+fan*fan)); got != want {
			t.Errorf("%d threads: TasksRun %d, want %d", n, got, want)
		}
	}
}

// TestTaskDescriptorsReturnAcrossThreads: a producer that queues its tasks
// and is then held while its teammate runs every one of them gets its
// descriptors back on its returned stack, so its next region allocates
// nothing.
func TestTaskDescriptorsReturnAcrossThreads(t *testing.T) {
	const n = dequeCap / 2
	rt := testRuntime(t, taskOpts(2))
	var queued atomic.Bool
	var ran, elsewhere atomic.Int32
	fn := func(c *Thread) {
		if c.ID() != 0 {
			elsewhere.Add(1)
		}
		ran.Add(1)
	}
	body := func(th *Thread) {
		if th.ID() != 0 {
			for !queued.Load() {
				runtime.Gosched()
			}
			return // to drainTasks, which steals every task
		}
		for i := 0; i < n; i++ {
			th.Task(fn)
		}
		queued.Store(true)
		for ran.Load() < n {
			runtime.Gosched()
		}
		ran.Store(0)
		queued.Store(false)
	}
	rt.Parallel(body)
	if allocs := testing.AllocsPerRun(10, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("producer region after a cross-thread return allocates %.1f, want 0", allocs)
	}
	if got, want := elsewhere.Load(), int32(12*n); got != want {
		t.Errorf("%d tasks ran on the producer's teammate, want all %d", got, want)
	}
}

// TestTaskThrottleRunsOverflowInline: a spawn that finds its own deque full
// runs the task at once. With no thief (a one-thread team, or a two-thread
// team whose other thread is held until the spawn loop ends), exactly the
// tasks past the first dequeCap run inside their Task call; the counters stay
// exact and their invariants hold at Close.
func TestTaskThrottleRunsOverflowInline(t *testing.T) {
	const n = 10 * dequeCap
	for _, w := range []int{1, 2} {
		rt := testRuntime(t, taskOpts(w))
		var spawned atomic.Bool
		var ran, inline atomic.Int32
		fn := func(*Thread) {
			if !spawned.Load() {
				inline.Add(1)
			}
			ran.Add(1)
		}
		before := rt.Stats()
		rt.Parallel(func(th *Thread) {
			if th.ID() != 0 {
				for !spawned.Load() {
					runtime.Gosched()
				}
				return
			}
			for i := 0; i < n; i++ {
				th.Task(fn)
			}
			spawned.Store(true)
		})
		rt.Close() // the exact-snapshot point: workers are parked between regions
		d := rt.Stats().Sub(before)
		if got := inline.Load(); got != n-dequeCap {
			t.Errorf("%d threads: %d tasks ran inside Task, want %d", w, got, n-dequeCap)
		}
		if ran.Load() != n || d.TasksRun != n {
			t.Errorf("%d threads: %d bodies ran, TasksRun %d, want %d", w, ran.Load(), d.TasksRun, n)
		}
		checkStealInvariants(t, d, false)
		if d.Sleeps != d.Wakeups {
			t.Errorf("%d threads: %d sleeps, %d wakeups", w, d.Sleeps, d.Wakeups)
		}
	}
}
