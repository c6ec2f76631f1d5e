package openmp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDequeStressEveryTaskClaimedOnce races the owner's push/popBack path
// against concurrent half-batch thieves on a raw deque and checks the core
// Chase–Lev invariant: every task is claimed exactly once — no losses, no
// double executions. Each claimant bumps the task's refs counter (free for
// this purpose outside the scheduler); run under -race this also exercises
// the slot/index memory-order protocol. The producer keeps the deque's
// bounded contract as Task does: a task that finds the ring full is claimed
// by the producer itself instead of pushed, so the ring wraps under
// contention while full.
func TestDequeStressEveryTaskClaimedOnce(t *testing.T) {
	const total = 100_000
	const thieves = 4
	var victim taskDeque
	tasks := make([]task, total)

	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(own *taskDeque) {
			defer wg.Done()
			for {
				first, _, _ := victim.stealBatch(own)
				if first != nil {
					first.refs.Add(1)
					// The thief owns its deque: drain the batch surplus.
					for x := own.popBack(); x != nil; x = own.popBack() {
						x.refs.Add(1)
					}
					continue
				}
				if done.Load() {
					return
				}
				runtime.Gosched()
			}
		}(new(taskDeque))
	}

	for i := range tasks {
		if victim.size() >= dequeCap {
			tasks[i].refs.Add(1) // full: run it at once
			continue
		}
		victim.push(&tasks[i])
		if i%3 == 0 {
			if x := victim.popBack(); x != nil {
				x.refs.Add(1)
			}
		}
	}
	for x := victim.popBack(); x != nil; x = victim.popBack() {
		x.refs.Add(1)
	}
	done.Store(true)
	wg.Wait()

	for i := range tasks {
		if n := tasks[i].refs.Load(); n != 1 {
			t.Fatalf("task %d claimed %d times, want exactly 1", i, n)
		}
	}
}

// TestDequeOwnerPathZeroAllocs pins the lock-free owner fast path at zero
// allocations per operation: push and popBack touch only the deque's fixed
// slots, here over a full ring's cycle.
func TestDequeOwnerPathZeroAllocs(t *testing.T) {
	var d taskDeque
	tk := &task{}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < dequeCap; i++ {
			d.push(tk)
		}
		for i := 0; i < dequeCap; i++ {
			d.popBack()
		}
	})
	if allocs != 0 {
		t.Errorf("owner push/popBack path allocates %.1f per cycle, want 0", allocs)
	}
}

// TestTaskSpawnSteadyStateAllocs: a long spawn/steal region on a warm team
// allocates nothing. The deque reuses its fixed slots, and every completed
// descriptor returns to its spawner's free lists, whichever thread ran it.
func TestTaskSpawnSteadyStateAllocs(t *testing.T) {
	const spawns = 512
	rt := testRuntime(t, taskOpts(4))
	var ran atomic.Int64
	body := func(*Thread) { ran.Add(1) }
	spawn := func(th *Thread) {
		th.Master(func() {
			for i := 0; i < spawns; i++ {
				th.Task(body)
			}
		})
	}
	region := func() { rt.Parallel(spawn) }
	for i := 0; i < 10; i++ {
		region() // fill the free lists
	}
	if allocs := testing.AllocsPerRun(10, region); allocs != 0 {
		t.Errorf("spawn/steal region allocates %.0f, want 0", allocs)
	}
	if ran.Load() == 0 {
		t.Fatal("tasks never ran")
	}
}

// TestTaskWaitParksUnderThroughputPolicy is the regression test for the
// TaskWait/drainTasks busy-spin: under the passive wait policy (blocktime
// 0) a thread whose child is executing elsewhere must park — counted in
// Stats.Sleeps — and be woken by the task's completion, not burn the CPU in
// a Gosched loop. producerRegion keeps the child out of the waiter's own
// popBack until the other thread has stolen and started it, so TaskWait
// finds no local work and its only options are spinning or parking.
func TestTaskWaitParksUnderThroughputPolicy(t *testing.T) {
	rt := testRuntime(t, taskOpts(2))
	sleeps, wakeups := producerRegion(t, rt, 1, func(*Thread) { time.Sleep(20 * time.Millisecond) })
	if sleeps == 0 {
		t.Error("TaskWait with blocktime 0 never parked — busy-wait regression")
	}
	if wakeups == 0 {
		t.Error("parked TaskWait was never woken by the task's completion")
	}
}

// TestTurnaroundTaskWaitNeverSleeps: the spin-forever policy must apply to
// task waits exactly as it does to barriers — turnaround mode pays cycles,
// never syscalls.
func TestTurnaroundTaskWaitNeverSleeps(t *testing.T) {
	o := taskOpts(2)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	producerRegion(t, rt, 1, func(*Thread) { time.Sleep(5 * time.Millisecond) })
	if s := rt.Stats(); s.Sleeps != 0 {
		t.Errorf("turnaround mode slept %d times in task waits", s.Sleeps)
	}
}

// fourPlaceOpts builds a 4-thread runtime bound over 4 places forming two
// NUMA pairs: places {0,1} are near each other, {2,3} are near each other,
// and the pairs are far apart.
func fourPlaceOpts() Options {
	o := taskOpts(4)
	o.Places = []PlaceSpec{
		{Cores: []int{0}}, {Cores: []int{1}}, {Cores: []int{2}}, {Cores: []int{3}},
	}
	o.Bind = BindSpread
	o.PlaceDistances = [][]float64{
		{10, 10, 40, 40},
		{10, 10, 40, 40},
		{40, 40, 10, 10},
		{40, 40, 10, 10},
	}
	return o
}

// TestStealOrderPrefersNearPlaces checks the victim-order seam end to end
// on synthetic distances: every thread's scan order must be non-decreasing
// in distance from its own place, cover every other thread exactly once,
// and put all NUMA-local victims ahead of every remote one.
func TestStealOrderPrefersNearPlaces(t *testing.T) {
	rt := testRuntime(t, fourPlaceOpts())
	order := rt.StealOrder()
	if order == nil {
		t.Fatal("StealOrder is nil despite placement and distances")
	}
	placement := rt.Placement()
	pd := rt.opts.PlaceDistances
	for i, row := range order {
		if len(row) != rt.NumThreads()-1 {
			t.Fatalf("thread %d scan order has %d victims, want %d", i, len(row), rt.NumThreads()-1)
		}
		seen := map[int]bool{i: true}
		prev := -1.0
		for _, v := range row {
			if seen[v] {
				t.Fatalf("thread %d scan order repeats victim %d (or includes self)", i, v)
			}
			seen[v] = true
			dist := pd[placement[i]][placement[v]]
			if dist < prev {
				t.Errorf("thread %d: victim %d at distance %v after distance %v", i, v, dist, prev)
			}
			prev = dist
		}
	}
}

// TestStealOrderNilWithoutDistances: without a distance model the runtime
// must fall back to the rotating scan (nil order), not invent an ordering.
func TestStealOrderNilWithoutDistances(t *testing.T) {
	rt := testRuntime(t, taskOpts(4))
	if rt.StealOrder() != nil {
		t.Error("StealOrder non-nil without PlaceDistances")
	}
}

// TestStealLocalityCountersSum: with a distance model every stolen task is
// classified, so the locality split must account for exactly TasksStolen;
// and with four threads over a deep single-producer deque, batch surplus is
// re-stolen freely, which must not push TasksStolen past TasksRun.
func TestStealLocalityCountersSum(t *testing.T) {
	rt := testRuntime(t, fourPlaceOpts())
	spin := func(*Thread) {
		for i := 0; i < 2000; i++ {
			_ = i * i
		}
	}
	for region := 0; region < 3; region++ {
		producerRegion(t, rt, 2000, spin)
	}
	st := rt.Stats()
	if st.TasksStolen == 0 || st.StealBatches == 0 {
		t.Errorf("forced steals not counted: %d stolen in %d batches", st.TasksStolen, st.StealBatches)
	}
	checkStealInvariants(t, st, true)
}
