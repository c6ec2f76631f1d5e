package openmp

import (
	"runtime"
	"sync/atomic"
)

// task is one explicit task descriptor, 24 bytes, allocated a slab at a
// time and recycled through its owner's free lists (Thread.newTask), so a
// steady-state spawn allocates nothing.
//
// Lifetime rule: refs counts the task's incomplete children plus one for the
// task itself until it completes. TaskWait waits for refs <= 1. A completing
// task drops its parent's reference first and then its own, and never touches
// parent after that decrement: the parent may complete and be recycled the
// moment its count falls. Whoever takes refs to 0 recycles the descriptor. An
// implicit task's refs is set to 1 when its team is built and that reference
// is never released, so an implicit task is never recycled. Descriptors never
// outlive their region: drainTasks runs every task before the end barrier.
type task struct {
	// fn is the body; cleared on release, so a free descriptor keeps no
	// closure alive.
	fn func(*Thread)
	// parent is the spawning task while the task is live, and the next
	// descriptor while it is on a free list.
	parent *task
	refs   atomic.Int32
	// owner is the spawner's index in its team, whose free lists the
	// descriptor returns to (tasks never leave their team). Its top bit
	// (taskStolen) is set by the first thief to claim the task, so a steal
	// counts once however often batch surplus moves on (Stats.TasksStolen).
	// Plain: only the thread holding the task touches the bit, hand-overs go
	// through the deque's atomic slot and index words, and newTask clears it.
	owner uint32
}

const taskStolen = 1 << 31

// taskPool is the team's work-stealing task scheduler: one Chase–Lev deque
// per thread, LIFO for the owner (depth-first, cache-friendly) and FIFO for
// thieves (steals the oldest, largest-granularity work, in half-batches).
// Idle threads waiting for task activity spin and park like every other wait
// (taskWaitLoop); a push or a completion unparks the team's task waiters.
type taskPool struct {
	deques  []taskDeque
	pending atomic.Int64
}

// anyQueued reports whether any deque currently holds a stealable task.
// Idle task waiters poll it (taskWaitLoop); a transiently negative size
// during an owner's popBack reads as empty, which is correct — that element
// is taken.
func (p *taskPool) anyQueued() bool {
	for i := range p.deques {
		if p.deques[i].size() > 0 {
			return true
		}
	}
	return false
}

// dequeCap is each per-thread deque's fixed ring capacity, a power of two.
// A spawn that finds its own deque full runs the task at once (Thread.Task,
// libomp's task throttling), so a deque never grows.
const dequeCap = 64

// maxStealBatch bounds how many tasks one steal visit may transfer,
// keeping a thief's time-to-first-execution bounded on very deep deques.
const maxStealBatch = 32

// A steal's surplus (at most maxStealBatch-1 tasks) lands on the thief's own
// deque, which it found empty: it must fit (see stealBatch).
const _ = uint(dequeCap - maxStealBatch - 1)

// taskDeque is a Chase–Lev work-stealing deque (Chase & Lev, SPAA'05, in
// the formulation of Lê et al., PPoPP'13): a fixed circular array of dequeCap
// slots with two indexes. The owner pushes and pops at bottom; thieves claim
// at top with a CAS. The owner path is lock-free and allocation-free: push is
// a load and two stores, popBack needs a CAS only when racing a thief for
// the last element.
//
// Logical index i lives in slots[i&(dequeCap-1)]; the indexes themselves grow
// without bound. Slots are atomic because a thief's read of slot top races
// the owner's store of a new task into the same physical slot one revolution
// later. The owner writes index t+dequeCap only after reading top > t (push's
// precondition), so in exactly the interleavings where that race occurs the
// thief's subsequent CAS on top from t fails and the stale value is
// discarded.
//
// The hot words live on separate cache lines: bottom is written by the
// owner on every push/pop, top by thieves on every steal.
type taskDeque struct {
	_      [cacheLineSize]byte
	bottom atomic.Int64
	_      [cacheLineSize - 8]byte
	top    atomic.Int64
	_      [cacheLineSize - 8]byte
	slots  [dequeCap]atomic.Pointer[task]
}

// size is the number of queued tasks as of its two loads.
func (d *taskDeque) size() int64 { return d.bottom.Load() - d.top.Load() }

func (d *taskDeque) slot(i int64) *atomic.Pointer[task] { return &d.slots[i&(dequeCap-1)] }

// push appends t at the bottom (owner side). Owner-only, and only while the
// deque holds fewer than dequeCap tasks: thieves only ever shrink it, so a
// size the owner read below the capacity stays below it.
func (d *taskDeque) push(t *task) {
	b := d.bottom.Load()
	d.slot(b).Store(t)
	// The seq-cst store publishes the slot write to thieves.
	d.bottom.Store(b + 1)
}

// popBack removes the newest task (owner side). Owner-only. The only
// synchronization on the fast path is the bottom store/top load pair; a CAS
// on top is needed only when the popped element is the last one, where a
// concurrent thief may be claiming it.
func (d *taskDeque) popBack() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b) // reserve index b; thieves now see size <= b-top
	t := d.top.Load()
	if t > b {
		// Empty (or a thief claimed the last element first): undo.
		d.bottom.Store(b + 1)
		return nil
	}
	x := d.slot(b).Load()
	if t == b {
		// Last element: race thieves for it with one CAS on top.
		if !d.top.CompareAndSwap(t, t+1) {
			x = nil
		}
		d.bottom.Store(b + 1)
	}
	if x != nil {
		// Release the claimed slot to the GC. Safe only for the owner: once
		// index b is claimed here, no thief can observe a positive size that
		// includes it (see the steal ordering below), and the owner's own
		// future pushes to this physical slot are program-ordered after this
		// store. Thieves must NOT clear claimed slots — after a successful
		// steal the owner may immediately reuse the physical slot for a new
		// push, which a late thief-side clear would destroy.
		d.slot(b).Store(nil)
	}
	return x
}

// stealOne claims the oldest task (thief side) with one CAS on top. A nil
// result means the caller should give up on this victim for now: the deque
// was empty, or another claimant (thief or owner-on-last-element) won the
// CAS race.
//
// The load order is what makes the unsynchronized slot read sound: top is
// read before bottom (both seq-cst), so if a positive size is observed, the
// owner cannot have reserved index top without this thief's CAS failing —
// the owner's bottom store precedes its top load, which would force a later
// thief bottom read to see the reservation.
func (d *taskDeque) stealOne() *task {
	t := d.top.Load()
	b := d.bottom.Load()
	if b-t <= 0 {
		return nil
	}
	x := d.slot(t).Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return x
}

// stealBatch transfers up to half of the victim's observed work to the
// thief in one visit: the first claimed task is returned for immediate
// execution and the rest are pushed onto own (the thief's deque, whose
// owner the caller must be). Taking half per visit empties a loaded victim
// in O(log size) visits instead of one task per scan, and the transferred
// tasks become stealable from the thief in turn, diffusing load through
// the team. The surplus fits: the caller found own empty (runOneTask steals
// only after its popBack came back empty, and only the owner pushes), so own
// holds at most maxStealBatch-1 < dequeCap tasks afterwards.
//
// Each task in the batch is claimed by its own CAS on top. A single CAS
// claiming a [top, top+k) range would be unsound against the owner's
// protocol: the owner takes index bottom-1 without any CAS whenever its top
// read says more than one element remains, so a range claim computed from a
// stale bottom could overlap elements the owner is already running. The
// per-element CAS chain keeps the standard Chase–Lev ownership proof intact
// while still amortizing victim selection over the whole batch.
//
// n is how many tasks moved; fresh how many of them had never been stolen
// before — each now marked, so a later thief of the surplus does not recount.
func (d *taskDeque) stealBatch(own *taskDeque) (first *task, n, fresh int) {
	size := d.size()
	if size <= 0 {
		return nil, 0, 0
	}
	want := min((size+1)/2, maxStealBatch)
	for int64(n) < want {
		x := d.stealOne()
		if x == nil {
			break
		}
		if x.owner&taskStolen == 0 {
			x.owner |= taskStolen
			fresh++
		}
		if first == nil {
			first = x
		} else {
			own.push(x)
		}
		n++
	}
	return first, n, fresh
}

// Task spawns an explicit task executing fn. The task becomes a child of
// the thread's current task (the implicit region task at the top level), is
// queued on the spawning thread's deque, and may be executed by any team
// thread. Queued tasks run in TaskWait and in the drain before the
// end-of-region barrier; a barrier itself is not a task scheduling point — a
// thread already waiting at one does not come back for tasks pushed later (a
// deviation from the spec, DESIGN.md "One wait"). A spawn that finds its own
// deque full (dequeCap tasks) runs the task at once instead, as libomp's
// task throttling does, so queued work is bounded and the descriptor free
// lists can keep up with any producer.
func (th *Thread) Task(fn func(*Thread)) {
	t := th.newTask(fn)
	th.curTask.refs.Add(1)
	pool := th.team.pool
	pool.pending.Add(1)
	if h := th.team.hooks; h != nil {
		h.taskCreate(th)
	}
	if d := &pool.deques[th.id]; d.size() < dequeCap {
		d.push(t)
		th.team.unpark(siteTasks)
	} else {
		th.execute(t)
	}
	// Task creation is a task scheduling point (OpenMP spec §task scheduling):
	// periodically yield the processor so idle team threads get a chance to
	// steal from this deque. Without it, a goroutine that spawns and then
	// drains a deep task tree never yields while work remains, starving
	// thieves whenever GOMAXPROCS is smaller than the team — tasking then
	// degenerates to serial execution on oversubscribed hosts.
	th.spawns++
	if th.spawns&31 == 0 {
		runtime.Gosched()
	}
}

// newTask returns a descriptor for fn, a child of the current task holding
// its own reference: from the thread's own free list, else from what
// teammates returned to it (taken whole, so the one popper sees no ABA),
// else from a fresh slab.
func (th *Thread) newTask(fn func(*Thread)) *task {
	t := th.free
	if t == nil {
		if t = th.returned.Swap(nil); t == nil {
			t = newTaskSlab()
		}
	}
	if t.refs.Load() != 0 {
		panic("openmp: a task descriptor was recycled while referenced")
	}
	th.free = t.parent
	t.fn, t.parent, t.owner = fn, th.curTask, uint32(th.id)
	t.refs.Store(1)
	return t
}

// taskSlab is how many descriptors a thread whose free lists ran dry
// allocates at once: a full deque's worth, in one allocation, so a new
// runtime's first task-heavy region allocates per 64 tasks, not per task.
const taskSlab = dequeCap

// newTaskSlab allocates taskSlab descriptors linked through parent, a free
// list, and returns its head.
func newTaskSlab() *task {
	slab := make([]task, taskSlab)
	for i := range slab[:taskSlab-1] {
		slab[i].parent = &slab[i+1]
	}
	return &slab[0]
}

// release drops one reference to t; the last one recycles it onto its
// owner's free list — th's own when th is the owner, else the owner's
// returned stack.
func (th *Thread) release(t *task) {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.fn = nil
	owner := int(t.owner &^ taskStolen)
	if owner == th.id {
		t.parent, th.free = th.free, t
		return
	}
	ret := &th.team.threads[owner].returned
	for {
		t.parent = ret.Load()
		if ret.CompareAndSwap(t.parent, t) {
			return
		}
	}
}

// TaskWait blocks until all child tasks of the current task have completed,
// executing queued tasks (its own or stolen) while it waits.
func (th *Thread) TaskWait() {
	th.taskWaitLoop(func() bool { return th.curTask.refs.Load() <= 1 })
}

// drainTasks participates in task execution until the team has no pending
// tasks; called before the implicit end-of-region barrier.
func (th *Thread) drainTasks() {
	th.taskWaitLoop(func() bool { return th.team.pool.pending.Load() <= 0 })
}

// taskWaitLoop executes queued tasks until done holds. Between tasks the
// thread waits like every other wait in the runtime, for done or for a queued
// task to steal: it spins per the wait policy, then parks (siteTasks) until a
// push or a completion unparks it. Parks count in Stats.Sleeps/Wakeups and
// reach the trace and the profile.
func (th *Thread) taskWaitLoop(done func() bool) {
	pool := th.team.pool
	ready := func() bool { return done() || pool.anyQueued() }
	for !done() {
		if !th.runOneTask() && !th.team.rt.wait.spin(ready) {
			th.park(siteTasks, ready)
		}
	}
}

// runOneTask executes one queued task if any is available: first the
// thread's own newest task, then a batch stolen from another thread's
// deque (near victims first when the team has a place-distance model).
func (th *Thread) runOneTask() bool {
	t := th.team.pool.deques[th.id].popBack()
	if t == nil {
		t = th.stealTask()
	}
	if t == nil {
		return false
	}
	th.execute(t)
	return true
}

// execute runs t on th as its current task, then completes it: the parent's
// reference goes first, then t's own (task's lifetime rule), and the team's
// task waiters are unparked.
func (th *Thread) execute(t *task) {
	h := th.team.hooks
	prevTask := th.curTask
	th.curTask = t
	var beginAt int64
	if h != nil {
		beginAt = h.taskBegin(th)
	}
	t.fn(th)
	if h != nil {
		h.taskEnd(th, beginAt)
	}
	th.curTask = prevTask
	th.release(t.parent)
	th.release(t)
	th.team.pool.pending.Add(-1)
	th.stats.tasksRun.Add(1)
	th.team.unpark(siteTasks)
}

// stealTask scans the other deques for work and transfers a half-batch from
// the first loaded victim (see taskDeque.stealBatch). With a place-distance
// model (placement set and Options.PlaceDistances provided), victims are
// tried in NUMA-distance order from the thief's bound place — after first
// revisiting the last productive victim, which likely still holds work.
// Without one, the scan falls back to the rotating uniform walk: all n
// slots from the last successful victim, self skipped.
func (th *Thread) stealTask() *task {
	tm := th.team
	n := tm.n
	if tm.stealOrder == nil {
		for k := 0; k < n; k++ {
			victim := (th.stealAt + k) % n
			if victim == th.id {
				continue
			}
			if t := th.stealFrom(victim); t != nil {
				th.stealAt = victim // keep stealing from a productive victim
				return t
			}
		}
		return nil
	}
	last := th.stealAt
	if last != th.id {
		if t := th.stealFrom(last); t != nil {
			return t
		}
	}
	for _, v := range tm.victims(th.id) {
		victim := int(v)
		if victim == last {
			continue // already tried above
		}
		if t := th.stealFrom(victim); t != nil {
			th.stealAt = victim
			return t
		}
	}
	return nil
}

// stealFrom attempts one half-batch steal from victim. A visit that took at
// least one never-stolen task is accounted by that many tasks — in the
// thread's stats shard (tasks, batch count, NUMA locality class) and as one
// taskSteal event; re-stolen surplus is not (see Stats.TasksStolen).
func (th *Thread) stealFrom(victim int) *task {
	tm := th.team
	pool := tm.pool
	first, n, fresh := pool.deques[victim].stealBatch(&pool.deques[th.id])
	if first == nil {
		return nil
	}
	if n > 1 {
		// The surplus landed on this thread's deque: other idle threads can
		// steal it in turn.
		tm.unpark(siteTasks)
	}
	if fresh == 0 {
		return first
	}
	th.stats.tasksStolen.Add(uint64(fresh))
	th.stats.stealBatches.Add(1)
	class := stealUnknown
	if tm.stealOrder != nil {
		if tm.localVictim(th.id, victim) {
			class = stealLocal
			th.stats.stealsLocal.Add(uint64(fresh))
		} else {
			class = stealRemote
			th.stats.stealsRemote.Add(uint64(fresh))
		}
	}
	if h := tm.hooks; h != nil {
		h.taskSteal(th, victim, fresh, class)
	}
	return first
}
