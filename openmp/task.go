package openmp

import (
	"runtime"
	"sync/atomic"
)

// task is one explicit task, allocated per spawn and kept within the 24-byte
// size class. children counts direct child tasks that have not yet completed
// (live heap objects, so 32 bits hold it), which is what TaskWait blocks on.
type task struct {
	fn       func(*Thread)
	parent   *task
	children atomic.Int32
	// stolen is set by the first thief to claim the task, so a steal counts
	// once however often batch surplus moves on (Stats.TasksStolen). Plain:
	// only the thread holding the task touches it, and hand-overs go through
	// the deque's atomic slot and index words.
	stolen bool
}

// taskPool is the team's work-stealing task scheduler: one Chase–Lev deque
// per thread, LIFO for the owner (depth-first, cache-friendly) and FIFO for
// thieves (steals the oldest, largest-granularity work, in half-batches).
// Idle threads waiting for task activity spin and park like every other wait
// (taskWaitLoop); a push or a completion unparks the team's task waiters.
type taskPool struct {
	deques  []taskDeque
	pending atomic.Int64
}

func newTaskPool(n int) *taskPool {
	p := &taskPool{deques: make([]taskDeque, n)}
	for i := range p.deques {
		p.deques[i].init(initialDequeCap)
	}
	return p
}

// anyQueued reports whether any deque currently holds a stealable task.
// Idle task waiters poll it (taskWaitLoop); a transiently negative size
// during an owner's popBack reads as empty, which is correct — that element
// is taken.
func (p *taskPool) anyQueued() bool {
	for i := range p.deques {
		d := &p.deques[i]
		if d.bottom.Load()-d.top.Load() > 0 {
			return true
		}
	}
	return false
}

// initialDequeCap is the starting ring capacity of each per-thread deque,
// allocated once at team construction so the owner path never allocates in
// steady state. A deque holding more than this many outstanding tasks grows
// by doubling (amortized O(1), and the old ring is simply garbage).
const initialDequeCap = 64

// maxStealBatch bounds how many tasks one steal visit may transfer,
// keeping a thief's time-to-first-execution bounded on very deep deques.
const maxStealBatch = 32

// dequeRing is one power-of-two circular array of a Chase–Lev deque. Logical
// index i lives in slots[i&mask]; the indexes themselves (bottom, top) grow
// without bound. Slots are atomic because a thief's read of slot top races
// the owner's store of a new task into the same physical slot one
// revolution later — the thief's subsequent CAS on top fails in exactly the
// interleavings where that race occurs, so the stale value is discarded.
type dequeRing struct {
	mask  int64
	slots []atomic.Pointer[task]
}

func newDequeRing(capacity int64) *dequeRing {
	return &dequeRing{mask: capacity - 1, slots: make([]atomic.Pointer[task], capacity)}
}

func (r *dequeRing) get(i int64) *task    { return r.slots[i&r.mask].Load() }
func (r *dequeRing) put(i int64, t *task) { r.slots[i&r.mask].Store(t) }

// taskDeque is a Chase–Lev work-stealing deque (Chase & Lev, SPAA'05, in
// the formulation of Lê et al., PPoPP'13): a growable circular array with
// two indexes. The owner pushes and pops at bottom; thieves claim at top
// with a CAS. The owner path is lock-free and allocation-free: push is two
// loads and two stores, popBack needs a CAS only when racing a thief for
// the last element. Replaces the previous mutex-guarded slice deque, whose
// popFront front-sliced the backing array and churned memory in steady
// producer/consumer phases — the ring reuses its slots by construction.
//
// The hot words live on separate cache lines: bottom is written by the
// owner on every push/pop, top by thieves on every steal, and the ring
// pointer only changes on growth.
type taskDeque struct {
	_      [cacheLineSize]byte
	bottom atomic.Int64
	_      [cacheLineSize - 8]byte
	top    atomic.Int64
	_      [cacheLineSize - 8]byte
	ring   atomic.Pointer[dequeRing]
	_      [cacheLineSize - 8]byte
}

func (d *taskDeque) init(capacity int64) {
	d.ring.Store(newDequeRing(capacity))
}

// push appends t at the bottom (owner side). Owner-only.
func (d *taskDeque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.ring.Load()
	if b-tp >= int64(len(r.slots)) {
		r = d.grow(r, b, tp)
	}
	r.put(b, t)
	// The seq-cst store publishes the slot write to thieves.
	d.bottom.Store(b + 1)
}

// grow doubles the ring, copying the live range. Thieves still holding the
// old ring read the same values at the same logical indexes (growth never
// moves or removes elements below bottom), so a stale read stays valid for
// exactly as long as its claiming CAS can still succeed.
func (d *taskDeque) grow(r *dequeRing, b, tp int64) *dequeRing {
	nr := newDequeRing(int64(len(r.slots)) * 2)
	for i := tp; i < b; i++ {
		nr.put(i, r.get(i))
	}
	d.ring.Store(nr)
	return nr
}

// popBack removes the newest task (owner side). Owner-only. The only
// synchronization on the fast path is the bottom store/top load pair; a CAS
// on top is needed only when the popped element is the last one, where a
// concurrent thief may be claiming it.
func (d *taskDeque) popBack() *task {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b) // reserve index b; thieves now see size <= b-top
	t := d.top.Load()
	if t > b {
		// Empty (or a thief claimed the last element first): undo.
		d.bottom.Store(b + 1)
		return nil
	}
	x := r.get(b)
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
		r.put(b, nil)
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
	x := d.ring.Load().get(t)
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
// the team.
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
	t := d.top.Load()
	b := d.bottom.Load()
	size := b - t
	if size <= 0 {
		return nil, 0, 0
	}
	want := (size + 1) / 2
	if want > maxStealBatch {
		want = maxStealBatch
	}
	for int64(n) < want {
		x := d.stealOne()
		if x == nil {
			break
		}
		if !x.stolen {
			x.stolen = true
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
// deviation from the spec, DESIGN.md "One wait").
func (th *Thread) Task(fn func(*Thread)) {
	t := &task{fn: fn, parent: th.curTask}
	th.curTask.children.Add(1)
	pool := th.team.pool
	pool.pending.Add(1)
	pool.deques[th.id].push(t)
	th.team.unpark(siteTasks)
	if h := th.team.hooks; h != nil {
		h.taskCreate(th)
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

// TaskWait blocks until all child tasks of the current task have completed,
// executing queued tasks (its own or stolen) while it waits.
func (th *Thread) TaskWait() {
	th.taskWaitLoop(func() bool { return th.curTask.children.Load() <= 0 })
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
	pool := th.team.pool
	t := pool.deques[th.id].popBack()
	if t == nil {
		t = th.stealTask()
	}
	if t == nil {
		return false
	}
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
	t.parent.children.Add(-1)
	pool.pending.Add(-1)
	th.stats.tasksRun.Add(1)
	th.team.unpark(siteTasks)
	return true
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
	for _, v := range tm.stealOrder[th.id] {
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
	if tm.stealLocal != nil {
		if tm.stealLocal[th.id][victim] {
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
