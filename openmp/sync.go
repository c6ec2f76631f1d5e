package openmp

import "sync/atomic"

// Lock is an OpenMP-style simple lock (omp_init_lock / omp_set_lock /
// omp_unset_lock). A contended Lock waits like every other wait in the
// runtime: it spins per the wait policy, then parks until an Unlock wakes it,
// so under KMP_BLOCKTIME=0 a contender parks as soon as its re-check fails.
// Its parks count in Stats.Sleeps/Wakeups but reach neither the trace nor the
// profile. The zero value is an unlocked pure spin lock attached to no
// runtime; use Runtime.NewLock for wait-policy-aware behaviour.
type Lock struct {
	state  atomic.Int32
	parker parker     // shared by the contenders
	wait   waitPolicy // zero value: spin forever
	stats  *statShard // sleep/wakeup accounting; nil for zero-value locks
}

// NewLock returns a lock honouring the runtime's wait policy.
func (rt *Runtime) NewLock() *Lock {
	l := &Lock{wait: rt.wait, stats: rt.stats.misc()}
	l.parker.token = make(chan struct{}, 1)
	return l
}

// Lock acquires the lock, spinning within the blocktime budget and then
// sleeping until a release wakes it.
func (l *Lock) Lock() {
	if l.TryLock() {
		return
	}
	if !l.wait.spin(l.TryLock) {
		for !l.parker.park(1, l.TryLock, l.stats, nil, nil) {
		}
	}
}

// TryLock attempts the acquisition without waiting.
func (l *Lock) TryLock() bool { return l.state.CompareAndSwap(0, 1) }

// Unlock releases the lock and wakes one parked waiter if any.
func (l *Lock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("openmp: Unlock of unlocked Lock")
	}
	if l.parker.waiting.Load() > 0 {
		l.parker.post()
	}
}

// NestLock is an OpenMP nestable lock (omp_init_nest_lock): the owning
// thread may re-acquire it, tracking a nesting depth. Ownership is per
// Thread, as in OpenMP, not per goroutine.
type NestLock struct {
	inner *Lock
	owner atomic.Int64 // thread id + 1; 0 = unowned
	depth int
}

// NewNestLock returns a nestable lock honouring the runtime's wait policy.
func (rt *Runtime) NewNestLock() *NestLock {
	return &NestLock{inner: rt.NewLock()}
}

// Lock acquires the nest lock for thread th, or deepens the nesting if th
// already owns it. It returns the resulting nesting depth.
func (nl *NestLock) Lock(th *Thread) int {
	id := int64(th.ID()) + 1
	if nl.owner.Load() == id {
		nl.depth++
		return nl.depth
	}
	nl.inner.Lock()
	nl.owner.Store(id)
	nl.depth = 1
	return 1
}

// Unlock releases one nesting level, fully releasing the lock at depth 0.
// It returns the remaining depth.
func (nl *NestLock) Unlock(th *Thread) int {
	id := int64(th.ID()) + 1
	if nl.owner.Load() != id {
		panic("openmp: NestLock.Unlock by non-owner thread")
	}
	nl.depth--
	if nl.depth == 0 {
		nl.owner.Store(0)
		nl.inner.Unlock()
		return 0
	}
	return nl.depth
}

// Sections executes each function on exactly one team thread, distributed
// first-come-first-served like an OpenMP sections construct, and barriers
// at the end. Every team thread must call Sections (it is a worksharing
// construct).
func (th *Thread) Sections(fns ...func()) {
	seq := th.nextSeq()
	if len(fns) == 0 {
		th.Barrier()
		return
	}
	st, h := th.team.instance(seq, func() any { return new(atomic.Int64) })
	cur := st.(*atomic.Int64)
	for {
		i := int(cur.Add(1)) - 1
		if i >= len(fns) {
			break
		}
		fns[i]()
	}
	th.Barrier()
	th.team.release(h, seq)
}
