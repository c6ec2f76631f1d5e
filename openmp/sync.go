package openmp

import "sync/atomic"

// Lock is an OpenMP-style simple lock (omp_init_lock / omp_set_lock /
// omp_unset_lock). A contended Lock waits like every other wait in the
// runtime: it spins per the wait policy, then parks until an Unlock wakes it,
// so under KMP_BLOCKTIME=0 a contender parks as soon as its re-check fails.
// Its spin has no tight phase: a contender yields between polls, so the
// holder, who re-locks as soon as it unlocks, keeps the lock word's line
// instead of trading it for every poll. Its parks count in
// Stats.Sleeps/Wakeups but reach neither the trace nor the profile. The zero
// value is an unlocked pure spin lock attached to no runtime; use
// Runtime.NewLock for wait-policy-aware behaviour.
type Lock struct {
	state  atomic.Int32
	parker parker     // shared by the contenders
	wait   waitPolicy // zero value: spin forever
	stats  *statShard // sleep/wakeup accounting; nil for zero-value locks
}

// NewLock returns a lock honouring the runtime's wait policy.
func (rt *Runtime) NewLock() *Lock {
	l := &Lock{wait: rt.wait, stats: &rt.misc}
	l.wait.tight = 0
	l.parker.token = make(chan struct{}, 1)
	return l
}

// Lock acquires the lock, spinning within the blocktime budget and then
// sleeping until a release wakes it.
func (l *Lock) Lock() {
	if l.TryLock() {
		return
	}
	if !l.wait.spin(l.acquire) {
		for !l.parker.park(1, l.acquire, l.stats, nil, nil) {
		}
	}
}

// TryLock attempts the acquisition without waiting.
func (l *Lock) TryLock() bool { return l.state.CompareAndSwap(0, 1) }

// acquire is a contender's poll: it tries the CAS only once a load reads the
// lock free, so polling contenders share the word's line with the holder
// rather than taking it for a CAS that must fail.
func (l *Lock) acquire() bool { return l.state.Load() == 0 && l.TryLock() }

// Unlock releases the lock and wakes one parked waiter if any.
func (l *Lock) Unlock() {
	if l.state.Swap(0) != 1 {
		panic("openmp: Unlock of unlocked Lock")
	}
	if l.parker.waiting.Load() > 0 {
		l.parker.post()
	}
}
