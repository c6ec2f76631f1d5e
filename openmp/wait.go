package openmp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// waitPolicy is KMP_LIBRARY and KMP_BLOCKTIME resolved once, at New: a
// waiting thread either spins forever (turnaround, KMP_BLOCKTIME=infinite)
// or spins for budget and then parks (throughput; a zero budget parks at
// once). The zero value spins forever — what a zero-value Lock and the
// runtime's short hand-offs, which have no waker, want.
type waitPolicy struct {
	parks  bool
	budget time.Duration
}

func (o Options) waitPolicy() waitPolicy {
	bt := o.effectiveBlocktimeMS()
	if bt == BlocktimeInfinite {
		return waitPolicy{}
	}
	return waitPolicy{parks: true, budget: time.Duration(bt) * time.Millisecond}
}

// spin is the runtime's one spin loop: it polls cond, yielding the processor
// between polls, until cond holds (true) or the budget is spent (false). It
// reads the clock once every 64 polls, polls once under a zero budget, and
// never gives up under a policy that does not park.
func (w waitPolicy) spin(cond func() bool) bool {
	if cond() {
		return true
	}
	if w.parks && w.budget == 0 {
		return false
	}
	var deadline time.Time
	if w.parks {
		deadline = time.Now().Add(w.budget)
	}
	for polls := 1; ; polls++ {
		runtime.Gosched()
		if cond() {
			return true
		}
		if w.parks && polls&63 == 0 && time.Now().After(deadline) {
			return false
		}
	}
}

// Wait sites: where a parked Thread waits, advertised in its parker so that
// each waker posts only to its own waiters.
const (
	siteRegion  int32 = 1 // between regions: dispatch and Close unpark
	siteBarrier int32 = 2 // at a team barrier: its release unparks
	siteTasks   int32 = 3 // in a task wait: task pushes and completions unpark
)

// parker is how every waiter in the runtime sleeps: an advertised-waiter word
// and a 1-token channel. A Thread's parker has one waiter, its own goroutine,
// and the word holds the site it parked at (0 while it is not parked). A
// Lock's is shared by its contenders, each advertising 1, so the word counts
// them.
//
// No lost wakeup: the waiter advertises itself, re-checks its condition and
// only then blocks; a waker makes the condition true, reads the word and
// posts if a waiter is advertised. All four steps are sequentially consistent
// atomics, so either the re-check sees the waker's update and the waiter does
// not block, or the waker sees the advertisement and posts. A post never
// blocks — a token already buffered wakes the waiter just as well. A token
// posted to a waiter whose re-check then succeeded stays behind, and the next
// park drains it before advertising: any token posted before the drain
// followed an update the re-check after the drain will see. (A Lock
// contender's drain may take a token meant for another contender; then its
// re-check takes the lock, or whoever holds it posts again on Unlock.)
type parker struct {
	waiting atomic.Int32
	token   chan struct{}
}

// park parks the caller at site unless cond holds once the wait is
// advertised, charging the sleep and the wake to sh and, when h is non-nil,
// reporting them to the observers as th's. It reports whether cond held;
// false means the caller slept, was woken, and must park again to re-check.
func (p *parker) park(site int32, cond func() bool, sh *statShard, h *hooks, th *Thread) bool {
	select {
	case <-p.token:
	default:
	}
	p.waiting.Add(site)
	ok := cond()
	if !ok {
		if h != nil {
			h.park(th)
		}
		sh.sleeps.Add(1)
		<-p.token
		sh.wakeups.Add(1)
		if h != nil {
			h.wake(th)
		}
	}
	p.waiting.Add(-site)
	return ok
}

// post wakes p's waiter (one of a Lock's). Callers post only after reading an
// advertised waiter.
func (p *parker) post() {
	select {
	case p.token <- struct{}{}:
	default:
	}
}

// wait returns once cond holds: th spins per the runtime's wait policy, then
// parks at site until a wake finds cond true.
func (th *Thread) wait(site int32, cond func() bool) {
	if !th.team.rt.wait.spin(cond) {
		for !th.park(site, cond) {
		}
	}
}

// park parks th once at site (parker.park). Waits between regions and in task
// waits reach the observers; barrier waits are counted in Stats only.
func (th *Thread) park(site int32, cond func() bool) bool {
	var h *hooks
	switch site {
	case siteRegion:
		h = th.team.rt.hooks.Load()
	case siteTasks:
		h = th.team.hooks
	}
	return th.parker.park(site, cond, th.stats, h, th)
}

// unpark wakes the team's threads parked at site, one thread at a time, as
// libomp's linear barrier release does.
func (tm *Team) unpark(site int32) {
	for i := range tm.threads {
		if p := &tm.threads[i].parker; p.waiting.Load() == site {
			p.post()
		}
	}
}
