package openmp

import (
	"runtime"
	"sync/atomic"
	"time"
)

// waitPolicy is KMP_LIBRARY, KMP_BLOCKTIME and GOMAXPROCS resolved once, at
// New: a waiting thread either spins forever (turnaround,
// KMP_BLOCKTIME=infinite) or spins for budget and then parks (throughput; a
// zero budget parks at once). tight is how many polls the spin makes back to
// back before it starts yielding between them. The zero value spins forever, yielding
// between polls — what a zero-value Lock and the construct ring's full-slot
// hand-off, which have no waker, want.
type waitPolicy struct {
	parks  bool
	budget time.Duration
	tight  int
}

// The spin's tight phase, after libomp's __kmp_wait_template: spinTight
// polls, separated by an empty loop that doubles from one to spinBackoff
// iterations (a few microseconds in all), before the spin yields the
// processor between polls.
const (
	spinTight   = 128
	spinBackoff = 32
)

// waitPolicy resolves the options for a runtime that runs up to threads
// threads at once on procs Ps (GOMAXPROCS, read once by New). An
// oversubscribed runtime gets no tight phase — libomp's KMP_USE_YIELD=1 rule —
// because a waiter that polls without yielding there holds the P its waker
// needs until the scheduler preempts it, 10 ms later.
func (o Options) waitPolicy(threads, procs int) waitPolicy {
	var w waitPolicy
	if threads <= procs {
		w.tight = spinTight
	}
	if bt := o.Library.Blocktime(o.BlocktimeMS); bt != BlocktimeInfinite {
		w.parks, w.budget = true, time.Duration(bt)*time.Millisecond
	}
	return w
}

// spin is the runtime's one spin loop: it polls cond until cond holds (true)
// or the budget is spent (false). The first w.tight polls follow each other
// after a short backoff; every later poll follows a runtime.Gosched. It
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
	backoff := 1
	for polls := 1; ; polls++ {
		if polls <= w.tight {
			for i := 0; i < backoff; i++ {
			}
			backoff = min(2*backoff, spinBackoff)
		} else {
			runtime.Gosched()
		}
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
// libomp's linear barrier release does. Under a policy that never parks no
// thread can be parked, so it reads no parker.
func (tm *Team) unpark(site int32) {
	if !tm.rt.wait.parks {
		return
	}
	for i := range tm.threads {
		if p := &tm.threads[i].parker; p.waiting.Load() == site {
			p.post()
		}
	}
}
