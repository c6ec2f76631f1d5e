package openmp

import "sync/atomic"

// Ordered serializes per-iteration regions in iteration order inside a
// worksharing loop — the OpenMP ordered construct.
type Ordered struct {
	next atomic.Int64
}

// ForOrdered executes body for every iteration in [0, n) under the
// configured schedule; inside body, ord.Do(i, fn) runs fn for iteration i
// strictly after iteration i-1's Do has completed, regardless of which
// thread executes which iteration. Like For, this is a worksharing
// construct with an implicit trailing barrier, and every iteration must
// call ord.Do exactly once.
func (th *Thread) ForOrdered(n int, body func(i int, ord *Ordered)) {
	seq := th.nextSeq()
	st, h := th.team.instance(seq, func() any { return new(Ordered) })
	ord := st.(*Ordered)
	// The inner loop claims its own construct sequence number on every
	// thread, keeping the per-thread counters aligned.
	th.ForNowait(n, func(i int) { body(i, ord) })
	th.Barrier()
	th.team.release(h, seq)
}

// Do runs fn as iteration i's ordered region: it waits until every earlier
// iteration's ordered region has finished, executes fn, and releases
// iteration i+1.
func (o *Ordered) Do(i int, fn func()) {
	waitPolicy{}.spin(func() bool { return o.next.Load() == int64(i) })
	fn()
	o.next.Store(int64(i) + 1)
}

// ParallelN executes body on a team of exactly n threads (clamped to the
// runtime's thread count), the equivalent of a num_threads clause. The
// first n threads of the full team form a complete sub-team — their own
// barrier, construct state and task pool — while the remaining threads sit
// the region out at the enclosing region's end barrier.
func (rt *Runtime) ParallelN(n int, body func(th *Thread)) {
	max := rt.NumThreads()
	if n > max {
		n = max
	}
	if n < 1 {
		n = 1
	}
	if n == max {
		rt.Parallel(body)
		return
	}
	rt.Parallel(func(th *Thread) {
		seq := th.nextSeq()
		st, h := th.team.instance(seq, func() any {
			sub := newTeam(rt, n)
			// The sub-team runs inside the enclosing region on the same
			// goroutines (gtids 0..n-1 match the outer threads), so its
			// events belong to the enclosing region and level.
			sub.level = th.team.level
			sub.activeLevels = th.team.activeLevels
			sub.regionID = th.team.regionID
			sub.hooks = th.team.hooks
			sub.body = body
			return sub
		})
		sub := st.(*Team)
		if th.ID() < n {
			sub.run(th.ID())
		}
		th.team.release(h, seq)
	})
}
