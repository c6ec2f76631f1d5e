package openmp

import "sync/atomic"

// For executes body for every iteration in [0, n), dividing iterations
// among the team per the configured schedule, then waits at the implicit
// barrier that ends an OpenMP worksharing loop. Every team thread must call
// For (it is a worksharing construct).
func (th *Thread) For(n int, body func(i int)) {
	th.ForNowait(n, body)
	th.Barrier()
}

// ForNowait is For with the trailing barrier elided, the equivalent of the
// OpenMP `nowait` clause.
func (th *Thread) ForNowait(n int, body func(i int)) {
	if n <= 0 {
		th.nextSeq() // keep construct sequence aligned across threads
		return
	}
	opts := th.team.rt.opts
	switch opts.Schedule {
	case ScheduleStatic, ScheduleAuto:
		// LLVM/OpenMP resolves auto to static.
		th.nextSeq()
		th.forStatic(n, opts.ChunkSize, body)
	case ScheduleDynamic:
		th.forDynamic(n, opts.ChunkSize, body)
	case ScheduleGuided:
		th.forGuided(n, opts.ChunkSize, body)
	default:
		th.nextSeq()
		th.forStatic(n, opts.ChunkSize, body)
	}
}

// forStatic needs no shared state: with no chunk size each thread takes one
// contiguous block; with a chunk size chunks are dealt round-robin.
func (th *Thread) forStatic(n, chunk int, body func(i int)) {
	t, nt := th.id, th.team.n
	if chunk <= 0 {
		lo, hi := t*n/nt, (t+1)*n/nt
		th.chunkTaken(hi-lo, 0) // counts nothing for an empty block
		for i := lo; i < hi; i++ {
			body(i)
		}
		return
	}
	for lo := t * chunk; lo < n; lo += nt * chunk {
		hi := min(lo+chunk, n)
		th.chunkTaken(hi-lo, 0)
		for i := lo; i < hi; i++ {
			body(i)
		}
	}
}

// dynLoop's cursor is the single hottest shared word in a dynamic loop —
// every chunk grab of every thread CASes it — so it gets a cache line to
// itself rather than sharing one with whatever the allocator placed next to
// it.
type dynLoop struct {
	next atomic.Int64
	_    [cacheLineSize - 8]byte
}

// forDynamic hands out fixed-size chunks from a shared counter,
// first-come-first-served.
func (th *Thread) forDynamic(n, chunk int, body func(i int)) {
	chunk = max(chunk, 1)
	th.claimLoop(func() any { return new(dynLoop) }, func(st any) (lo, hi int) {
		lo = int(st.(*dynLoop).next.Add(int64(chunk))) - chunk
		return lo, min(lo+chunk, n)
	}, body)
}

type guidedLoop struct {
	remaining atomic.Int64
	_         [cacheLineSize - 8]byte
}

// forGuided hands out exponentially shrinking chunks: each grab takes
// remaining/(2*nthreads), clamped below by the chunk size (default 1).
func (th *Thread) forGuided(n, minChunk int, body func(i int)) {
	nt := int64(th.team.n)
	th.claimLoop(func() any {
		g := new(guidedLoop)
		g.remaining.Store(int64(n))
		return g
	}, func(st any) (lo, hi int) {
		g := st.(*guidedLoop)
		for {
			rem := g.remaining.Load()
			if rem <= 0 {
				return n, n
			}
			c := min(max(rem/(2*nt), int64(minChunk), 1), rem)
			if g.remaining.CompareAndSwap(rem, rem-c) {
				lo = n - int(rem)
				return lo, lo + int(c)
			}
		}
	}, body)
}

// claimLoop runs a dynamically scheduled loop: the construct's shared state
// comes from create, claim takes the next chunk [lo, hi) from it — empty once
// the loop is exhausted — and body runs over each chunk. All that lies between
// two chunk bodies (instance lookup, cursor CAS, retries) is one claim span.
func (th *Thread) claimLoop(create func() any, claim func(st any) (lo, hi int), body func(i int)) {
	seq := th.nextSeq()
	h := th.team.hooks
	claimAt := h.claimStart()
	st, slot := th.team.instance(seq, create)
	for {
		lo, hi := claim(st)
		th.chunkTaken(hi-lo, claimAt)
		if lo >= hi {
			break
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
		claimAt = h.claimStart()
	}
	th.team.release(slot, seq)
}

// chunkTaken accounts one chunk claim, begun at claimAt, that handed this
// thread iters iterations (none: the loop was exhausted).
func (th *Thread) chunkTaken(iters int, claimAt int64) {
	if iters > 0 {
		th.stats.chunks.Add(1)
	}
	if h := th.team.hooks; h != nil {
		h.chunk(th, iters, claimAt)
	}
}
