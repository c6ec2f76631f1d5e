package openmp

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
		return
	}
	opts := th.team.rt.opts
	switch opts.Schedule {
	case ScheduleDynamic, ScheduleGuided:
		th.forClaimed(n, max(opts.ChunkSize, 1), opts.Schedule == ScheduleGuided, body)
	default:
		// Static; LLVM/OpenMP resolves auto to static.
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

// forClaimed runs a dynamically scheduled loop: each thread claims chunks of
// at least chunk iterations from the construct's slot word, which counts the
// iterations handed out, until the loop is exhausted. Dynamic chunks are
// chunk-sized, first-come-first-served; guided ones shrink exponentially, each
// taking rem/(2*nthreads) of the rem iterations left. All that lies between
// two chunk bodies (slot lookup, claim, CAS retries) is one claim span.
func (th *Thread) forClaimed(n, chunk int, guided bool, body func(i int)) {
	h := th.team.hooks
	claimAt := h.claimStart()
	slot := th.enter()
	for {
		lo, hi := slot.claim(n, chunk, th.team.n, guided)
		th.chunkTaken(hi-lo, claimAt)
		if lo >= hi {
			break
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
		claimAt = h.claimStart()
	}
	slot.release(th.team.n)
}

// claim takes the loop's next chunk [lo, hi) from the slot word, the count
// of iterations handed out of n; the chunk is empty once the loop is
// exhausted. guided sizes it by the remainder across nt threads.
func (slot *constructSlot) claim(n, chunk, nt int, guided bool) (lo, hi int) {
	if !guided {
		lo = int(slot.word.Add(uint64(chunk))) - chunk
		return lo, min(lo+chunk, n)
	}
	for {
		taken := slot.word.Load()
		rem := n - int(taken)
		if rem <= 0 {
			return n, n
		}
		c := min(max(rem/(2*nt), chunk), rem)
		if slot.word.CompareAndSwap(taken, taken+uint64(c)) {
			return int(taken), int(taken) + c
		}
	}
}

// chunkTaken accounts one chunk claim, begun at claimAt, that handed this
// thread iters iterations (none: the loop was exhausted). The count goes to
// th.chunks, which Team.run folds into the stats shard.
func (th *Thread) chunkTaken(iters int, claimAt int64) {
	if iters > 0 {
		th.chunks++
	}
	if h := th.team.hooks; h != nil {
		h.chunk(th, iters, claimAt)
	}
}
