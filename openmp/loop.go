package openmp

import (
	"math"
	"sync/atomic"
)

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
	case ScheduleDynamic:
		th.forDynamic(n, max(opts.ChunkSize, 1), body)
	case ScheduleGuided:
		th.forGuided(n, max(opts.ChunkSize, 1), body)
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

// forDynamic runs a dynamically scheduled loop as libomp runs
// kmp_sch_static_steal, what schedule(dynamic) without the monotonic modifier
// and OMP_SCHEDULE=dynamic resolve to: the loop's chunks are dealt out in
// contiguous blocks, thread t owning units [t·u/T, (t+1)·u/T) of the u steal
// units (stealUnits; a unit is one chunk). A thread claims the front unit of
// its range with a CAS on its own state word; once its range is empty it
// steals from the back of a teammate's (stealLoop.steal). Every chunk it runs
// is one claim span, from the end of the previous chunk body.
func (th *Thread) forDynamic(n, chunk int, body func(i int)) {
	tm := th.team
	h := tm.hooks
	claimAt := h.claimStart()
	slot := th.enter()
	units, per := stealUnits(n, chunk)
	l := stealLoop{words: tm.stealWords(th.seq), units: units, nt: tm.n, t: th.id, victim: th.id}
	l.b0, l.b1 = l.block(th.id)
	span := per * chunk
	for u, ok := l.next(); ok; u, ok = l.next() {
		for lo, end := u*span, min((u+1)*span, n); lo < end; lo += chunk {
			hi := min(lo+chunk, end)
			th.chunkTaken(hi-lo, claimAt)
			for i := lo; i < hi; i++ {
				body(i)
			}
			claimAt = h.claimStart()
		}
	}
	th.chunkTaken(0, claimAt)
	slot.release(tm.n, l.words)
}

// stealWord is one thread's static-steal state in one construct slot, on a
// cache line of its own: the units [lo, hi) left in the thread's range,
// packed as (lo XOR b0)<<32 | (hi XOR b1) against the thread's static block
// [b0, b1), so the zero word a construct starts from is the untouched block.
type stealWord struct {
	atomic.Uint64
	_ [cacheLineSize - 8]byte
}

// stealMaxUnits is the most units a steal word addresses: each half holds a
// unit index XOR a block bound, both below 2^32.
const stealMaxUnits = math.MaxUint32

// stealUnits cuts a loop of n > 0 iterations into units of per chunks of c
// iterations each. per is 1, a unit being one chunk, up to stealMaxUnits
// chunks; a longer loop takes the fewest chunks a unit that fit it into
// stealMaxUnits units, and still runs and counts each chunk as one.
func stealUnits(n, c int) (units, per int) {
	chunks := uint64((n-1)/c) + 1
	per = int((chunks-1)/stealMaxUnits + 1)
	return int((chunks-1)/uint64(per)) + 1, per
}

func packSteal(lo, hi, b0, b1 int) uint64 { return uint64(lo^b0)<<32 | uint64(hi^b1) }

func unpackSteal(w uint64, b0, b1 int) (lo, hi int) {
	return b0 ^ int(w>>32), b1 ^ int(uint32(w))
}

// stealLoop is thread t's view of one dynamic loop: its slot's steal words,
// the loop's units dealt over nt threads, t's static block [b0, b1) and the
// teammate it last robbed.
type stealLoop struct {
	words          []stealWord
	units, nt, t   int
	b0, b1, victim int
}

// block returns thread v's static block of units.
func (l *stealLoop) block(v int) (b0, b1 int) {
	return v * l.units / l.nt, (v + 1) * l.units / l.nt
}

// next claims t's next unit: the front of its own range, else a steal; ok is
// false once the loop has nothing left for t.
func (l *stealLoop) next() (u int, ok bool) {
	own := &l.words[l.t]
	for {
		w := own.Load()
		lo, hi := unpackSteal(w, l.b0, l.b1)
		if lo == hi {
			return l.steal()
		}
		if own.CompareAndSwap(w, packSteal(lo+1, hi, l.b0, l.b1)) {
			return lo, true
		}
	}
}

// steal scans t's teammates from the one it last robbed and steals from the
// back of the first non-empty range it finds: a quarter of the remainder
// when more than 7 units are left, else one unit, as libomp does. t runs the
// first stolen unit and makes the rest its own range, which teammates may
// steal from in turn. ok is false once a whole scan finds every range empty:
// what is left in flight belongs to a thief that has yet to publish it, and
// that thief runs it.
func (l *stealLoop) steal() (u int, ok bool) {
	for k := range l.nt {
		v := (l.victim + k) % l.nt
		if v == l.t {
			continue
		}
		vb0, vb1 := l.block(v)
		vw := &l.words[v]
		for {
			w := vw.Load()
			lo, hi := unpackSteal(w, vb0, vb1)
			if lo == hi {
				break
			}
			take := 1
			if hi-lo > 7 {
				take = (hi - lo) >> 2
			}
			if vw.CompareAndSwap(w, packSteal(lo, hi-take, vb0, vb1)) {
				// Only t writes its own word once it is empty: thieves
				// skip an empty range.
				l.words[l.t].Store(packSteal(hi-take+1, hi, l.b0, l.b1))
				l.victim = v
				return hi - take, true
			}
		}
	}
	return 0, false
}

// forGuided runs a guided loop: each thread claims chunks from the
// construct's slot word, which counts the iterations handed out, until the
// loop is exhausted. A chunk takes rem/(2*nthreads) of the rem iterations
// left, at least chunk. All that lies between two chunk bodies (slot lookup,
// claim, CAS retries) is one claim span.
func (th *Thread) forGuided(n, chunk int, body func(i int)) {
	h := th.team.hooks
	claimAt := h.claimStart()
	slot := th.enter()
	for {
		lo, hi := slot.claimGuided(n, chunk, th.team.n)
		th.chunkTaken(hi-lo, claimAt)
		if lo >= hi {
			break
		}
		for i := lo; i < hi; i++ {
			body(i)
		}
		claimAt = h.claimStart()
	}
	slot.release(th.team.n, nil)
}

// claimGuided takes the loop's next chunk [lo, hi) from the slot word, the
// count of iterations handed out of n, sized by the remainder across nt
// threads; the chunk is empty once the loop is exhausted.
func (slot *constructSlot) claimGuided(n, chunk, nt int) (lo, hi int) {
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
