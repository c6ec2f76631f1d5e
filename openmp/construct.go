package openmp

import (
	"sync"
	"sync/atomic"
)

// cacheLineSize is the padding granularity used to keep independently
// mutated hot words (construct slots, stats shards, barrier counters, loop
// cursors) on separate cache lines. 64 bytes covers x86; the A64FX's 256-byte
// lines are modeled by KMP_ALIGN_ALLOC, not by struct layout.
const cacheLineSize = 64

// constructRingSize is the number of lock-free construct slots per team. A
// thread can run at most this many nowait constructs ahead of its slowest
// teammate before construct state falls back to the mutex-guarded overflow
// map. libomp's analogue is its fixed set of dispatch buffers
// (KMP_MAX_DISP_NUM_BUFF); any construct containing a barrier bounds the
// lead, so overflow is only reachable through long runs of nowait
// constructs. Must be a power of two.
const constructRingSize = 64

// construct is the shared state of one worksharing construct when it lives
// in the overflow map.
type construct struct {
	state any
	done  int32 // threads that have finished with the instance
}

// constructSlot is one lock-free slot of the ring. The claimed word encodes
// (sequence << 1) | activeBit; a slot is claimable whenever the active bit
// is clear, regardless of the stale sequence left by the previous occupant.
// Construct sequence numbers are unique for the lifetime of a team (they are
// never reset between regions), which is what makes the claimed word an
// unambiguous identity: claimed == seq<<1|1 can only ever mean construct
// seq, never a recycled number.
type constructSlot struct {
	claimed atomic.Int64
	done    atomic.Int32 // releases of the active construct
	ready   atomic.Bool  // state has been published by the claimer
	state   any
	_       [cacheLineSize - 32]byte // one slot per cache line
}

// constructRing is a team's construct-state table: a fixed ring of
// atomically claimed slots indexed by construct sequence number, with a
// mutex-guarded map as overflow for the rare case of a thread running more
// than constructRingSize nowait constructs ahead of a teammate. The
// steady-state instance path is one CAS plus one atomic load; release is one
// atomic add. No locks are taken unless overflow entries are live.
//
// Routing invariant: every construct is resolved by exactly one of the two
// stores, and all n threads agree on which. The proof hinges on two rules:
//
//  1. A router commits a construct to the overflow map only while holding mu
//     AND observing the construct's ring slot busy with a *different* active
//     construct. It raises overflowLive before that validation, so any
//     concurrent ring claimer that completes its CAS afterwards is
//     guaranteed to see the gate up.
//  2. A ring claimer, after winning the claim CAS, consults the map (gate
//     permitting) before publishing; if an earlier arriver routed the
//     sequence to the map, the claimer undoes its claim and adopts the map
//     entry. A claim that survives this check can never be undone, because
//     rule 1 forbids creating the map entry while the claim is active.
type constructRing struct {
	slots [constructRingSize]constructSlot

	// overflowLive is the gate for the lock-free path's map checks: raised
	// (pessimistically, before validation) while any map routing is live, so
	// a claimer or waiter that reads 0 has proof no map entry exists for its
	// sequence and never touches the mutex.
	overflowLive atomic.Int64

	mu        sync.Mutex
	overflow  map[int64]*construct
	overflows uint64 // cumulative map routings, for tests (guarded by mu)
}

// instance returns the shared state for the construct with sequence number
// seq, creating it with create on first arrival; create runs exactly once
// per construct across the team. The returned slot handle must be passed to
// release (nil means the construct was routed to the overflow map).
func (r *constructRing) instance(seq int64, create func() any) (any, *constructSlot) {
	slot := &r.slots[seq&(constructRingSize-1)]
	want := seq<<1 | 1
	for {
		cur := slot.claimed.Load()
		switch {
		case cur == want:
			// seq holds the slot. If an overflow entry for seq exists, the
			// claim is transient and about to be undone — adopt the entry.
			// If none exists now, none ever will (rule 1: the map entry
			// cannot be created while this claim is active, and the claim
			// cannot be torn down before this thread releases), so wait for
			// the claimer to publish.
			if st, ok := r.overflowLookup(seq); ok {
				return st, nil
			}
			waitPolicy{}.spin(slot.ready.Load)
			return slot.state, slot
		case cur&1 == 1:
			// Slot busy with a different construct: overflow to the map.
			if st, ok := r.overflowInstance(slot, want, seq, create); ok {
				return st, nil
			}
			// Routing changed while acquiring the lock; retry lock-free.
		default:
			// Slot inactive: claim it.
			if !slot.claimed.CompareAndSwap(cur, want) {
				continue
			}
			if st, ok := r.overflowLookup(seq); ok {
				// An earlier arriver routed seq to the map while the slot
				// was still busy: undo the claim and adopt the entry.
				slot.claimed.Store(cur)
				return st, nil
			}
			slot.done.Store(0)
			slot.state = create()
			slot.ready.Store(true)
			return slot.state, slot
		}
	}
}

// overflowLookup reports whether seq is routed to the overflow map. It is
// lock-free (a single atomic load) whenever no overflow entries are live.
func (r *constructRing) overflowLookup(seq int64) (any, bool) {
	if r.overflowLive.Load() == 0 {
		return nil, false
	}
	r.mu.Lock()
	c, ok := r.overflow[seq]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.state, true
}

// overflowInstance routes seq through the mutex-guarded map. It re-validates
// under the lock that the ring slot is still unavailable — the slot may have
// been freed, or claimed for seq itself, while the lock was acquired — and
// reports ok=false to send the caller back to the lock-free path.
func (r *constructRing) overflowInstance(slot *constructSlot, want, seq int64, create func() any) (any, bool) {
	// Raise the gate before validating (rule 1): a concurrent ring claimer
	// for seq that completes its CAS after our validation reads a non-zero
	// gate and takes the mutex before publishing.
	r.overflowLive.Add(1)
	r.mu.Lock()
	cur := slot.claimed.Load()
	if cur == want || cur&1 == 0 {
		// Slot now owned by seq, or free: back off to the lock-free path.
		r.mu.Unlock()
		r.overflowLive.Add(-1)
		return nil, false
	}
	if r.overflow == nil {
		r.overflow = make(map[int64]*construct)
	}
	c, ok := r.overflow[seq]
	if ok {
		// Entry already live; undo the pessimistic double-count.
		r.overflowLive.Add(-1)
	} else {
		c = &construct{state: create()}
		r.overflow[seq] = c
		r.overflows++
	}
	r.mu.Unlock()
	return c.state, true
}

// release marks the calling thread done with construct seq, identified by
// the slot handle instance returned (nil = overflow map), and frees the
// instance once every one of the n team threads has released it.
func (r *constructRing) release(slot *constructSlot, seq int64, n int32) {
	if slot != nil {
		if slot.done.Add(1) == n {
			slot.state = nil
			slot.ready.Store(false)
			slot.claimed.Store(seq << 1) // inactive: claimable again
		}
		return
	}
	r.mu.Lock()
	if c, ok := r.overflow[seq]; ok {
		c.done++
		if c.done == int32(n) {
			delete(r.overflow, seq)
			r.overflowLive.Add(-1)
		}
	}
	r.mu.Unlock()
}
