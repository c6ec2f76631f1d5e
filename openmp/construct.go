package openmp

import "sync/atomic"

// cacheLineSize is the padding granularity used to keep independently
// mutated hot words (construct slots, stats shards, barrier counters, loop
// cursors) on separate cache lines. 64 bytes covers x86; the A64FX's 256-byte
// lines are modeled by KMP_ALIGN_ALLOC, not by struct layout.
const cacheLineSize = 64

// constructRingSize is the number of construct slots per team. A thread can
// run at most this many nowait constructs ahead of its slowest teammate: the
// next one waits until its slot's previous construct is released, as a
// libomp thread waits for one of its KMP_MAX_DISP_NUM_BUFF dispatch buffers.
// Any construct containing a barrier bounds the lead, so the wait is only
// reachable through long runs of nowait constructs. Must be a power of two.
const constructRingSize = 64

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

// constructRing is a team's one construct-state store: a fixed ring of
// atomically claimed slots indexed by construct sequence number. The
// steady-state instance path is one CAS plus one atomic load; release is one
// atomic add.
//
// Construct seq uses slot seq mod constructRingSize, whose previous occupant
// is seq-constructRingSize. A thread that finds that construct still active
// has run constructRingSize constructs past a teammate that has not yet
// released it, and waits for the release. This cannot deadlock in a
// conforming program: no construct between the two has a barrier (else the
// thread could not be this far ahead), a nowait Single and a dynamic or
// guided chunk claim never wait on a teammate, and OpenMP forbids a
// worksharing region inside a critical one, so the teammate always reaches
// its release. Both waits spin under the zero policy, never parking, because
// neither a claimer's publish nor a teammate's release posts to a parker.
type constructRing struct {
	slots [constructRingSize]constructSlot
}

// instance returns the shared state for the construct with sequence number
// seq, creating it with create on first arrival; create runs exactly once
// per construct across the team. The returned slot must be passed to
// release.
func (r *constructRing) instance(seq int64, create func() any) (any, *constructSlot) {
	slot := &r.slots[seq&(constructRingSize-1)]
	want := seq<<1 | 1
	for {
		cur := slot.claimed.Load()
		switch {
		case cur == want:
			// seq holds the slot: wait for the claimer to publish.
			waitPolicy{}.spin(slot.ready.Load)
			return slot.state, slot
		case cur&1 == 1:
			// The slot's previous construct is still active: wait until a
			// teammate's release frees it.
			waitPolicy{}.spin(func() bool { return slot.claimed.Load() != cur })
		default:
			// Slot inactive: claim it.
			if !slot.claimed.CompareAndSwap(cur, want) {
				continue
			}
			slot.done.Store(0)
			slot.state = create()
			slot.ready.Store(true)
			return slot.state, slot
		}
	}
}

// release marks the calling thread done with construct seq, the slot's
// active construct, and frees the slot once every one of the n team threads
// has released it.
func (slot *constructSlot) release(seq int64, n int32) {
	if slot.done.Add(1) == n {
		slot.state = nil
		slot.ready.Store(false)
		slot.claimed.Store(seq << 1) // inactive: claimable again
	}
}
