package openmp

import (
	"sync"
	"sync/atomic"
)

// cacheLineSize is the padding granularity used to keep independently
// mutated hot words (construct slots, stats shards, barrier counters) on
// separate cache lines. 64 bytes covers x86; the A64FX's 256-byte lines are
// modeled by KMP_ALIGN_ALLOC, not by struct layout.
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
//
// word is the active construct's shared state — a Single's winner flag, a
// guided loop's count of iterations handed out, an atomic or critical
// reduction's accumulator — and mu is the critical reduction's lock. A
// dynamic loop keeps its state in the team's steal words for the slot
// instead (Team.stealWords). The last release zeroes word, and a dynamic
// loop's steal words, before it frees the slot, so every construct starts
// from zero and no construct publishes anything on entry.
type constructSlot struct {
	claimed atomic.Int64
	done    atomic.Int32 // releases of the active construct
	word    atomic.Uint64
	mu      sync.Mutex
	_       [cacheLineSize - 32]byte // one slot per cache line
}

// constructRing is a team's one construct-state store: a fixed ring of
// atomically claimed slots indexed by construct sequence number. The
// steady-state enter path is one CAS or one atomic load; release is one
// atomic add.
//
// Construct seq uses slot seq mod constructRingSize, whose previous occupant
// is seq-constructRingSize. A thread that finds that construct still active
// has run constructRingSize constructs past a teammate that has not yet
// released it, and waits for the release. This cannot deadlock in a
// conforming program: no construct between the two has a barrier (else the
// thread could not be this far ahead), a nowait Single and a dynamic or
// guided chunk claim or steal never wait on a teammate, and OpenMP forbids a
// worksharing region inside a critical one, so the teammate always reaches
// its release. The wait spins under the zero policy, yielding between polls
// and never parking, because a teammate's release posts to no parker.
type constructRing struct {
	slots [constructRingSize]constructSlot
}

// enter returns the slot of the construct with sequence number seq, claiming
// it on first arrival. Every team thread must pass the slot to release.
func (r *constructRing) enter(seq int64) *constructSlot {
	slot := &r.slots[seq&(constructRingSize-1)]
	want := seq<<1 | 1
	for {
		cur := slot.claimed.Load()
		switch {
		case cur == want:
			return slot
		case cur&1 == 1:
			// The slot's previous construct is still active: wait until a
			// teammate's release frees it.
			waitPolicy{}.spin(func() bool { return slot.claimed.Load() != cur })
		case slot.claimed.CompareAndSwap(cur, want):
			return slot
		}
	}
}

// release marks the calling thread done with the slot's active construct and,
// once every one of the n team threads has released it, zeroes the slot's
// state — its word and steal, the steal words of a dynamic loop (nil for any
// other construct) — and frees it. The zeroing happens before the
// claimed store, which happens before the next claimant's CAS, which happens
// before any teammate loads the claimed word it wrote: whoever enters the
// slot next sees zero words.
func (slot *constructSlot) release(n int, steal []stealWord) {
	if slot.done.Add(1) == int32(n) {
		slot.word.Store(0)
		for i := range steal {
			steal[i].Store(0)
		}
		slot.done.Store(0)
		slot.claimed.Add(-1) // clear the active bit: claimable again
	}
}
