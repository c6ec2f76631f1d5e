// Package trace is the runtime's OMPT-style introspection layer: an
// event-level record of what happened inside parallel regions — forks and
// joins, implicit tasks, barrier waits, worksharing chunk dispatch, explicit
// task creation/execution/stealing, worker parks and wakes — captured into
// per-thread lock-free ring buffers and exported as Chrome trace-event JSON
// (loadable in Perfetto) or reduced to per-region metrics.
//
// The design mirrors what LLVM/OpenMP exposes through its OMPT tools
// interface: the runtime is instrumented at its hot sites, but the entire
// mechanism sits behind the one observer snapshot the openmp.Runtime hands
// each region (openmp/hooks.go), so a runtime that is not tracing pays one
// predictable nil-check per site and allocates nothing. When tracing is enabled, Emit
// writes one fixed-size Event into the calling thread's preallocated ring —
// still allocation-free — and a full ring drops new events (counting them)
// rather than blocking or growing.
//
// Concurrency contract: each ring has exactly one producer (the owning team
// thread, via Emit) and the Tracer as a whole has exactly one consumer
// (Drain/Collect, typically openmp.Runtime.StopTrace). Producer and consumer
// may run concurrently — the rings are classic single-producer
// single-consumer queues whose head/tail words carry the happens-before
// edges — but two concurrent drainers are not allowed.
package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the OMPT-style event kinds the runtime emits.
type Kind uint8

// Event kinds. Span kinds come in Begin/End (or Enter/Leave, Fork/Join)
// pairs on the same thread; the rest are instants.
const (
	// KindRegionFork marks the primary thread dispatching a parallel
	// region; Arg is the team size. Emitted before workers are released, so
	// it precedes every event of the region.
	KindRegionFork Kind = iota + 1
	// KindRegionJoin marks the primary thread returning from the region's
	// end barrier: the join of the fork–join pair.
	KindRegionJoin
	// KindImplicitBegin/End bracket one thread's implicit task — its
	// execution of the region body plus task drain and end barrier.
	KindImplicitBegin
	KindImplicitEnd
	// KindBarrierEnter/Leave bracket one thread's passage through a team
	// barrier, parked or spinning; Arg is 1 for an explicit barrier and 0
	// for the implicit end-of-region one, whose enter is the thread's
	// arrival.
	KindBarrierEnter
	KindBarrierLeave
	// KindChunk marks one worksharing chunk claim by the thread; Arg packs
	// the chunk's iteration count and the claim's span (see ChunkArg). The
	// last claim of a dynamic or guided loop finds it exhausted and carries
	// zero iterations: it is scheduling time, not a chunk.
	KindChunk
	// KindTaskCreate marks an explicit task being spawned.
	KindTaskCreate
	// KindTaskBegin/End bracket the execution of one explicit task.
	KindTaskBegin
	KindTaskEnd
	// KindTaskSteal marks one steal visit that took at least one task never
	// stolen before from another thread's deque; Arg packs the victim thread
	// id, the batch size (how many such tasks — surplus re-stolen from an
	// earlier thief is not counted again, see openmp.Stats) and the victim's
	// NUMA-locality class — see StealArg.
	KindTaskSteal
	// KindPark/Wake bracket a thread's blocked wait once its blocktime
	// budget is spent: a worker's between regions (Region 0) or a task
	// wait's inside its region (Region that region's id).
	KindPark
	KindWake

	kindMax
)

var kindNames = [kindMax]string{
	KindRegionFork:    "region fork",
	KindRegionJoin:    "region join",
	KindImplicitBegin: "implicit task begin",
	KindImplicitEnd:   "implicit task end",
	KindBarrierEnter:  "barrier enter",
	KindBarrierLeave:  "barrier leave",
	KindChunk:         "chunk",
	KindTaskCreate:    "task create",
	KindTaskBegin:     "task begin",
	KindTaskEnd:       "task end",
	KindTaskSteal:     "task steal",
	KindPark:          "park",
	KindWake:          "wake",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one timestamped trace record. Events are fixed-size (32 bytes)
// so a ring's storage is a single flat allocation.
type Event struct {
	// TS is nanoseconds on the runtime's observer clock, which Data.Start
	// anchors (monotonic); the profiler folds the same stamps.
	TS int64
	// Arg is the kind-specific payload (team size, barrier kind, packed
	// chunk or steal fields); zero when the kind carries none.
	Arg int64
	// Region is the parallel-region id the event belongs to (the runtime's
	// global region counter, shared by every nesting level so inner regions
	// get ids distinct from their enclosing region), 0 for events before the
	// first region.
	Region uint64
	// Tid numbers the ring the event was written to, in the order the
	// tracer handed rings out: the outer team's threads hold 0..n-1, an
	// inner team's workers hold their own rings and its thread 0 writes to
	// its parent's, so every goroutine owns exactly one ring.
	Tid int32
	// Kind is the event kind.
	Kind Kind
	// Level is the nesting depth of the region the event belongs to: 0 for
	// the outer team, 1 for its inner teams, and so on.
	Level uint8
}

// StealLocality classifies a steal victim's NUMA distance from the thief.
type StealLocality int64

const (
	// StealLocalityUnknown: the runtime had no placement or place-distance
	// model, so locality was not classified.
	StealLocalityUnknown StealLocality = 0
	// StealLocalityLocal: the victim's place is no farther than the thief's
	// own place's self-distance (same place or same NUMA node).
	StealLocalityLocal StealLocality = 1
	// StealLocalityRemote: the victim sits on a farther NUMA node.
	StealLocalityRemote StealLocality = 2
)

// String names the locality class.
func (l StealLocality) String() string {
	switch l {
	case StealLocalityLocal:
		return "local"
	case StealLocalityRemote:
		return "remote"
	}
	return "unknown"
}

// StealArg packs a KindTaskSteal payload into Event.Arg: the victim thread
// id in bits 0–15, the batch size in bits 16–31, and the locality class in
// bits 32–33. Decoded by Event.StealVictim, StealBatch and StealLocality.
func StealArg(victim, batch int, loc StealLocality) int64 {
	return int64(victim)&0xffff | (int64(batch)&0xffff)<<16 | int64(loc)<<32
}

// StealVictim returns the victim thread id of a KindTaskSteal event.
func (e Event) StealVictim() int { return int(e.Arg & 0xffff) }

// StealBatch returns how many tasks a KindTaskSteal event transferred.
func (e Event) StealBatch() int { return int(e.Arg >> 16 & 0xffff) }

// StealLocality returns the NUMA-locality class of a KindTaskSteal event.
func (e Event) StealLocality() StealLocality {
	l := StealLocality(e.Arg >> 32 & 0x3)
	if l > StealLocalityRemote {
		l = StealLocalityUnknown
	}
	return l
}

// Field bounds of ChunkArg: iterations saturate at chunkMaxIters, the
// claim span at chunkMaxClaim ns (about 2.1 s).
const (
	chunkMaxIters = 1<<32 - 1
	chunkMaxClaim = 1<<31 - 1
)

// ChunkArg packs a KindChunk payload into Event.Arg: the iteration count in
// bits 0–31 and the claim's span in nanoseconds in bits 32–62, each
// saturating at its field's maximum rather than wrapping; negative values
// read as zero. Decoded by Event.ChunkIters and ClaimNS.
func ChunkArg(iters int, claimNS int64) int64 {
	return min(max(int64(iters), 0), chunkMaxIters) | min(max(claimNS, 0), chunkMaxClaim)<<32
}

// ChunkIters returns the iterations a KindChunk event handed out, zero for a
// claim that found its loop exhausted.
func (e Event) ChunkIters() int { return int(e.Arg & chunkMaxIters) }

// ClaimNS returns the span of the claim a KindChunk event closed: the
// scheduling time since the thread's previous chunk body, zero for a static
// chunk, which is computed rather than claimed.
func (e Event) ClaimNS() int64 { return e.Arg >> 32 }

// cacheLine is the padding granularity separating independently written hot
// words, matching the openmp package's layout convention.
const cacheLine = 64

// Ring is one thread's event buffer: a power-of-two single-producer
// single-consumer queue. The producer (the owning thread) writes buf[head]
// and publishes with a head store; the consumer reads buf[tail] and frees
// the slot with a tail store. A full ring drops the new event — tracing
// must never block or resize on the hot path — and counts the drop.
type Ring struct {
	buf  []Event
	mask uint64
	_    [cacheLine - 32]byte
	// head is the next write position; written only by the producer.
	head atomic.Uint64
	_    [cacheLine - 8]byte
	// tail is the next read position; written only by the consumer.
	tail atomic.Uint64
	_    [cacheLine - 8]byte
	// dropped counts events discarded because the ring was full.
	dropped atomic.Uint64
	_       [cacheLine - 8]byte
}

// DefaultBufferSize is the per-thread ring capacity (in events) used when a
// caller asks for 0.
const DefaultBufferSize = 1 << 16

// MaxBufferSize is the largest per-thread ring capacity New accepts: 2^24
// events, 512 MiB of ring per thread.
const MaxBufferSize = 1 << 24

// Tracer collects events from one runtime's threads. Create one per tracing
// session (openmp.Runtime.StartTrace does) and hand each producing thread
// its own ring with NewRing; a ring is allocated whole when it is handed
// out, so Emit never allocates.
type Tracer struct {
	start time.Time // zero of the event stamps
	size  int       // events per ring, a power of two

	mu    sync.Mutex // guards rings: NewRing may race a drain
	rings []*Ring
}

// New returns a tracer whose rings hold eventsPerThread events each,
// rounded up to a power of two, and whose events are stamped in
// nanoseconds since start; 0 or less means DefaultBufferSize, more than
// MaxBufferSize is an error.
func New(eventsPerThread int, start time.Time) (*Tracer, error) {
	if eventsPerThread <= 0 {
		eventsPerThread = DefaultBufferSize
	}
	if eventsPerThread > MaxBufferSize {
		return nil, fmt.Errorf("trace: ring capacity %d events exceeds the maximum %d", eventsPerThread, MaxBufferSize)
	}
	return &Tracer{start: start, size: 1 << bits.Len(uint(eventsPerThread-1))}, nil
}

// NewRing allocates a ring for one producing thread. Rings are numbered in
// the order they are handed out, and that number is the Tid of their events.
func (t *Tracer) NewRing() *Ring {
	r := &Ring{buf: make([]Event, t.size), mask: uint64(t.size - 1)}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// snapshot returns the rings handed out so far.
func (t *Tracer) snapshot() []*Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rings
}

// Emit records one event, stamped by the caller, on the ring. It is
// allocation-free and never blocks; events emitted while the ring is full
// are dropped and counted. Only the ring's own thread may call it (its
// single producer).
func (r *Ring) Emit(e Event) {
	head := r.head.Load()
	if head-r.tail.Load() >= uint64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[head&r.mask] = e
	r.head.Store(head + 1) // release: publishes the slot to the consumer
}

// DrainAppend moves every published event from all rings into dst (per-ring
// FIFO order, rings concatenated, each event stamped with its ring's number)
// and returns the extended slice. It is the single-consumer side of the
// rings: at most one goroutine may drain at a time, concurrently with
// producers.
func (t *Tracer) DrainAppend(dst []Event) []Event {
	for i, r := range t.snapshot() {
		head := r.head.Load() // acquire: slots below head are fully written
		for tail := r.tail.Load(); tail != head; tail++ {
			e := r.buf[tail&r.mask]
			e.Tid = int32(i)
			dst = append(dst, e)
			// The slot must be copied out before the producer may reuse it.
			r.tail.Store(tail + 1)
		}
	}
	return dst
}

// Dropped returns the cumulative number of events discarded ring-full across
// all threads.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, r := range t.snapshot() {
		n += r.dropped.Load()
	}
	return n
}

// Data is a drained, time-ordered trace: what StopTrace hands back.
type Data struct {
	// Events in non-decreasing timestamp order; events with equal
	// timestamps keep their per-thread emission order.
	Events []Event
	// Threads is the number of rings the tracer handed out: event Tids
	// run over [0, Threads).
	Threads int
	// Dropped counts events lost to full rings; when nonzero, span pairs
	// may be incomplete.
	Dropped uint64
	// Start anchors Event.TS zero on the wall clock.
	Start time.Time
}

// Collect drains all rings and returns the events merged into timestamp
// order. Like DrainAppend it is single-consumer.
func (t *Tracer) Collect() Data {
	evs := t.DrainAppend(nil)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return Data{Events: evs, Threads: len(t.snapshot()), Dropped: t.Dropped(), Start: t.start}
}
