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
	"sort"
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
	// barrier (explicit or the implicit end-of-region barrier); the span is
	// the thread's barrier wait, parked or spinning.
	KindBarrierEnter
	KindBarrierLeave
	// KindChunk marks one worksharing chunk dispatched to the thread; Arg
	// is the chunk's iteration count.
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
	// KindPark/Wake mark a worker exhausting its blocktime budget between
	// regions and being woken for the next one; Region is the awaited
	// generation.
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
	// TS is nanoseconds since the tracer was created (monotonic clock).
	TS int64
	// Arg is the kind-specific payload (team size, chunk iterations,
	// steal victim); zero when the kind carries none.
	Arg int64
	// Region is the parallel-region id the event belongs to (the runtime's
	// global region counter, shared by every nesting level so inner regions
	// get ids distinct from their enclosing region), 0 for events before the
	// first region.
	Region uint64
	// Tid is the global thread id that emitted the event. Outer-team
	// threads keep their team-local ids; inner-team workers get fresh ids
	// past the outer team, so every goroutine owns exactly one ring.
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
// Events written before batch stealing carried only the victim id; their
// zero batch field decodes as 1 (one event was one stolen task).
func (e Event) StealBatch() int {
	b := int(e.Arg >> 16 & 0xffff)
	if b == 0 {
		b = 1
	}
	return b
}

// StealLocality returns the NUMA-locality class of a KindTaskSteal event.
func (e Event) StealLocality() StealLocality {
	l := StealLocality(e.Arg >> 32 & 0x3)
	if l > StealLocalityRemote {
		l = StealLocalityUnknown
	}
	return l
}

// cacheLine is the padding granularity separating independently written hot
// words, matching the openmp package's layout convention.
const cacheLine = 64

// ring is one thread's event buffer: a power-of-two single-producer
// single-consumer queue. The producer (the owning thread) writes buf[head]
// and publishes with a head store; the consumer reads buf[tail] and frees
// the slot with a tail store. A full ring drops the new event — tracing
// must never block or resize on the hot path — and counts the drop.
type ring struct {
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

func (r *ring) init(capacity int) {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r.buf = make([]Event, n)
	r.mask = uint64(n - 1)
}

// emit appends one event, or counts a drop when the ring is full.
func (r *ring) emit(e Event) {
	head := r.head.Load()
	if head-r.tail.Load() >= uint64(len(r.buf)) {
		r.dropped.Add(1)
		return
	}
	r.buf[head&r.mask] = e
	r.head.Store(head + 1) // release: publishes the slot to the consumer
}

// drainAppend moves every published event into dst, oldest first.
func (r *ring) drainAppend(dst []Event) []Event {
	head := r.head.Load() // acquire: slots below head are fully written
	for tail := r.tail.Load(); tail != head; tail++ {
		dst = append(dst, r.buf[tail&r.mask])
		// The slot must be copied out before the producer may reuse it.
		r.tail.Store(tail + 1)
	}
	return dst
}

// DefaultBufferSize is the per-thread ring capacity (in events) used when a
// caller asks for 0.
const DefaultBufferSize = 1 << 16

// Tracer collects events from one runtime's team. Create one per tracing
// session (openmp.Runtime.StartTrace does); rings are preallocated at
// construction so Emit never allocates.
type Tracer struct {
	start time.Time
	rings []ring
}

// New returns a tracer with one ring per thread id in [0, threads) — pass
// the runtime's live global-thread-id count so inner-team workers get rings
// too — with eventsPerThread ring capacity per thread (rounded up to a
// power of two; 0 means DefaultBufferSize).
func New(threads, eventsPerThread int) *Tracer {
	if threads < 1 {
		threads = 1
	}
	if eventsPerThread <= 0 {
		eventsPerThread = DefaultBufferSize
	}
	t := &Tracer{start: time.Now(), rings: make([]ring, threads)}
	for i := range t.rings {
		t.rings[i].init(eventsPerThread)
	}
	return t
}

// Threads returns the number of per-thread rings.
func (t *Tracer) Threads() int { return len(t.rings) }

// Start returns the wall-clock anchor of timestamp zero.
func (t *Tracer) Start() time.Time { return t.start }

// Emit records one event on thread tid's ring, stamped with the nesting
// level of the emitting region. It is allocation-free and never blocks;
// events emitted while the ring is full are dropped and counted. Emit must
// only be called by tid's own goroutine (the single producer of its ring).
// Out-of-range tids are ignored — in particular, inner-team workers created
// after the tracer (their rings don't exist) silently trace nothing instead
// of corrupting a foreign ring.
func (t *Tracer) Emit(tid, level int, k Kind, region uint64, arg int64) {
	if tid < 0 || tid >= len(t.rings) {
		return
	}
	t.rings[tid].emit(Event{
		TS:     int64(time.Since(t.start)),
		Arg:    arg,
		Region: region,
		Tid:    int32(tid),
		Kind:   k,
		Level:  uint8(level),
	})
}

// DrainAppend moves every published event from all rings into dst (per-ring
// FIFO order, rings concatenated) and returns the extended slice. It is the
// single-consumer side of the rings: at most one goroutine may drain at a
// time, concurrently with producers.
func (t *Tracer) DrainAppend(dst []Event) []Event {
	for i := range t.rings {
		dst = t.rings[i].drainAppend(dst)
	}
	return dst
}

// Dropped returns the cumulative number of events discarded ring-full across
// all threads.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for i := range t.rings {
		n += t.rings[i].dropped.Load()
	}
	return n
}

// Data is a drained, time-ordered trace: what StopTrace hands back.
type Data struct {
	// Events in non-decreasing timestamp order; events with equal
	// timestamps keep their per-thread emission order.
	Events []Event
	// Threads is the team size the tracer covered.
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
	return Data{Events: evs, Threads: len(t.rings), Dropped: t.Dropped(), Start: t.start}
}
