package openmp

import (
	"cmp"
	"slices"
	"sync/atomic"

	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// Team is one fork–join instance: n threads executing the same region body.
// Shared construct state (loop cursors, reduction accumulators, single
// winners) is keyed by a per-thread construct sequence number, which
// requires — exactly as OpenMP does — that all threads of a team encounter
// the team's worksharing constructs in the same order.
//
// The runtime keeps hot teams alive (libomp's KMP_HOT_TEAMS behaviour): the
// outer team for the Runtime's whole lifetime, and one cached inner team
// per forking Thread (see Thread.Parallel). A team's Thread structs,
// construct ring and task pool are allocated once and reused by every
// region it runs, so steady-state fork–join at any nesting level performs
// no allocations. Only serialized nested fallbacks are built per call.
//
// Every team is its own contention group: its barrier, construct ring,
// task deques and steal scans reference only tm.threads, so inner-team
// synchronization never generates CAS traffic on another team's cache
// lines.
type Team struct {
	rt   *Runtime
	n    int
	body func(*Thread)
	// loop is the region's loop when body is forRegion or sumRegion,
	// published like body.
	loop teamLoop

	// parent is the thread that forked the team, nil for the outer hot team
	// and the transient serialized team.
	parent *Thread
	// level is the team's nesting depth: 0 for the outer hot team.
	level int
	// activeLevels counts the active (width > 1) levels enclosing and
	// including this team; nested forks compare it against
	// OMP_MAX_ACTIVE_LEVELS to decide whether to serialize.
	activeLevels int

	// regionID identifies the team's currently-running region, stamped
	// from rt.regionSeq by dispatchRegion. Workers read it after acquiring
	// gen, which happens-after the dispatcher's store.
	regionID uint64

	// hooks is the observer snapshot the current region forked with (nil:
	// nothing attached, or the flush region); published like regionID.
	hooks *hooks

	// gen is the per-team region-generation counter this team's workers
	// wait on. Per-team — not runtime-global — so dispatching an inner
	// region can never phantom-wake another team's spinning workers.
	gen atomic.Uint64

	threads []Thread
	ring    constructRing
	bar     barrier

	// steal holds a dynamic loop's static-steal state: one padded word per
	// thread per ring slot, slot-major (stealWords); nil unless the
	// runtime's schedule is dynamic.
	steal []stealWord

	// tree is the tree reduction's double buffer: two halves of
	// padStride(KMP_ALIGN_ALLOC) float64s per thread on a KMP_ALIGN_ALLOC
	// boundary; nil unless the team's reductions resolve to the tree method.
	// Successive reductions alternate halves (Thread.reduce).
	tree []float64

	// prof holds one profile slot per thread, indexed by thread id: each
	// thread writes only its own while a profiler is attached, and the
	// primary folds them all at region quiescence. nil for the transient
	// serialized team, which is unprofiled.
	prof []profile.Scratch
	// stats holds one stats shard per thread, indexed by thread id; Stats
	// sums them across the team registry. nil for the transient serialized
	// team, whose thread counts on the runtime's misc shard.
	stats []statShard

	pool *taskPool
	// implicit holds one implicit-task descriptor per thread, indexed by
	// thread id: a task spawned outside any explicit task is a child of its
	// spawning thread's, so a top-level TaskWait waits for that thread's
	// children only, never for its teammates' (OpenMP's binding rule). Each
	// holds its own reference for the team's lifetime, so none is recycled.
	implicit []task

	// stealOrder holds each thread's victim scan order, n-1 ids a thread
	// back to back (see victims), sorted by the NUMA distance from the
	// thread's bound place (ring order within a distance class). It is nil
	// when the runtime has no placement or no place-distance model, in which
	// case stealing falls back to the rotating uniform scan.
	stealOrder []int32
}

// newTeam builds a width-n team; the region body is assigned per region by
// dispatchRegion before any thread calls run. parent is the thread forking a
// nested team, nil for the outer hot team; a nested team sits one level
// below its parent's. Either owns its threads' stats shards and profile
// slots, takes trace rings when its parent's region is traced (takeRings),
// registers with the runtime and spawns its workers at once, so caching a
// nested team on its parent makes later same-width forks allocation-free.
//
// transient builds instead the throwaway team of the serialized nested
// fallback (Runtime.Parallel inside an active region): level 1 inside the
// active outer level, counters on the misc shard, unregistered, unprofiled
// and untraced (the calling goroutine may already own a ring at another
// level, and a second producer on it is forbidden).
func newTeam(rt *Runtime, parent *Thread, n int, transient bool) *Team {
	tm := &Team{
		rt:       rt,
		n:        n,
		parent:   parent,
		threads:  make([]Thread, n),
		pool:     &taskPool{deques: make([]taskDeque, n)},
		implicit: make([]task, n),
		tree:     treeBuffer(rt.opts, n),
	}
	if rt.opts.Schedule == ScheduleDynamic {
		tm.steal = make([]stealWord, constructRingSize*n)
	}
	switch {
	case transient:
		tm.level, tm.activeLevels = 1, 1
	case parent != nil:
		tm.level, tm.activeLevels = parent.team.level+1, parent.team.activeLevels
	}
	if n > 1 {
		tm.activeLevels++
	}
	for i := range tm.threads {
		tm.implicit[i].refs.Store(1) // held for the team's lifetime
		th := &tm.threads[i]
		th.team = tm
		th.id = i
		th.parker.token = make(chan struct{}, 1)
		th.stats = &rt.misc
	}
	if transient {
		return tm
	}
	tm.stats = make([]statShard, n)
	tm.prof = make([]profile.Scratch, n)
	for i := range tm.threads {
		tm.threads[i].stats = &tm.stats[i]
	}
	if parent == nil {
		tm.stealOrder = buildStealOrder(rt.placement, rt.opts.PlaceDistances, n)
	} else if h := parent.team.hooks; h != nil && h.tr != nil {
		tm.takeRings(h.tr)
	}
	rt.registerTeam(tm)
	tm.spawnWorkers()
	return tm
}

// takeRings hands the team's threads rings from tr. A nested team's thread 0
// runs on its parent's goroutine and shares its parent's ring, so each ring
// keeps one producer; a team under a ringless (transient) parent stays
// untraced.
func (tm *Team) takeRings(tr *trace.Tracer) {
	first := 0
	if tm.parent != nil {
		if tm.parent.ring == nil {
			return
		}
		tm.threads[0].ring = tm.parent.ring
		first = 1
	}
	for i := first; i < tm.n; i++ {
		tm.threads[i].ring = tr.NewRing()
	}
}

// spawnWorkers starts the team's n-1 worker goroutines (thread slots 1..n-1).
func (tm *Team) spawnWorkers() {
	for slot := 1; slot < tm.n; slot++ {
		tm.rt.wg.Add(1)
		go tm.work(slot)
	}
}

// work is the life of the pooled worker in thread slot: between regions it
// waits (siteRegion) for the team's generation to pass the last region it
// ran, runs the next one, and exits once Close advances it. A worker lags at
// most one generation: a region's end barrier cannot pass without it.
func (tm *Team) work(slot int) {
	rt := tm.rt
	defer rt.wg.Done()
	th := &tm.threads[slot]
	for seen := uint64(0); ; seen++ {
		th.wait(siteRegion, func() bool { return tm.gen.Load() > seen })
		if rt.shutdown.Load() {
			return
		}
		tm.run(slot)
	}
}

// advance publishes the team's next generation and unparks its waiting
// workers: a region's dispatch, or the release Close asks for.
func (tm *Team) advance() {
	tm.gen.Add(1)
	tm.unpark(siteRegion)
}

// dispatchRegion runs one region on the team with the calling goroutine as
// thread 0: stamp a fresh region id, publish the body via the gen bump,
// wake parked workers, run, join at the end-of-region barrier. counted=false
// is the StopTrace flush path — invisible to the stats counters and, being
// handed no observer snapshot, to every observer. pc is the construct
// identity the profiler keys the region by (zero when profiling is off).
func (tm *Team) dispatchRegion(body func(*Thread), counted bool, pc uintptr) {
	rt := tm.rt
	var h *hooks
	if counted {
		tm.threads[0].stats.regions.Add(1)
		if tm.level > 0 {
			tm.threads[0].stats.nestedRegions.Add(1)
		}
		h = rt.hooks.Load()
	}
	tm.body = body
	tm.regionID = rt.regionSeq.Add(1)
	tm.hooks = h
	var forkAt int64
	if h != nil {
		forkAt = h.regionFork(tm)
	}
	// Publish the region: the gen bump is the release edge workers acquire
	// tm.body, tm.regionID and tm.hooks through.
	tm.advance()
	tm.run(0)
	// The end-of-region barrier doubles as the join: every worker has
	// finished the body (its last tm accesses precede its barrier arrival,
	// which precedes the primary's barrier pass).
	if h != nil {
		h.regionJoin(tm, pc, forkAt)
	}
	tm.body, tm.hooks = nil, nil
}

// buildStealOrder precomputes each thread's distance-sorted victim order
// from the thread→place assignment and the pairwise place distances, one
// flat table for the team. Within one distance class victims keep ring
// order (i+1, i+2, … mod n), so equidistant victims are still scanned
// fairly rather than all threads hammering the same lowest-numbered one.
func buildStealOrder(placement []int, dist [][]float64, n int) []int32 {
	if placement == nil || len(dist) == 0 || n < 2 {
		return nil
	}
	for i := 0; i < n; i++ {
		if placement[i] < 0 || placement[i] >= len(dist) {
			return nil
		}
	}
	order := make([]int32, n*(n-1))
	for i := 0; i < n; i++ {
		row := dist[placement[i]]
		victims := order[i*(n-1) : (i+1)*(n-1)]
		for k := 1; k < n; k++ { // ring order seeds the within-class tiebreak
			victims[k-1] = int32((i + k) % n)
		}
		slices.SortStableFunc(victims, func(a, b int32) int {
			return cmp.Compare(row[placement[a]], row[placement[b]])
		})
	}
	return order
}

// victims returns thread i's victim scan order; stealOrder must be set.
func (tm *Team) victims(i int) []int32 {
	return tm.stealOrder[i*(tm.n-1) : (i+1)*(tm.n-1)]
}

// localVictim classifies victim as NUMA-local to thread i: its place is no
// farther than i's own place's self-distance (same place, or another place
// on the same NUMA node). stealOrder must be set, which vouches for the
// placement and the distances.
func (tm *Team) localVictim(i, victim int) bool {
	pl := tm.rt.placement
	row := tm.rt.opts.PlaceDistances[pl[i]]
	return row[pl[victim]] <= row[pl[i]]
}

// run executes the region body as thread tid, drains leftover explicit
// tasks, and passes the implicit end-of-region barrier. The barrier doubles
// as the join: when the primary thread (tid 0) returns, every team thread
// has finished the region.
func (tm *Team) run(tid int) {
	th := &tm.threads[tid]
	th.curTask = &tm.implicit[tid]
	th.regionID = tm.regionID
	// th.seq is deliberately NOT reset: construct sequence numbers stay
	// unique for the team's lifetime, which the construct ring's slot
	// identity encoding relies on. All threads execute the same construct
	// count per region, so the counters stay aligned across regions.
	//
	// h is read once: a worker closes its implicit task after the primary
	// may already be forking the next region.
	h := tm.hooks
	if h != nil {
		h.implicitBegin(th)
	}
	tm.body(th)
	th.drainTasks()
	// The chunks the region handed this thread reach its stats shard in one
	// atomic add, before the barrier that makes Stats.Chunks exact.
	if th.chunks != 0 {
		th.stats.chunks.Add(th.chunks)
		th.chunks = 0
	}
	tm.barrierWait(th, false)
	if h != nil {
		h.implicitEnd(th)
	}
	th.regionID = 0
}

// barrierWait passes the team barrier as one observed span. All barrier
// entries (implicit end-of-region and explicit Thread.Barrier) funnel
// through here so every observer sees every wait.
func (tm *Team) barrierWait(th *Thread, explicit bool) {
	h := tm.hooks
	var enterAt int64
	if h != nil {
		enterAt = h.barrierEnter(th, explicit)
	}
	tm.arrive(th)
	if h != nil {
		h.barrierLeave(th, explicit, enterAt)
	}
}

// Thread is the per-thread view of a parallel region, passed to the region
// body. It is not safe to share a Thread between goroutines. Threads are
// cache-line padded: they live in the hot team's contiguous array. The first
// line holds what teammates touch — the parker every task push and completion
// scans, the stack they return task descriptors on — beside fields set once;
// the second the mutable fields (seq, stealAt, curTask, free, reductions)
// written region after region.
type Thread struct {
	team   *Team
	id     int
	ring   *trace.Ring // this thread's trace ring while traced, else nil
	parker parker      // the one place this thread sleeps (wait.go)
	stats  *statShard  // this thread's stats shard
	// returned is the stack of this thread's task descriptors that teammates
	// released (Thread.release), linked through parent; newTask takes it
	// whole once free runs dry.
	returned atomic.Pointer[task]

	// inner is this thread's cached nested hot team — the per-level
	// hot-team cache. It is built on the first nested fork and reused by
	// every later one, so steady-state nested fork–join allocates nothing and
	// re-spawns no goroutines. Its width depends only on the options and the
	// team's activeLevels, so it never changes, and the team keeps its
	// OMP_THREAD_LIMIT grant until Close.
	inner *Team

	regionID uint64 // region of the implicit task being run, 0 between regions; see hooks.emit
	seq      int64  // ring constructs entered, team-lifetime monotonic
	curTask  *task
	free     *task  // this thread's free task descriptors, linked through parent; owner-only
	stealAt  int    // last productive steal victim (scan start position)
	spawns   int    // tasks spawned; every 32nd spawn is a yield point
	chunks   uint64 // chunks of the running region, not yet in stats
	// reductions counts the tree reductions this thread has entered; its
	// parity picks the half of the team's tree buffer the next one uses.
	reductions uint64
}

// ID returns the thread number within the team (0 = primary).
func (th *Thread) ID() int { return th.id }

// NumThreads returns the team size.
func (th *Thread) NumThreads() int { return th.team.n }

// Level returns the nesting depth of the region this thread is executing
// (0 = an outer region).
func (th *Thread) Level() int { return th.team.level }

// Parallel forks a nested parallel region from this thread: the body runs
// on an inner team whose width follows the OMP_NUM_THREADS per-level list
// for the next nesting level, clamped by OMP_MAX_ACTIVE_LEVELS (a region
// past the active-level limit serializes to width 1) and by the remaining
// OMP_THREAD_LIMIT budget (a fork the budget cannot fully cover runs with
// whatever width was granted — graceful serialization, never an error).
// The calling thread participates as the inner team's thread 0; the inner
// team is cached on this thread, so steady-state nested fork–join is
// allocation-free. Returns after the inner region's end barrier.
func (th *Thread) Parallel(body func(*Thread)) {
	th.innerTeam().dispatchRegion(body, true, th.team.rt.callerPC())
}

// innerTeam returns this thread's cached inner team, building it on the
// first fork. Width resolution: the OMP_NUM_THREADS list entry for the next
// level; then 1 if the active-level limit is reached; then clamped to 1 +
// whatever OMP_THREAD_LIMIT budget remains.
func (th *Thread) innerTeam() *Team {
	if th.inner != nil {
		return th.inner
	}
	rt := th.team.rt
	want := rt.opts.widthForLevel(th.team.level + 1)
	if want < 1 ||
		rt.opts.Library == LibSerial ||
		th.team.activeLevels >= rt.opts.effectiveMaxActiveLevels() {
		want = 1
	}
	granted := 1 // the forking thread itself is free
	if want > 1 {
		granted += rt.reserveThreads(want - 1)
	}
	th.inner = newTeam(rt, th, granted, false)
	return th.inner
}

// Place returns the place index this thread is bound to, or -1 when
// unbound.
func (th *Thread) Place() int {
	p := th.team.rt.placement
	if p == nil || th.id >= len(p) {
		return -1
	}
	return p[th.id]
}

// enter advances th's construct sequence and enters that construct's ring
// slot; th passes the slot back to release when it is done with it.
func (th *Thread) enter() *constructSlot {
	th.seq++
	return th.team.ring.enter(th.seq)
}

// stealWords returns the team's steal words for the ring slot of construct
// seq, one per thread.
func (tm *Team) stealWords(seq int64) []stealWord {
	i := int(seq&(constructRingSize-1)) * tm.n
	return tm.steal[i : i+tm.n]
}

// Barrier blocks until every thread of the team has called it (inner-team
// barriers involve only the inner team's threads).
func (th *Thread) Barrier() { th.team.barrierWait(th, true) }

// Master runs fn on the primary thread only. No implied barrier.
func (th *Thread) Master(fn func()) {
	if th.id == 0 {
		fn()
	}
}

// Single runs fn on the first thread to arrive at this construct; the other
// threads skip it. Nowait semantics: no implied barrier.
func (th *Thread) Single(fn func()) {
	slot := th.enter()
	if slot.word.CompareAndSwap(0, 1) {
		fn()
	}
	slot.release(th.team.n, nil)
}

// Critical runs fn under the process-wide named critical-section lock.
func (th *Thread) Critical(name string, fn func()) {
	mu := th.team.rt.criticalFor(name)
	mu.Lock()
	defer mu.Unlock()
	fn()
}

// barrier is the team's generation-counting (sense-reversing) barrier: the
// last arriver opens the next generation and unparks the waiters parked at
// it; the others wait for the generation to move (Thread.wait at
// siteBarrier). count and gen sit on separate cache lines so arrivals don't
// false-share with release polling.
type barrier struct {
	_     [cacheLineSize]byte
	count atomic.Int32
	_     [cacheLineSize - 4]byte
	gen   atomic.Uint64
	_     [cacheLineSize - 8]byte
}

// arrive passes th through the team barrier.
func (tm *Team) arrive(th *Thread) {
	if tm.n <= 1 {
		return
	}
	b := &tm.bar
	gen := b.gen.Load()
	if b.count.Add(1) == int32(tm.n) {
		b.count.Store(0)
		b.gen.Add(1)
		tm.unpark(siteBarrier)
		return
	}
	th.wait(siteBarrier, func() bool { return b.gen.Load() != gen })
}
