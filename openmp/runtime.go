package openmp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// budgetUnlimited is the contention-group thread budget used when
// OMP_THREAD_LIMIT is unset: large enough that no realistic nesting depth
// exhausts it, small enough that the int64 arithmetic can never wrap.
const budgetUnlimited = 1 << 30

// Runtime owns a pool of worker goroutines and executes fork–join parallel
// regions over them. Create one with New, use it from a single orchestrating
// goroutine, and release the workers with Close.
//
// The runtime keeps a hot team (libomp's KMP_HOT_TEAMS): the Team, Thread
// structs, construct ring and task pool are allocated once at New and reused
// by every region. Regions are dispatched to workers through a per-team
// generation counter — the dispatcher bumps the team's gen and workers
// observe the new generation on their spin path (or are unparked), so a
// steady-state Parallel call performs no allocations, and no channel
// operations while the workers spin.
//
// Nested parallelism is real: Thread.Parallel forks an inner region whose
// team comes from a per-level hot-team cache (each Thread caches the inner
// team it last forked, so steady-state nested fork–join reuses goroutines
// and allocates nothing). Every team is its own contention group — inner
// barriers, construct rings, task deques and steal scans touch only the
// team's own threads. Widths follow the OMP_NUM_THREADS per-level list,
// OMP_MAX_ACTIVE_LEVELS bounds how deep teams stay wider than one thread,
// and OMP_THREAD_LIMIT is enforced by an atomic global budget: a fork the
// budget cannot cover runs with whatever width was granted, down to
// serialized width 1 — never an error. Calling Runtime.Parallel (rather
// than Thread.Parallel) from inside an active region is the no-context
// nested entry; it serializes to width 1.
type Runtime struct {
	opts      Options
	bind      BindPolicy
	placement []int      // thread -> place index; nil when unbound
	wait      waitPolicy // KMP_LIBRARY, KMP_BLOCKTIME and GOMAXPROCS, resolved once

	regionMu sync.Mutex
	wg       sync.WaitGroup // every worker of every team, for Close
	closed   bool

	// regionActive is set for the duration of an outer region; a
	// Runtime.Parallel call observing it runs as a serialized nested region
	// instead of deadlocking on regionMu (which the outer region holds).
	regionActive atomic.Bool

	// shutdown tells workers returning from their between-region wait to
	// exit instead of running a region; Close raises it and advances every
	// live team's gen to release them.
	shutdown atomic.Bool

	hot *Team

	// regionSeq hands out globally unique region ids across all nesting
	// levels — trace events from an inner region must not collapse into
	// their enclosing region's records.
	regionSeq atomic.Uint64

	// budget is the remaining OMP_THREAD_LIMIT headroom for nested-team
	// workers: ThreadLimit minus the outer team, budgetUnlimited when the
	// limit is unset. Nested forks reserve from it with CAS
	// (reserveThreads) and cached teams keep their reservation until Close,
	// so steady-state nested dispatch touches no global atomics.
	budget atomic.Int64

	// teams registers every live team — the hot team first, then each
	// cached nested team after its parent's — and is the one way the
	// runtime reaches its threads: Close releases their workers, Stats sums
	// their shards, StartTrace hands them rings and StopTrace flushes them.
	teamsMu sync.Mutex
	teams   []*Team

	criticals sync.Map // name -> *sync.Mutex

	// misc is the stats shard of what runs on no team's own shards: Lock
	// parks and the transient serialized team.
	misc statShard

	// hooks is the one observer seam (hooks.go): the snapshot of attached
	// consumers, nil while all are off; hooksMu serializes its swaps.
	hooks   atomic.Pointer[hooks]
	hooksMu sync.Mutex
}

// Stats is a snapshot of runtime activity counters, useful for verifying
// that a configuration exercised the intended code paths (e.g. turnaround
// mode never sleeps) and for calibrating the performance model.
//
// Torn-read contract: the counters are sharded per thread and each shard
// word is read atomically, but Stats() does not stop the world — a snapshot
// taken while a region is executing (from another goroutine) or while
// workers are still winding down their between-region waits can mix counter
// values from different instants. Two guarantees bound the tearing:
//
//   - Region quiescence: when Parallel returns, Regions, NestedRegions,
//     Chunks, TasksRun, TasksStolen and the steal breakdown counters are
//     exact — every increment of those counters happens-before the
//     end-of-region barrier the primary thread passed (nested regions
//     complete strictly inside their enclosing region). Sleeps and Wakeups
//     may still trail, because a worker can exhaust its blocktime and park
//     after the region that released it has ended.
//   - Close: after Close returns, every worker has exited, all counters
//     are final and exact, and Sleeps == Wakeups (each counted sleep was
//     matched by a wake, including the shutdown wake).
type Stats struct {
	Regions     uint64 // parallel regions executed (all nesting levels)
	Sleeps      uint64 // parks: a waiter between regions, at a barrier, in a task wait or on a Lock outwaited its blocktime and slept
	Wakeups     uint64 // wakes of those parks
	TasksRun    uint64 // explicit tasks executed
	TasksStolen uint64 // tasks first taken from their spawner's deque by another thread
	Chunks      uint64 // worksharing chunks dispatched

	// One steal definition, shared with the trace summary and the profile
	// report (all three are fed from the same site): a task is stolen once,
	// when it first leaves its spawner's deque through a thief — batch
	// surplus a later thief takes from the first thief's deque is migration
	// of a task already counted. StealBatches counts the visits that took at
	// least one such task (one KindTaskSteal trace event each); the "steal
	// rate" TasksStolen / TasksRun is the share of executed tasks that were
	// stolen. StealsLocal/StealsRemote split TasksStolen by the first
	// victim's NUMA distance from the thief's bound place, zero without a
	// placement or a PlaceDistances model. At region quiescence:
	//
	//	StealBatches <= TasksStolen <= TasksRun
	//	StealsLocal + StealsRemote == TasksStolen (0 without a distance model)
	StealBatches uint64 // steal visits that took at least one not-yet-stolen task
	StealsLocal  uint64 // stolen tasks whose first victim was NUMA-local to the thief
	StealsRemote uint64 // stolen tasks whose first victim was on a farther NUMA node

	// NestedRegions counts the subset of Regions that ran at nesting level
	// >= 1 (threaded inner teams and serialized width-1 fallbacks alike).
	NestedRegions uint64
}

// Sub returns the counter-wise difference s − prev: the activity between
// two snapshots. Meaningful when both snapshots were taken at region
// quiescence (see the Stats contract).
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Regions:       s.Regions - prev.Regions,
		Sleeps:        s.Sleeps - prev.Sleeps,
		Wakeups:       s.Wakeups - prev.Wakeups,
		TasksRun:      s.TasksRun - prev.TasksRun,
		TasksStolen:   s.TasksStolen - prev.TasksStolen,
		Chunks:        s.Chunks - prev.Chunks,
		StealBatches:  s.StealBatches - prev.StealBatches,
		StealsLocal:   s.StealsLocal - prev.StealsLocal,
		StealsRemote:  s.StealsRemote - prev.StealsRemote,
		NestedRegions: s.NestedRegions - prev.NestedRegions,
	}
}

// statShard is one thread's private slice of the runtime counters, padded to
// a whole number of cache lines so two threads bumping their own counters
// never false-share. 10 words of counters + 48 bytes of padding = 128 bytes.
type statShard struct {
	regions       atomic.Uint64
	sleeps        atomic.Uint64
	wakeups       atomic.Uint64
	tasksRun      atomic.Uint64
	tasksStolen   atomic.Uint64
	chunks        atomic.Uint64
	stealBatches  atomic.Uint64
	stealsLocal   atomic.Uint64
	stealsRemote  atomic.Uint64
	nestedRegions atomic.Uint64
	_             [2*cacheLineSize - 80]byte
}

// addInto accumulates the shard into out with atomic loads.
func (sh *statShard) addInto(out *Stats) {
	out.Regions += sh.regions.Load()
	out.Sleeps += sh.sleeps.Load()
	out.Wakeups += sh.wakeups.Load()
	out.TasksRun += sh.tasksRun.Load()
	out.TasksStolen += sh.tasksStolen.Load()
	out.Chunks += sh.chunks.Load()
	out.StealBatches += sh.stealBatches.Load()
	out.StealsLocal += sh.stealsLocal.Load()
	out.StealsRemote += sh.stealsRemote.Load()
	out.NestedRegions += sh.nestedRegions.Load()
}

// New validates opts and starts NumThreads-1 worker goroutines (the caller
// of Parallel acts as thread 0). Serial mode starts no workers. When
// OMP_THREAD_LIMIT is smaller than the requested team, the team is clamped
// to it — the spec's thread-limit-var bounds the whole contention group,
// outer team included.
func New(opts Options) (*Runtime, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.ThreadLimit > 0 && opts.NumThreads > opts.ThreadLimit {
		opts.NumThreads = opts.ThreadLimit
	}
	rt := &Runtime{opts: opts, bind: opts.Bind.Resolve(len(opts.Places) > 0)}
	n := rt.NumThreads()
	rt.wait = opts.waitPolicy(opts.peakThreads(n), runtime.GOMAXPROCS(0))
	rt.placement = AssignPlaces(len(opts.Places), rt.bind, opts.NumThreads, 0)
	if opts.ThreadLimit > 0 {
		rt.budget.Store(int64(opts.ThreadLimit - n))
	} else {
		rt.budget.Store(budgetUnlimited)
	}
	rt.hot = newTeam(rt, nil, n, false)
	return rt, nil
}

// MustNew is New but panics on error; convenient for examples and tests.
func MustNew(opts Options) *Runtime {
	rt, err := New(opts)
	if err != nil {
		panic(err)
	}
	return rt
}

// NumThreads returns the team size of outer parallel regions (1 in serial
// mode).
func (rt *Runtime) NumThreads() int {
	if rt.opts.Library == LibSerial {
		return 1
	}
	return rt.opts.NumThreads
}

// registerTeam adds a team to the live-team registry.
func (rt *Runtime) registerTeam(tm *Team) {
	rt.teamsMu.Lock()
	rt.teams = append(rt.teams, tm)
	rt.teamsMu.Unlock()
}

// liveTeams snapshots the registry. Teams are only ever appended, so the
// caller may walk the snapshot lock-free.
func (rt *Runtime) liveTeams() []*Team {
	rt.teamsMu.Lock()
	defer rt.teamsMu.Unlock()
	return rt.teams
}

// reserveThreads claims up to want workers from the contention-group thread
// budget and returns how many it got (possibly 0). A single CAS loop on one
// atomic counter keeps concurrent nested forks from different threads from
// collectively overshooting OMP_THREAD_LIMIT.
func (rt *Runtime) reserveThreads(want int) int {
	for {
		cur := rt.budget.Load()
		grant := int64(want)
		if grant > cur {
			grant = cur
		}
		if grant <= 0 {
			return 0
		}
		if rt.budget.CompareAndSwap(cur, cur-grant) {
			return int(grant)
		}
	}
}

// Stats returns a snapshot of the activity counters: the misc shard plus
// the per-thread shards of every live team (outer and nested). See the
// Stats type for when the snapshot is exact and when it may be torn.
func (rt *Runtime) Stats() Stats {
	var out Stats
	rt.misc.addInto(&out)
	for _, tm := range rt.liveTeams() {
		for i := range tm.stats {
			tm.stats[i].addInto(&out)
		}
	}
	return out
}

// Close shuts every worker pool down — the outer team and all cached nested
// teams — and waits for the goroutines to exit. The runtime must not be
// used afterwards. Close is idempotent.
//
// Close is the exact-snapshot point of the Stats contract: a Stats() call
// after Close returns final counter values, with Sleeps == Wakeups.
func (rt *Runtime) Close() {
	rt.regionMu.Lock()
	defer rt.regionMu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	// Order matters: shutdown is raised before the gen bumps, so any worker
	// released by a bump observes it and exits. regionMu being free means
	// no outer region is active, hence every inner worker is idle between
	// regions too — the bumps release all of them exactly once.
	rt.shutdown.Store(true)
	for _, tm := range rt.liveTeams() {
		tm.advance()
	}
	rt.wg.Wait()
}

// Parallel executes body once per team thread, concurrently, and returns
// after the implicit end-of-region barrier (which first drains any
// outstanding explicit tasks). The calling goroutine participates as thread
// 0, exactly like the primary thread of an OpenMP team.
//
// Calling Parallel from inside an active region (any goroutine) is the
// nested entry without a Thread context: the body runs as a serialized
// width-1 nested region on the calling goroutine. Thread.Parallel is the
// threaded nested fork — prefer it inside region bodies.
func (rt *Runtime) Parallel(body func(th *Thread)) {
	rt.parallel(rt.callerPC(), body, teamLoop{})
}

// parallel is Parallel with the construct identity (callerPC) captured by the
// exported entry point. loop is the team's loop for the region (forRegion,
// sumRegion; zero for any other body), and the result is its sum.
func (rt *Runtime) parallel(pc uintptr, body func(th *Thread), loop teamLoop) float64 {
	if rt.regionActive.Load() {
		// The outer region holds regionMu for its whole duration, so the
		// nested path must not touch it. This cold fallback runs body on a
		// transient width-1 team that keeps the full Thread surface usable
		// (everything collapses to serial execution); counters land on the
		// misc shard, and with neither a ring nor profile slots the region
		// is neither traced nor profiled.
		tm := newTeam(rt, nil, 1, true)
		tm.loop = loop
		tm.dispatchRegion(body, true, pc)
		return tm.loop.out
	}
	rt.regionMu.Lock()
	defer rt.regionMu.Unlock()
	if rt.closed {
		panic("openmp: Parallel called on closed Runtime")
	}
	rt.regionActive.Store(true)
	tm := rt.hot
	tm.loop = loop
	tm.dispatchRegion(body, true, pc)
	out := tm.loop.out
	tm.loop = teamLoop{} // keep no loop body alive between regions
	rt.regionActive.Store(false)
	return out
}

// teamLoop is the worksharing loop of a region that ParallelFor or
// ParallelReduceSum forks: its trip count, its body (one of the two) and,
// written by the primary, the reduced sum. The team holds it, published with
// the region's body, so the region's body is a package function and forking
// it allocates nothing.
type teamLoop struct {
	n   int
	do  func(i int)
	sum func(i int) float64
	out float64
}

// forRegion is the body of a ParallelFor region.
func forRegion(th *Thread) {
	l := &th.team.loop
	th.For(l.n, l.do)
}

// sumRegion is the body of a ParallelReduceSum region.
func sumRegion(th *Thread) {
	l := &th.team.loop
	local := 0.0
	th.ForNowait(l.n, func(i int) { local += l.sum(i) })
	v := th.ReduceSum(local)
	if th.id == 0 {
		l.out = v
	}
}

// ParallelFor is shorthand for a region containing a single worksharing
// loop over [0, n).
func (rt *Runtime) ParallelFor(n int, body func(i int)) {
	rt.parallel(rt.callerPC(), forRegion, teamLoop{n: n, do: body})
}

// ParallelReduceSum runs body over [0, n) and returns the sum of its return
// values, combined with the configured reduction method.
func (rt *Runtime) ParallelReduceSum(n int, body func(i int) float64) float64 {
	return rt.parallel(rt.callerPC(), sumRegion, teamLoop{n: n, sum: body})
}

// criticalFor returns the process-wide lock for the named critical section.
// The fast path is a lock-free sync.Map load: after a name's first use,
// Critical never touches a global mutex to find its lock.
func (rt *Runtime) criticalFor(name string) *sync.Mutex {
	if mu, ok := rt.criticals.Load(name); ok {
		return mu.(*sync.Mutex)
	}
	mu, _ := rt.criticals.LoadOrStore(name, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// String summarizes the runtime configuration.
func (rt *Runtime) String() string {
	return fmt.Sprintf("openmp.Runtime{threads=%d sched=%s bind=%s lib=%s blocktime=%d red=%s align=%d}",
		rt.opts.NumThreads, rt.opts.Schedule, rt.bind, rt.opts.Library,
		rt.opts.Library.Blocktime(rt.opts.BlocktimeMS), rt.opts.Reduction, rt.opts.AlignAlloc)
}
