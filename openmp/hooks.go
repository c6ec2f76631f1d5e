package openmp

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// hooks is the runtime's one observer seam, shaped like OMPT: a fixed set of
// construct-boundary events (the methods below) over an immutable snapshot
// of the attached consumers. Runtime.hooks holds the current snapshot, nil
// while all are off; attach and detach publish a fresh copy (editHooks).
//
// A region observes through the snapshot its fork loaded: dispatchRegion
// loads Runtime.hooks once and hands it to the team (Team.hooks), and a
// span's end uses the snapshot of its begin. So every consumer sees a region
// whole or not at all — no unmatched begin/end pair after a detach, the
// profiler that stamped a thread folds it — and the uncounted StopTrace flush
// region, handed nil, is invisible to all. A site is one load, one nil check
// and one method call; what each consumer records is decided here only. The
// always-on statShard counters are no consumer but the oracle they are
// checked against.
type hooks struct {
	tr   *trace.Tracer
	prof *profile.Profiler
	met  Metrics // zero fields while no sink is attached

	epoch time.Time // anchors now() while no profiler is attached
}

// now reads the snapshot's clock in nanoseconds — the profiler's while one is
// attached, since Fold takes its fork stamp on that clock.
func (h *hooks) now() int64 {
	if h.prof != nil {
		return h.prof.Now()
	}
	return int64(time.Since(h.epoch))
}

// Steal-victim locality classes, numbered as the trace packs them.
const (
	stealUnknown = trace.StealLocalityUnknown
	stealLocal   = trace.StealLocalityLocal
	stealRemote  = trace.StealLocalityRemote
)

// slot returns th's profile slot while a profiler is attached, nil otherwise
// and on the transient serialized team, which has none.
func (h *hooks) slot(th *Thread) *profile.Scratch {
	if h.prof == nil || th.team.prof == nil {
		return nil
	}
	return &th.team.prof[th.id]
}

// emit traces one event of th's current region. The id is the thread's
// (stamped at implicit-task begin, zero between regions), not the team's: a
// worker closes its end-of-region spans after the team may be restamped.
// Rings are read only once the snapshot shows a tracer (StartTrace hands
// them out before it publishes one); the transient serialized team has none.
func (h *hooks) emit(th *Thread, k trace.Kind, arg int64) {
	if h.tr != nil && th.ring != nil {
		h.tr.Emit(th.ring, th.team.level, k, th.regionID, arg)
	}
}

// regionFork opens a region on its primary thread before the generation bump:
// the fork event precedes every worker event, the stamp covers the wakes.
func (h *hooks) regionFork(tm *Team) (forkAt int64) {
	if r := tm.threads[0].ring; h.tr != nil && r != nil {
		h.tr.Emit(r, tm.level, trace.KindRegionFork, tm.regionID, int64(tm.n))
	}
	if h.met.Region != nil || h.prof != nil {
		forkAt = h.now()
	}
	return forkAt
}

// regionJoin closes it after the primary has passed the join barrier, which
// ordered every worker's profile slot writes before the fold.
func (h *hooks) regionJoin(tm *Team, pc uintptr, forkAt int64) {
	if h.met.Region != nil {
		h.met.Region.Observe(time.Duration(h.now() - forkAt))
	}
	if h.prof != nil && tm.prof != nil { // the transient serialized team has no slots
		h.prof.Fold(pc, tm.level, tm.regionID, forkAt, tm.prof)
	}
	if r := tm.threads[0].ring; h.tr != nil && r != nil {
		h.tr.Emit(r, tm.level, trace.KindRegionJoin, tm.regionID, 0)
	}
}

// implicitBegin and implicitEnd bracket one thread's implicit task; its
// arrival is barrierEnter at the end-of-region barrier. The profiler stamps
// begin and arrival; the fold derives busy time and the final wait from them.
func (h *hooks) implicitBegin(th *Thread) {
	if sc := h.slot(th); sc != nil {
		*sc = profile.Scratch{Region: th.regionID, StartNS: h.prof.Now()}
	}
	h.emit(th, trace.KindImplicitBegin, 0)
}

func (h *hooks) implicitEnd(th *Thread) { h.emit(th, trace.KindImplicitEnd, 0) }

// barrierEnter and barrierLeave bracket one thread's passage through a team
// barrier. The profiler times explicit barriers only — a mid-region barrier
// completes inside the region, so self-timing is race-free; of the
// end-of-region one it takes the arrival and lets the fold derive the wait.
func (h *hooks) barrierEnter(th *Thread, explicit bool) (enterAt int64) {
	if sc := h.slot(th); sc != nil && !explicit {
		sc.ArriveNS = h.prof.Now()
	}
	h.emit(th, trace.KindBarrierEnter, 0)
	if h.met.BarrierWait != nil || explicit && h.prof != nil {
		enterAt = h.now()
	}
	return enterAt
}

func (h *hooks) barrierLeave(th *Thread, explicit bool, enterAt int64) {
	if h.met.BarrierWait != nil {
		h.met.BarrierWait.Observe(time.Duration(h.now() - enterAt))
	}
	if sc := h.slot(th); sc != nil && explicit {
		sc.Sums.ExplicitBarNS += h.now() - enterAt
	}
	h.emit(th, trace.KindBarrierLeave, 0)
}

// claimStart stamps the start of one chunk claim of a dynamic or guided loop,
// which the profiler charges to scheduling overhead; zero when nobody does, a
// nil snapshot included.
func (h *hooks) claimStart() (claimAt int64) {
	if h != nil && h.prof != nil {
		claimAt = h.prof.Now()
	}
	return claimAt
}

// chunk closes the claim begun at claimAt (zero for static chunks, which are
// computed, not claimed) and records the iters iterations it handed to th.
func (h *hooks) chunk(th *Thread, iters int, claimAt int64) {
	sc := h.slot(th)
	if sc != nil && claimAt != 0 {
		sc.Sums.SchedNS += h.prof.Now() - claimAt
	}
	if iters <= 0 {
		return
	}
	h.emit(th, trace.KindChunk, int64(iters))
	if sc != nil {
		sc.Sums.Chunks++
	}
}

func (h *hooks) taskCreate(th *Thread) {
	h.emit(th, trace.KindTaskCreate, 0)
	if sc := h.slot(th); sc != nil {
		sc.Sums.TasksCreated++
	}
}

// taskBegin and taskEnd bracket one explicit task's body on the thread
// executing it, queue and steal overhead excluded.
func (h *hooks) taskBegin(th *Thread) (beginAt int64) {
	h.emit(th, trace.KindTaskBegin, 0)
	if h.met.TaskRun != nil {
		beginAt = h.now()
	}
	return beginAt
}

func (h *hooks) taskEnd(th *Thread, beginAt int64) {
	if h.met.TaskRun != nil {
		h.met.TaskRun.Observe(time.Duration(h.now() - beginAt))
	}
	h.emit(th, trace.KindTaskEnd, 0)
	if sc := h.slot(th); sc != nil {
		sc.Sums.TasksRun++
	}
}

// taskSteal records one steal visit by th that took n not-yet-stolen tasks
// (see Stats.TasksStolen) from victim, whose locality class is class.
func (h *hooks) taskSteal(th *Thread, victim, n int, class trace.StealLocality) {
	if sc := h.slot(th); sc != nil {
		sc.Sums.TasksStolen += int64(n)
		sc.Sums.StealBatches++
		switch class {
		case stealLocal:
			sc.Sums.StealsLocal += int64(n)
		case stealRemote:
			sc.Sums.StealsRemote += int64(n)
		}
	}
	h.emit(th, trace.KindTaskSteal, trace.StealArg(victim, n, class))
}

// park and wake bracket a blocked wait. A task-wait park ends inside its
// region and is charged to the region's profile; a worker's park between
// regions (region id zero) may outlive the fold and is traced only.
func (h *hooks) park(th *Thread) {
	h.emit(th, trace.KindPark, 0)
	if sc := h.slot(th); sc != nil && th.regionID != 0 {
		sc.Sums.Parks++
	}
}

func (h *hooks) wake(th *Thread) {
	if sc := h.slot(th); sc != nil && th.regionID != 0 {
		sc.Sums.Wakes++
	}
	h.emit(th, trace.KindWake, 0)
}

// editHooks publishes a new snapshot: edit is applied to a copy of the
// current one under hooksMu, which orders attach and detach among themselves
// and nothing else. A copy left with no consumer is published as nil.
func (rt *Runtime) editHooks(edit func(h *hooks)) {
	rt.hooksMu.Lock()
	defer rt.hooksMu.Unlock()
	next := hooks{epoch: time.Now()}
	if cur := rt.hooks.Load(); cur != nil {
		next = *cur
	}
	edit(&next)
	if next.tr == nil && next.prof == nil && next.met == (Metrics{}) {
		rt.hooks.Store(nil)
		return
	}
	rt.hooks.Store(&next)
}

// StartTrace enables OMPT-style event tracing with the given per-thread
// ring capacity in events (0 means trace.DefaultBufferSize; more than
// trace.MaxBufferSize is an error). Every thread of every live team gets its
// ring here, and a nested team first forked while tracing gets its rings
// when it is built, so every team is traced whole. An emit costs one
// timestamp read and one ring store, and a full ring drops new events
// rather than blocking. Tracing a runtime that is already tracing or closed
// is an error.
func (rt *Runtime) StartTrace(eventsPerThread int) error {
	rt.regionMu.Lock()
	defer rt.regionMu.Unlock()
	if rt.closed {
		return errors.New("openmp: StartTrace on closed Runtime")
	}
	if h := rt.hooks.Load(); h != nil && h.tr != nil {
		return errors.New("openmp: StartTrace while already tracing")
	}
	tr, err := trace.New(eventsPerThread)
	if err != nil {
		return fmt.Errorf("openmp: StartTrace: %w", err)
	}
	// The registry lists a parent's team before its nested teams, so a
	// parent's ring exists by the time its inner thread 0 shares it.
	for _, tm := range rt.liveTeams() {
		tm.takeRings(tr)
	}
	rt.editHooks(func(h *hooks) { h.tr = tr })
	return nil
}

// StopTrace disables tracing and returns the collected, time-ordered
// events. Returns an empty Data when tracing was not enabled.
//
// A worker emits its end-of-region BarrierLeave/ImplicitEnd after the
// primary thread has already passed the join barrier, so those records can
// still be in flight when Parallel returns. StopTrace therefore detaches the
// tracer and then dispatches one uncounted no-op flush region on each
// registered team in turn: each worker's pending emits precede its
// flush-barrier arrival, which precedes the dispatcher's barrier pass, so
// when the flushes return every traced event has been published to its
// ring. A worker parking after its flush loads the detached snapshot and
// emits nothing, so StopTrace then drops every thread's ring: nothing keeps
// the stopped tracer's rings alive.
func (rt *Runtime) StopTrace() trace.Data {
	rt.regionMu.Lock()
	defer rt.regionMu.Unlock()
	var tr *trace.Tracer
	rt.editHooks(func(h *hooks) { tr, h.tr = h.tr, nil })
	if tr == nil {
		return trace.Data{}
	}
	teams := rt.liveTeams()
	if !rt.closed {
		rt.regionActive.Store(true)
		for _, tm := range teams {
			tm.dispatchRegion(func(*Thread) {}, false, 0)
		}
		rt.regionActive.Store(false)
	}
	for _, tm := range teams {
		for i := range tm.threads {
			tm.threads[i].ring = nil
		}
	}
	return tr.Collect()
}

// StartProfile enables the per-region efficiency profiler. Every team
// records into the profile slots it was built with, so nested teams forked
// before or after this call are profiled whole. While enabled a Parallel
// call additionally pays one caller-PC capture, per-thread timestamp stamps
// and one fold at region quiescence — still zero allocations. Profiling a
// runtime that is already profiling or closed is an error.
func (rt *Runtime) StartProfile() error {
	rt.regionMu.Lock()
	defer rt.regionMu.Unlock()
	if rt.closed {
		return errors.New("openmp: StartProfile on closed Runtime")
	}
	if h := rt.hooks.Load(); h != nil && h.prof != nil {
		return errors.New("openmp: StartProfile while already profiling")
	}
	rt.editHooks(func(h *hooks) { h.prof = profile.New() })
	return nil
}

// StopProfile disables profiling and returns the final report, an empty one
// when profiling was not enabled. A region in flight on another goroutine
// folds into the detached profiler and is missing from the report.
func (rt *Runtime) StopProfile() *profile.Report {
	var p *profile.Profiler
	rt.editHooks(func(h *hooks) { p, h.prof = h.prof, nil })
	if p == nil {
		return &profile.Report{}
	}
	return p.Snapshot()
}

// Profile snapshots the current per-region profile without detaching the
// profiler. Returns an empty report when profiling is not enabled. The
// snapshot is exact at region quiescence (same contract as Stats).
func (rt *Runtime) Profile() *profile.Report {
	if h := rt.hooks.Load(); h != nil && h.prof != nil {
		return h.prof.Snapshot()
	}
	return &profile.Report{}
}

// SetMetrics attaches (or, with nil, detaches) the latency sinks. It may be
// called at any time; a region in flight keeps reporting to the sinks it
// forked with, the next fork picks up the new ones.
func (rt *Runtime) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	rt.editHooks(func(h *hooks) { h.met = *m })
}

// callerPC returns the program counter of the caller of the exported
// Parallel-family function that invoked it — the construct identity the
// profiler keys regions by — or zero while no profiler is attached. Each
// entry point records its own caller, so call sites never alias through the
// shared internal path. The capture is allocation-free, and runtime.Callers
// counts logical frames: 0 = Callers, 1 = callerPC, 2 = entry point, 3 = caller.
func (rt *Runtime) callerPC() uintptr {
	var pcs [1]uintptr
	if h := rt.hooks.Load(); h == nil || h.prof == nil || runtime.Callers(3, pcs[:]) == 0 {
		return 0
	}
	return pcs[0]
}
