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
// and one method call. Each method reads the snapshot's clock at most once
// (stamp) and hands the same stamped event to the thread's trace ring and,
// through trace.Step, to its profile slot; the latency sinks time with the
// same stamps. The always-on statShard counters are no consumer but the oracle
// they are checked against.
type hooks struct {
	tr   *trace.Tracer
	prof *profile.Profiler
	met  Metrics // zero fields while no sink is attached

	// epoch is the zero of the snapshot's clock, the one clock every
	// consumer reads; a copy keeps it, so it moves only on an attach to an
	// empty seam.
	epoch time.Time
}

// now reads the snapshot's clock in nanoseconds.
func (h *hooks) now() int64 { return int64(time.Since(h.epoch)) }

// stamp reads the clock for an event that the tracer records or that a fold
// or sink times (timed); an event the profiler alone only counts is left
// unstamped, which spares it a clock read per task, steal and park.
func (h *hooks) stamp(timed bool) int64 {
	if timed || h.tr != nil {
		return h.now()
	}
	return 0
}

// Steal-victim locality classes, numbered as the trace packs them.
const (
	stealUnknown = trace.StealLocalityUnknown
	stealLocal   = trace.StealLocalityLocal
	stealRemote  = trace.StealLocalityRemote
)

// event hands one event of th's current region, stamped ts, to th's ring and,
// when trace.Folds passes it, to its profile slot. The region is the thread's (stamped at implicit-task begin,
// zero between regions), not the team's: a worker closes its end-of-region
// spans after the team may be restamped. Rings are read only once the
// snapshot shows a tracer (StartTrace hands them out before it publishes
// one); the transient serialized team has neither rings nor slots.
func (h *hooks) event(th *Thread, k trace.Kind, ts, arg int64) {
	e := trace.Event{TS: ts, Arg: arg, Region: th.regionID, Kind: k, Level: uint8(th.team.level)}
	if h.tr != nil && th.ring != nil {
		th.ring.Emit(e)
	}
	if h.prof != nil && th.team.prof != nil && trace.Folds(k, arg) {
		trace.Step(&th.team.prof[th.id], e)
	}
}

// teamEvent traces one event of the team's region on its primary's ring.
func (h *hooks) teamEvent(tm *Team, k trace.Kind, ts, arg int64) {
	if r := tm.threads[0].ring; h.tr != nil && r != nil {
		r.Emit(trace.Event{TS: ts, Arg: arg, Region: tm.regionID, Kind: k, Level: uint8(tm.level)})
	}
}

// regionFork opens a region on its primary thread before the generation bump:
// the fork event precedes every worker event, the stamp covers the wakes.
func (h *hooks) regionFork(tm *Team) (forkAt int64) {
	forkAt = h.now()
	h.teamEvent(tm, trace.KindRegionFork, forkAt, int64(tm.n))
	return forkAt
}

// regionJoin closes it after the primary has passed the join barrier, which
// ordered every worker's profile slot writes before the fold.
func (h *hooks) regionJoin(tm *Team, pc uintptr, forkAt int64) {
	joinAt := h.now()
	if h.met.Region != nil {
		h.met.Region.Observe(time.Duration(joinAt - forkAt))
	}
	if h.prof != nil && tm.prof != nil { // the transient serialized team has no slots
		h.prof.Fold(pc, tm.level, tm.regionID, forkAt, joinAt, tm.prof)
	}
	h.teamEvent(tm, trace.KindRegionJoin, joinAt, 0)
}

// implicitBegin and implicitEnd bracket one thread's implicit task; its
// arrival is barrierEnter at the end-of-region barrier.
func (h *hooks) implicitBegin(th *Thread) {
	h.event(th, trace.KindImplicitBegin, h.stamp(h.prof != nil), 0)
}

func (h *hooks) implicitEnd(th *Thread) { h.event(th, trace.KindImplicitEnd, h.stamp(false), 0) }

// barrierEnter and barrierLeave bracket one thread's passage through a team
// barrier; the events carry whether it is explicit (trace.Step times an
// explicit one, and takes the end-of-region one's enter as the arrival).
func (h *hooks) barrierEnter(th *Thread, explicit bool) (enterAt int64) {
	enterAt = h.stamp(h.prof != nil || h.met.BarrierWait != nil)
	h.event(th, trace.KindBarrierEnter, enterAt, barrierArg(explicit))
	return enterAt
}

func (h *hooks) barrierLeave(th *Thread, explicit bool, enterAt int64) {
	leaveAt := h.stamp(explicit && h.prof != nil || h.met.BarrierWait != nil)
	if h.met.BarrierWait != nil {
		h.met.BarrierWait.Observe(time.Duration(leaveAt - enterAt))
	}
	h.event(th, trace.KindBarrierLeave, leaveAt, barrierArg(explicit))
}

func barrierArg(explicit bool) int64 {
	if explicit {
		return 1
	}
	return 0
}

// claimStart stamps the start of one chunk claim of a dynamic or guided loop
// for the fold's scheduling time; zero when nobody times it, a nil snapshot
// included.
func (h *hooks) claimStart() (claimAt int64) {
	if h != nil {
		claimAt = h.stamp(h.prof != nil)
	}
	return claimAt
}

// chunk closes the claim begun at claimAt (zero for static chunks, which are
// computed, not claimed) that handed iters iterations to th; a claim that
// found the loop exhausted (iters 0) is traced for its scheduling time.
func (h *hooks) chunk(th *Thread, iters int, claimAt int64) {
	if iters <= 0 && claimAt == 0 {
		return
	}
	ts, claim := h.stamp(claimAt != 0), int64(0)
	if claimAt != 0 {
		claim = ts - claimAt
	}
	h.event(th, trace.KindChunk, ts, trace.ChunkArg(iters, claim))
}

func (h *hooks) taskCreate(th *Thread) { h.event(th, trace.KindTaskCreate, h.stamp(false), 0) }

// taskBegin and taskEnd bracket one explicit task's body on the thread
// executing it, queue and steal overhead excluded.
func (h *hooks) taskBegin(th *Thread) (beginAt int64) {
	beginAt = h.stamp(h.met.TaskRun != nil)
	h.event(th, trace.KindTaskBegin, beginAt, 0)
	return beginAt
}

func (h *hooks) taskEnd(th *Thread, beginAt int64) {
	endAt := h.stamp(h.met.TaskRun != nil)
	if h.met.TaskRun != nil {
		h.met.TaskRun.Observe(time.Duration(endAt - beginAt))
	}
	h.event(th, trace.KindTaskEnd, endAt, 0)
}

// taskSteal records one steal visit by th that took n not-yet-stolen tasks
// (see Stats.TasksStolen) from victim, whose locality class is class.
func (h *hooks) taskSteal(th *Thread, victim, n int, class trace.StealLocality) {
	h.event(th, trace.KindTaskSteal, h.stamp(false), trace.StealArg(victim, n, class))
}

// park and wake bracket a blocked wait. A task-wait park ends inside its
// region and counts into the region's record; a worker's park between
// regions (region id zero) may outlive the fold and is traced only.
func (h *hooks) park(th *Thread) { h.event(th, trace.KindPark, h.stamp(false), 0) }

func (h *hooks) wake(th *Thread) { h.event(th, trace.KindWake, h.stamp(false), 0) }

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
	var err error
	rt.editHooks(func(h *hooks) {
		var tr *trace.Tracer
		if tr, err = trace.New(eventsPerThread, h.epoch); err != nil {
			return
		}
		// The registry lists a parent's team before its nested teams, so a
		// parent's ring exists by the time its inner thread 0 shares it.
		// The rings are handed out before the snapshot that shows tr is
		// published.
		for _, tm := range rt.liveTeams() {
			tm.takeRings(tr)
		}
		h.tr = tr
	})
	if err != nil {
		return fmt.Errorf("openmp: StartTrace: %w", err)
	}
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
