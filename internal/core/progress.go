package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"omptune/internal/dataset"
	"omptune/internal/obs"
	"omptune/internal/sim"
)

// ProgressEvent is one structured progress update, emitted after every
// completed (arch, app, setting) batch of a sweep, delivered through
// SweepConfig.OnProgress; String renders it as one progress line.
type ProgressEvent struct {
	// SettingsDone / SettingsTotal count completed setting batches,
	// including batches restored from a checkpoint.
	SettingsDone, SettingsTotal int
	// SamplesDone / SamplesTotal count dataset rows; totals are exact (the
	// deterministic sampling rule is evaluated during planning).
	SamplesDone, SamplesTotal int
	// Arch, App, Setting identify the batch that just finished.
	Arch, App, Setting string
	// SettingSamples is the number of rows the batch contributed.
	SettingSamples int
	// SettingSkipped counts planned rows the batch dropped because their
	// measurement failed (the whole batch when the default configuration
	// failed); the campaign continues without them.
	SettingSkipped int
	// Resumed marks batches loaded from the checkpoint journal instead of
	// being re-evaluated.
	Resumed bool
	// SettingRepsRun / SettingRepsFixed summarize adaptive measurement for
	// the batch: total real timed repetitions behind the batch's
	// provenance-carrying samples versus the sim.Reps-per-sample count a
	// fixed campaign would have run for them. Both zero when no sample
	// carries series provenance (model backend, fixed sim.Reps series).
	SettingRepsRun, SettingRepsFixed int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// SamplesPerSec is the evaluation throughput (checkpointed batches are
	// excluded — they cost no evaluation time).
	SamplesPerSec float64
	// ETA estimates the remaining wall-clock time at the current rate; zero
	// when the rate is not yet measurable.
	ETA time.Duration
}

// reporter is the campaign ledger: the one owner of a campaign's progress
// state — totals, the per-(arch, app) cell grid in plan order, evaluated
// rows, rate/ETA, busy workers, the terminal state and one start time. A
// sweep plans it from its batches; a search plans it as a one-cell campaign
// whose rows are its evaluation budget. The progress line, the OnProgress
// event, the telemetry stream and the live Monitor are all rendered from its
// snapshot, so they cannot disagree.
type reporter struct {
	fn  func(ProgressEvent)
	tel *telemetry // optional JSONL telemetry sink
	mon *Monitor   // optional live HTTP monitor

	// busy is atomic because workers bump it on the batch hot path, outside
	// any lock.
	busy atomic.Int64

	// out serializes the observer fan-out (batch events and telemetry
	// heartbeats), so every observer sees one order. mu guards the fields
	// below and is never held across an observer call: a progress callback
	// may scrape the monitor, which reads the ledger.
	out sync.Mutex
	mu  sync.Mutex

	state        string // waiting | running | done | error
	errMsg       string
	backend      string
	workers      int
	start, end   time.Time // plan time; terminal time (zero while running)
	done         int
	total        int
	samplesDone  int
	samplesTotal int
	settled      int // planned rows of finished batches: done, resumed or skipped
	evaluated    int // rows actually evaluated this run (excludes resumed)
	rate         float64
	eta          time.Duration
	cells        []obs.Cell // plan order
	cellOf       []int      // sweepUnit.index -> position in cells

	// A search's two extra gauges, pushed by probed with the row counts.
	cacheHits   int
	bestSpeedup float64
}

// ledgerView is the ledger's snapshot: the status payload every campaign
// serves, plus the two search gauges the payload has no key for.
type ledgerView struct {
	obs.Status
	cacheHits   int
	bestSpeedup float64
}

// newReporter opens the ledger of one campaign in state "waiting" and
// attaches it to the configured monitor, so even a plan-time failure reaches
// the dashboard as a terminal error state.
func newReporter(fn func(ProgressEvent), mon *Monitor) *reporter {
	r := &reporter{fn: fn, mon: mon, state: "waiting"}
	if r.mon != nil {
		r.mon.led.Store(r)
	}
	return r
}

// unobserved reports whether nothing watches this campaign: its events then
// return before any lock or allocation.
func (r *reporter) unobserved() bool {
	return r.fn == nil && r.tel == nil && r.mon == nil
}

// plan records the campaign shape — totals, cell grid, backend, worker
// count — and starts the campaign clock.
func (r *reporter) plan(units []*sweepUnit, backend string, workers int) {
	r.mu.Lock()
	r.state, r.backend, r.workers, r.start = "running", backend, workers, time.Now()
	r.total = len(units)
	r.cellOf = make([]int, len(units))
	at := map[[2]string]int{}
	for _, u := range units {
		key := [2]string{string(u.arch), u.app.Name}
		i, ok := at[key]
		if !ok {
			i = len(r.cells)
			at[key] = i
			r.cells = append(r.cells, obs.Cell{Arch: key[0], App: key[1]})
		}
		r.cells[i].SettingsTotal++
		r.cells[i].SamplesTotal += u.cfgCount
		r.samplesTotal += u.cfgCount
		r.cellOf[u.index] = i
	}
	arches := cellArches(r.cells)
	r.mu.Unlock()
	if r.mon != nil {
		r.mon.plan(arches)
	}
}

// planSearch records a search as a one-cell campaign — the cell is the
// search's (arch, app), its planned rows the evaluation budget (0 when only
// time bounds it), one worker — and starts the campaign clock, which it
// returns so the search's time budget counts from the same instant. An
// unobserved search keeps nothing else.
func (r *reporter) planSearch(arch, app, backend, strategy string, budget int) time.Time {
	start := time.Now()
	if r.unobserved() {
		return start
	}
	r.mu.Lock()
	r.state, r.backend, r.workers, r.start = "running", backend+" ("+strategy+")", 1, start
	r.samplesTotal = budget
	r.cells = []obs.Cell{{Arch: arch, App: app, SamplesTotal: budget}}
	r.mu.Unlock()
	if r.mon != nil {
		r.mon.plan([]string{arch})
	}
	return start
}

// cellArches lists the distinct architectures of a cell grid, sorted.
func cellArches(cells []obs.Cell) []string {
	arches := make([]string, len(cells))
	for i, c := range cells {
		arches[i] = c.Arch
	}
	slices.Sort(arches)
	return slices.Compact(arches)
}

// snapshot is the immutable view of the ledger every observer reads. A nil
// ledger (a monitor no campaign has been attached to) reads as waiting.
func (r *reporter) snapshot() ledgerView {
	if r == nil {
		return ledgerView{Status: obs.Status{State: "waiting"}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.end // the clock stops with the campaign
	if now.IsZero() {
		now = time.Now()
	}
	elapsed := 0.0
	if !r.start.IsZero() {
		elapsed = now.Sub(r.start).Seconds()
	}
	return ledgerView{
		Status: obs.Status{
			State: r.state, Backend: r.backend, Workers: r.workers,
			WorkersBusy: r.busy.Load(), ElapsedSec: elapsed,
			SettingsDone: r.done, SettingsTotal: r.total,
			SamplesDone: r.samplesDone, SamplesTotal: r.samplesTotal,
			SamplesPerSec: r.rate, ETASec: r.eta.Seconds(),
			Error: r.errMsg, Cells: slices.Clone(r.cells),
		},
		cacheHits: r.cacheHits, bestSpeedup: r.bestSpeedup,
	}
}

// unitStart / unitEnd bracket one batch evaluation: the busy gauge, and the
// batch's evaluation latency for the monitor's per-arch histogram.
func (r *reporter) unitStart() time.Time {
	r.busy.Add(1)
	return time.Now()
}

func (r *reporter) unitEnd(u *sweepUnit, started time.Time) {
	r.busy.Add(-1)
	if r.mon != nil {
		r.mon.evalHist(string(u.arch)).Observe(time.Since(started))
	}
}

// unitDone records one finished batch and emits the progress event. samples
// is the batch's sample slice (not just a count) so per-sample series
// provenance reaches the monitor's variability aggregates.
func (r *reporter) unitDone(u *sweepUnit, samples []*dataset.Sample, skipped int, resumed bool) {
	if r.unobserved() {
		return
	}
	repsRun, repsFixed := 0, 0
	for _, s := range samples {
		if s.HasSeriesMeta() {
			repsRun += s.RepsRun
			repsFixed += sim.Reps
		}
	}
	r.out.Lock()
	defer r.out.Unlock()

	r.mu.Lock()
	elapsed := time.Since(r.start)
	cell := r.cellOf[u.index]
	r.done++
	r.samplesDone += len(samples)
	r.settled += u.cfgCount
	r.cells[cell].SettingsDone++
	r.cells[cell].SamplesDone += len(samples)
	if !resumed {
		r.evaluated += len(samples)
	}
	r.pace(elapsed)
	ev := ProgressEvent{
		SettingsDone: r.done, SettingsTotal: r.total,
		SamplesDone: r.samplesDone, SamplesTotal: r.samplesTotal,
		Arch: string(u.arch), App: u.app.Name, Setting: u.set.Label,
		SettingSamples: len(samples), SettingSkipped: skipped, Resumed: resumed,
		SettingRepsRun: repsRun, SettingRepsFixed: repsFixed,
		Elapsed: elapsed, SamplesPerSec: r.rate, ETA: r.eta,
	}
	r.mu.Unlock()

	if r.tel != nil {
		r.tel.settingDone(ev, r.busy.Load())
	}
	if r.mon != nil {
		r.mon.unitDone(cell, ev, samples)
	}
	if r.fn != nil {
		r.fn(ev)
	}
}

// pace re-derives the rate from the rows evaluated in elapsed, and the ETA
// from the planned rows not yet settled. The caller holds mu.
func (r *reporter) pace(elapsed time.Duration) {
	if secs := elapsed.Seconds(); secs > 0 && r.evaluated > 0 {
		r.rate = float64(r.evaluated) / secs
		r.eta = 0
		if remaining := r.samplesTotal - r.settled; remaining > 0 {
			r.eta = time.Duration(float64(remaining) / r.rate * float64(time.Second))
		}
	}
}

// probed records one search evaluation begun at started. The counts are
// s.res's, pushed as absolute values from the one place that counts them; the
// search_step record and the monitor's probe latency fan out under out like a
// batch does. searchState.observe calls it only for an observed search.
func (r *reporter) probed(s *searchState, key string, sec float64, hit bool, started time.Time) {
	r.out.Lock()
	defer r.out.Unlock()

	r.mu.Lock()
	evals, best := s.res.Evaluations, s.res.Speedup()
	r.samplesDone, r.evaluated, r.settled = evals, evals, evals
	r.cells[0].SamplesDone = evals
	r.cacheHits, r.bestSpeedup = s.res.CacheHits, best
	r.pace(time.Since(r.start))
	r.mu.Unlock()

	if r.tel != nil {
		r.tel.sink.emit(s.stepRecord(evals, best, key, sec, hit))
	}
	if r.mon != nil {
		r.mon.hProbe.Observe(time.Since(started))
	}
}

// finish records the campaign's terminal state, stops the clock and closes
// the telemetry stream with the terminal record.
func (r *reporter) finish(err error) {
	r.mu.Lock()
	r.state, r.end = "done", time.Now()
	if err != nil {
		r.state, r.errMsg = "error", err.Error()
	} else {
		r.eta = 0
	}
	r.mu.Unlock()
	if r.tel != nil {
		r.tel.finish()
	}
}

// String renders the event as one human-readable progress line.
func (ev ProgressEvent) String() string {
	tag := ""
	if ev.Resumed {
		tag = " (resumed)"
	}
	line := fmt.Sprintf("[%d/%d] %s %s %s: %d configurations%s",
		ev.SettingsDone, ev.SettingsTotal, ev.Arch, ev.App, ev.Setting,
		ev.SettingSamples, tag)
	if ev.SettingSkipped > 0 {
		line += fmt.Sprintf(" (%d skipped: measurement failed)", ev.SettingSkipped)
	}
	if ev.SettingRepsRun > 0 && ev.SettingRepsRun != ev.SettingRepsFixed {
		line += fmt.Sprintf(" | reps %d/%d", ev.SettingRepsRun, ev.SettingRepsFixed)
	}
	if ev.SamplesPerSec > 0 {
		line += fmt.Sprintf(" | %.0f samples/s", ev.SamplesPerSec)
	}
	if ev.ETA > 0 {
		line += fmt.Sprintf(" | ETA %s", ev.ETA.Round(time.Second))
	}
	return line
}
