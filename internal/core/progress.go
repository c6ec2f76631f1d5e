package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"omptune/internal/dataset"
	"omptune/internal/obs"
	"omptune/internal/sim"
)

// Event is the one record of a campaign's progress — a sweep's or a
// search's. The ledger builds one per plan, per finished batch, per search
// probe, per heartbeat and at the end; OnProgress, the JSONL telemetry
// stream and the live Monitor receive the same value. Type discriminates,
// and a field a record does not carry is zero and omitted from its JSON line.
// The keys and kinds are those streams have always carried, so an older
// stream decodes.
type Event struct {
	// Type is plan | heartbeat | setting_done | done for a sweep,
	// search_plan | search_step | search_done for a search, and error for the
	// terminal record of a failed campaign or stream.
	Type string    `json:"type"`
	TS   time.Time `json:"ts"` // UTC

	// The identity: a search's four fields on every record; a sweep batch's
	// arch, app and setting.
	Strategy string `json:"strategy,omitempty"`
	Arch     string `json:"arch,omitempty"`
	App      string `json:"app,omitempty"`
	Setting  string `json:"setting,omitempty"`

	// The plan.
	Backend     string   `json:"backend,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Arches      []string `json:"arches,omitempty"`
	SpaceSize   int      `json:"space_size,omitempty"`
	BudgetEvals int      `json:"budget_evals,omitempty"`
	BudgetSec   float64  `json:"budget_sec,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`

	// SettingsTotal / SamplesTotal are the planned batches and rows; totals
	// are exact (the sampling rule is evaluated during planning).
	SettingsTotal int `json:"settings_total,omitempty"`
	SamplesTotal  int `json:"samples_total,omitempty"`

	// A finished batch: the rows it contributed, the planned rows it dropped
	// because their measurement failed (the whole batch when the default
	// configuration failed; Error then says so), whether it was loaded from
	// the checkpoint journal, and its adaptive-measurement summary — real
	// timed repetitions behind its provenance-carrying samples against the
	// sim.Reps a fixed campaign would have run (both zero for the model).
	Samples        int  `json:"samples,omitempty"`
	SamplesSkipped int  `json:"samples_skipped,omitempty"`
	Resumed        bool `json:"resumed,omitempty"`
	RepsRun        int  `json:"reps_run,omitempty"`
	RepsFixed      int  `json:"reps_fixed,omitempty"`

	// A search probe: its 1-based number, configuration, seconds and speedup
	// (both omitted when its series failed) and whether the cache answered.
	Eval     int     `json:"eval,omitempty"`
	Config   string  `json:"config,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`

	// The best so far of a search.
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	Evaluations int     `json:"evaluations,omitempty"`
	CacheHits   int     `json:"cache_hits,omitempty"`
	BestConfig  string  `json:"best_config,omitempty"`

	// The counts: wall-clock seconds since the plan, completed batches
	// (checkpointed ones included) and rows, the evaluation throughput
	// (checkpointed batches cost no evaluation time and are excluded), the
	// ETA at that rate (zero when not yet measurable), busy workers and the
	// per-architecture completion of heartbeat and terminal records.
	ElapsedSec    float64                 `json:"elapsed_sec"`
	SettingsDone  int                     `json:"settings_done,omitempty"`
	SamplesDone   int                     `json:"samples_done,omitempty"`
	SamplesPerSec float64                 `json:"samples_per_sec,omitempty"`
	ETASec        float64                 `json:"eta_sec,omitempty"`
	WorkersBusy   int64                   `json:"workers_busy"`
	PerArch       map[string]ArchProgress `json:"per_arch,omitempty"`

	Error string `json:"error,omitempty"`
}

// ArchProgress is one architecture's completion in Event.PerArch.
type ArchProgress struct {
	SettingsDone  int `json:"settings_done"`
	SettingsTotal int `json:"settings_total"`
	SamplesDone   int `json:"samples_done"`
	SamplesTotal  int `json:"samples_total"`
}

// reporter is the campaign ledger: the one owner of a campaign's progress
// state — totals, the per-(arch, app) cell grid in plan order, evaluated
// rows, rate/ETA, busy workers, a search's identity and best so far, the
// terminal state and one start time. A sweep plans it from its batches; a
// search plans it as a one-cell campaign whose rows are its evaluation
// budget. It builds every Event, and the Monitor's status reads its
// snapshot, so no two observers can disagree.
type reporter struct {
	fn  func(Event)
	tel *telemetry // optional JSONL telemetry stream
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

	// search is a search's part of its records: the identity and space size
	// planSearch sets, and the evaluations, cache hits and best speedup and
	// configuration probed pushes. Zero for a sweep.
	search Event
}

// ledgerView is the ledger's snapshot at one instant: the status payload
// every campaign serves, plus a search's part of its records.
type ledgerView struct {
	obs.Status
	search Event
	at     time.Time
}

// newReporter opens the ledger of one campaign in state "waiting" and
// attaches it to the configured monitor, so even a plan-time failure reaches
// the monitor as a terminal error state.
func newReporter(fn func(Event), mon *Monitor) *reporter {
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
// count — starts the campaign clock and announces the plan.
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
	plan := Event{Type: "plan", TS: r.start.UTC(), Backend: backend, Workers: workers,
		Arches: cellArches(r.cells), SettingsTotal: r.total, SamplesTotal: r.samplesTotal}
	r.mu.Unlock()
	r.announce(plan, plan.Arches)
}

// planSearch records a search as a one-cell campaign — the cell is the
// search's (arch, app), its planned rows the evaluation budget (0 when only
// time bounds it), one worker — starts the campaign clock, which it returns
// so the search's time budget counts from the same instant, and announces
// the plan. An unobserved search keeps nothing else.
func (r *reporter) planSearch(s *searchState) time.Time {
	if r.unobserved() {
		return time.Now()
	}
	spec := s.spec
	plan := Event{Type: "search_plan",
		Strategy: s.res.Strategy, Arch: string(spec.Machine.Arch), App: spec.App.Name, Setting: spec.Setting.Label,
		Backend: s.ev.Name(), SpaceSize: len(s.table().space), BudgetEvals: s.maxEvals,
		BudgetSec: spec.Budget.MaxTime.Seconds(), Seed: spec.Seed}
	start := time.Now()
	plan.TS = start.UTC()
	r.mu.Lock()
	r.state, r.backend, r.workers, r.start = "running", plan.Backend+" ("+plan.Strategy+")", 1, start
	r.samplesTotal = plan.BudgetEvals
	r.cells = []obs.Cell{{Arch: plan.Arch, App: plan.App, SamplesTotal: plan.BudgetEvals}}
	r.search = Event{Strategy: plan.Strategy, Arch: plan.Arch, App: plan.App, Setting: plan.Setting, SpaceSize: plan.SpaceSize}
	r.mu.Unlock()
	r.announce(plan, []string{plan.Arch})
	return start
}

// announce hands the recorded plan to the monitor, which registers the
// per-arch instruments of arches, and to the telemetry stream.
func (r *reporter) announce(plan Event, arches []string) {
	if r.mon != nil {
		r.mon.plan(arches)
	}
	if r.tel != nil {
		r.tel.open(plan)
	}
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
		search: r.search, at: now,
	}
}

// event renders the snapshot as a record of type typ — a heartbeat, a
// terminal record or a stream's error record: a search's identity and best
// so far, the counts, the cell grid rolled up by architecture, and the
// campaign's error.
func (v ledgerView) event(typ string) Event {
	ev := v.search
	ev.Type, ev.TS, ev.Error = typ, v.at.UTC(), v.Error
	ev.ElapsedSec, ev.WorkersBusy = v.ElapsedSec, v.WorkersBusy
	ev.SettingsDone, ev.SettingsTotal = v.SettingsDone, v.SettingsTotal
	ev.SamplesDone, ev.SamplesTotal = v.SamplesDone, v.SamplesTotal
	ev.SamplesPerSec, ev.ETASec = v.SamplesPerSec, v.ETASec
	ev.PerArch = make(map[string]ArchProgress)
	for _, c := range v.Cells {
		ap := ev.PerArch[c.Arch]
		ap.SettingsDone += c.SettingsDone
		ap.SettingsTotal += c.SettingsTotal
		ap.SamplesDone += c.SamplesDone
		ap.SamplesTotal += c.SamplesTotal
		ev.PerArch[c.Arch] = ap
	}
	return ev
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

// unitDone records one finished batch and hands its setting_done event to
// every observer. samples is the batch's sample slice (not just a count) so
// per-sample series provenance reaches the monitor's variability aggregates.
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

	now := time.Now()
	r.mu.Lock()
	cell := r.cellOf[u.index]
	r.done++
	r.samplesDone += len(samples)
	r.settled += u.cfgCount
	r.cells[cell].SettingsDone++
	r.cells[cell].SamplesDone += len(samples)
	if !resumed {
		r.evaluated += len(samples)
	}
	elapsed := now.Sub(r.start)
	r.pace(elapsed)
	ev := Event{
		Type: "setting_done", TS: now.UTC(),
		Arch: string(u.arch), App: u.app.Name, Setting: u.set.Label,
		SettingsTotal: r.total, SamplesTotal: r.samplesTotal,
		Samples: len(samples), SamplesSkipped: skipped, Resumed: resumed,
		RepsRun: repsRun, RepsFixed: repsFixed,
		ElapsedSec: elapsed.Seconds(), SettingsDone: r.done, SamplesDone: r.samplesDone,
		SamplesPerSec: r.rate, ETASec: r.eta.Seconds(), WorkersBusy: r.busy.Load(),
	}
	r.mu.Unlock()
	if skipped > 0 {
		ev.Error = fmt.Sprintf("%d of %d planned samples failed to measure and were skipped", skipped, len(samples)+skipped)
	}

	if r.tel != nil {
		r.tel.emit(ev)
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

// probed records one search evaluation begun at started, which improved the
// best so far when improved. The counts are s.res's, pushed as absolute
// values from the one place that counts them; the search_step record and the
// monitor's probe latency fan out under out like a batch does. A failed
// probe (sec is NaN, which JSON cannot carry) records no seconds or speedup.
// searchState.observe calls it only for an observed search.
func (r *reporter) probed(s *searchState, key string, sec float64, hit, improved bool, started time.Time) {
	r.out.Lock()
	defer r.out.Unlock()

	speedup := 0.0
	if !(sec > 0) {
		sec = 0
	} else if s.res.DefaultSeconds > 0 {
		speedup = s.res.DefaultSeconds / sec
	}
	now := time.Now()
	r.mu.Lock()
	evals, best := s.res.Evaluations, s.res.Speedup()
	r.samplesDone, r.evaluated, r.settled = evals, evals, evals
	r.cells[0].SamplesDone = evals
	r.search.Evaluations, r.search.CacheHits, r.search.BestSpeedup = evals, s.res.CacheHits, best
	if improved {
		r.search.BestConfig = key
	}
	elapsed := now.Sub(r.start)
	r.pace(elapsed)
	ev := Event{
		Type: "search_step", TS: now.UTC(),
		Strategy: r.search.Strategy, Arch: r.search.Arch, App: r.search.App, Setting: r.search.Setting,
		Eval: evals, Config: key, Seconds: sec, Speedup: speedup, CacheHit: hit,
		BestSpeedup: best, ElapsedSec: elapsed.Seconds(),
	}
	r.mu.Unlock()

	if r.tel != nil {
		r.tel.emit(ev)
	}
	if r.mon != nil {
		r.mon.hProbe.Observe(now.Sub(started))
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

// String renders a setting_done event as one human-readable progress line.
func (ev Event) String() string {
	tag := ""
	if ev.Resumed {
		tag = " (resumed)"
	}
	line := fmt.Sprintf("[%d/%d] %s %s %s: %d configurations%s",
		ev.SettingsDone, ev.SettingsTotal, ev.Arch, ev.App, ev.Setting,
		ev.Samples, tag)
	if ev.SamplesSkipped > 0 {
		line += fmt.Sprintf(" (%d skipped: measurement failed)", ev.SamplesSkipped)
	}
	if ev.RepsRun > 0 && ev.RepsRun != ev.RepsFixed {
		line += fmt.Sprintf(" | reps %d/%d", ev.RepsRun, ev.RepsFixed)
	}
	if ev.SamplesPerSec > 0 {
		line += fmt.Sprintf(" | %.0f samples/s", ev.SamplesPerSec)
	}
	if ev.ETASec > 0 {
		// math.Round of the seconds rounds half away from zero, as
		// Duration.Round does.
		line += fmt.Sprintf(" | ETA %s", time.Duration(math.Round(ev.ETASec))*time.Second)
	}
	return line
}
