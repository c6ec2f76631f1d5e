package core

// Monitor is the live-observability sink of a campaign — a sweep or a
// budgeted search: it owns an obs.Registry holding the campaign gauges
// (workers busy, throughput, per-arch completion; a search's evaluations,
// cache hits and best-so-far speedup), the per-arch setting-evaluation and
// per-probe latency histograms, and the openmp runtime's fork-join /
// barrier-wait / task-run histograms, and it assembles the /api/status
// payload the embedded dashboard polls. It is the Prometheus-facing sibling
// of the JSONL telemetry sink: telemetry writes history to a file, the
// monitor answers "now" over HTTP.

import (
	"sync"
	"sync/atomic"
	"time"

	"omptune/internal/dataset"
	"omptune/internal/obs"
	"omptune/internal/sim"
	"omptune/openmp"
	"omptune/openmp/profile"
)

// Monitor aggregates live campaign state. Create one with NewMonitor, put
// it in SweepConfig.Monitor or SearchSpec.Monitor, and serve its
// Registry/Status with obs.Server. A Monitor observes one campaign at a
// time; all methods are safe for concurrent use by sweep workers, the
// searching goroutine and HTTP scrape handlers.
//
// Campaign progress is not counted here: Status and the omptune_sweep_* and
// omptune_search_* gauges read the campaign ledger (progress.go) the running
// sweep or search attaches. A search is a one-cell campaign whose rows are
// its evaluations, so both families read the same fields.
// The monitor owns only what no other observer has — the registry and its
// instruments, the latency and CoV histograms, the variability cells and
// the region profile.
type Monitor struct {
	reg *obs.Registry

	// led is the attached campaign's ledger; nil until a campaign starts.
	led atomic.Pointer[reporter]

	mu sync.Mutex
	// varCells aggregates per-(arch, app) series-noise provenance for the
	// /api/variability payload, keyed by position in the ledger's cell grid.
	varCells map[int]*varCell

	// Runtime latency histograms, fed through the openmp metrics seam.
	hRegion  *obs.Histogram
	hBarrier *obs.Histogram
	hTask    *obs.Histogram
	rtm      openmp.Metrics

	// Campaign-wide per-region efficiency aggregate, fed through the openmp
	// profiler seam (measure.Options.Profile) and served at /api/regions.
	prof *profile.Aggregator

	// hProbe is a search's per-evaluation latency (cache hits included).
	hProbe *obs.Histogram

	// hCoV is the campaign-wide per-series CoV distribution. The CoV is
	// unitless; it is recorded scaled as seconds (CoV 0.05 observes as 50ms)
	// so the log-bucketed duration histogram doubles as a quantile sketch.
	hCoV *obs.Histogram
}

// varCell is the mutable per-(arch, app) noise aggregate behind one
// obs.VariabilityCell. Per-series CoVs go into a log-bucketed histogram
// (scaled as durations) so cell quantiles stay O(1) in memory over
// campaigns with hundreds of thousands of series.
type varCell struct {
	samples   int
	repsRun   int
	repsFixed int
	cov       *obs.Histogram
}

// NewMonitor builds a monitor with its registry and runtime histograms
// pre-registered, so /metrics exposes the full schema (at zero) before the
// campaign starts.
func NewMonitor() *Monitor {
	m := &Monitor{
		reg:      obs.NewRegistry(),
		varCells: make(map[int]*varCell),
		prof:     profile.NewAggregator(),
	}
	for _, g := range []struct {
		name, help string
		read       func(ledgerView) float64
	}{
		{"omptune_sweep_settings_planned", "setting batches in the campaign plan",
			func(st ledgerView) float64 { return float64(st.SettingsTotal) }},
		{"omptune_sweep_samples_planned", "dataset rows the campaign plan will produce",
			func(st ledgerView) float64 { return float64(st.SamplesTotal) }},
		{"omptune_sweep_workers", "concurrent sweep workers",
			func(st ledgerView) float64 { return float64(st.Workers) }},
		{"omptune_sweep_workers_busy", "workers evaluating a setting batch right now",
			func(st ledgerView) float64 { return float64(st.WorkersBusy) }},
		{"omptune_sweep_samples_per_second", "evaluation throughput at the last completed batch",
			func(st ledgerView) float64 { return st.SamplesPerSec }},
		{"omptune_sweep_eta_seconds", "projected remaining campaign time at the current rate",
			func(st ledgerView) float64 { return st.ETASec }},
		{"omptune_sweep_elapsed_seconds", "wall-clock time since the campaign plan was recorded",
			func(st ledgerView) float64 { return st.ElapsedSec }},
		{"omptune_search_budget_evals", "evaluation budget of the search (0 = time-bounded only)",
			func(st ledgerView) float64 { return float64(st.SamplesTotal) }},
		{"omptune_search_evaluations", "configuration evaluations done so far (cache hits included)",
			func(st ledgerView) float64 { return float64(st.SamplesDone) }},
		{"omptune_search_cache_hits", "evaluations answered by the memoizing cache",
			func(st ledgerView) float64 { return float64(st.cacheHits) }},
		{"omptune_search_best_speedup", "best speedup over the default configuration found so far",
			func(st ledgerView) float64 { return st.bestSpeedup }},
		{"omptune_search_elapsed_seconds", "wall-clock time since the search plan was recorded",
			func(st ledgerView) float64 { return st.ElapsedSec }},
	} {
		m.reg.GaugeFunc(g.name, g.help, func() float64 { return g.read(m.led.Load().snapshot()) })
	}
	m.hRegion = m.reg.Histogram("omptune_runtime_region_seconds",
		"parallel-region fork-to-join latency (openmp runtime)")
	m.hBarrier = m.reg.Histogram("omptune_runtime_barrier_wait_seconds",
		"per-thread barrier wait latency (openmp runtime)")
	m.hTask = m.reg.Histogram("omptune_runtime_task_run_seconds",
		"explicit-task body execution latency (openmp runtime)")
	m.hProbe = m.reg.Histogram("omptune_search_eval_seconds",
		"wall-clock latency of one configuration evaluation")
	m.hCoV = m.reg.Histogram("omptune_sweep_series_cov",
		"per-series runtime coefficient of variation (unitless, scaled as seconds)")
	m.rtm = openmp.Metrics{Region: m.hRegion, BarrierWait: m.hBarrier, TaskRun: m.hTask}
	return m
}

// Registry exposes the monitor's metrics registry (for obs.Server or a
// custom scrape endpoint).
func (m *Monitor) Registry() *obs.Registry { return m.reg }

// RuntimeMetrics returns the openmp metrics sinks backed by this monitor's
// runtime histograms. Attach it with Runtime.SetMetrics — the measured
// backend does this for every runtime it builds when measure.Options.Metrics
// carries this value.
func (m *Monitor) RuntimeMetrics() *openmp.Metrics { return &m.rtm }

// RuntimeProfile returns the campaign-wide per-region profile aggregate.
// Set it as measure.Options.Profile so every measured series folds its
// region report here; serve the result with Regions.
func (m *Monitor) RuntimeProfile() *profile.Aggregator { return m.prof }

// Regions snapshots the per-region efficiency aggregate as the /api/regions
// payload: the profiler's own rows, the JSON omprun -profile-json writes,
// ordered by cumulative thread-time, largest first.
func (m *Monitor) Regions() []profile.RegionProfile { return m.prof.Snapshot().Regions }

// evalHist is the per-arch setting-batch evaluation latency histogram.
func (m *Monitor) evalHist(arch string) *obs.Histogram {
	return m.reg.Histogram("omptune_sweep_setting_eval_seconds",
		"wall-clock latency of one setting-batch evaluation", "arch", arch)
}

// plan registers the per-arch instruments up front so the scrape schema is
// stable from the first poll.
func (m *Monitor) plan(arches []string) {
	for _, a := range arches {
		m.reg.Counter("omptune_sweep_settings_done_total",
			"completed setting batches", "arch", a)
		m.reg.Counter("omptune_sweep_samples_done_total",
			"dataset rows produced", "arch", a)
		m.reg.Counter("omptune_sweep_reps_run_total",
			"timed repetitions actually run for provenance-carrying samples", "arch", a)
		m.reg.Counter("omptune_sweep_reps_fixed_total",
			"timed repetitions a fixed-rep campaign would have run for the same samples", "arch", a)
		m.evalHist(a)
	}
}

// unitDone folds one completed batch (evaluated or resumed) of ledger cell
// `cell` into the per-arch counters, and each sample's series-noise
// provenance into the variability observatory (resumed batches carry
// provenance too — the reps/cov/ci columns round-trip through the checkpoint
// journal).
func (m *Monitor) unitDone(cell int, ev ProgressEvent, samples []*dataset.Sample) {
	m.reg.Counter("omptune_sweep_settings_done_total",
		"completed setting batches", "arch", ev.Arch).Inc()
	m.reg.Counter("omptune_sweep_samples_done_total",
		"dataset rows produced", "arch", ev.Arch).Add(uint64(ev.SettingSamples))
	if ev.SettingRepsFixed > 0 {
		m.reg.Counter("omptune_sweep_reps_run_total",
			"timed repetitions actually run for provenance-carrying samples", "arch", ev.Arch).
			Add(uint64(ev.SettingRepsRun))
		m.reg.Counter("omptune_sweep_reps_fixed_total",
			"timed repetitions a fixed-rep campaign would have run for the same samples", "arch", ev.Arch).
			Add(uint64(ev.SettingRepsFixed))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range samples {
		if !s.HasSeriesMeta() {
			continue
		}
		vc := m.varCells[cell]
		if vc == nil {
			vc = &varCell{cov: obs.NewHistogram()}
			m.varCells[cell] = vc
		}
		vc.samples++
		vc.repsRun += s.RepsRun
		vc.repsFixed += sim.Reps
		covDur := time.Duration(s.CoV * float64(time.Second))
		vc.cov.Observe(covDur)
		m.hCoV.Observe(covDur)
	}
}

// Variability snapshots the noise observatory as the /api/variability
// payload: one cell per (arch, app) with provenance-carrying samples, in
// the campaign's cell order.
func (m *Monitor) Variability() []obs.VariabilityCell {
	cells := m.led.Load().snapshot().Cells
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []obs.VariabilityCell
	for i, c := range cells {
		vc := m.varCells[i]
		if vc == nil || vc.samples == 0 {
			continue
		}
		snap := vc.cov.Snapshot()
		out = append(out, obs.VariabilityCell{
			Arch:      c.Arch,
			App:       c.App,
			Samples:   vc.samples,
			RepsRun:   vc.repsRun,
			RepsFixed: vc.repsFixed,
			CoVP50:    snap.Quantile(0.50).Seconds(),
			CoVP90:    snap.Quantile(0.90).Seconds(),
		})
	}
	return out
}

// Status snapshots the campaign for /api/status: the ledger's progress view
// (cells in plan order) plus the latency summaries — a sweep's eval
// histograms per arch, a search's probe histogram and the three runtime
// histograms, omitting empty ones.
func (m *Monitor) Status() obs.Status {
	st := m.led.Load().snapshot().Status
	for _, a := range cellArches(st.Cells) {
		if h := m.evalHist(a); h.Count() > 0 {
			st.Latencies = append(st.Latencies, obs.LatencyOf("eval "+a, h.Snapshot()))
		}
	}
	for _, rh := range []struct {
		name string
		h    *obs.Histogram
	}{
		{"eval", m.hProbe},
		{"region fork-join", m.hRegion},
		{"barrier wait", m.hBarrier},
		{"task run", m.hTask},
	} {
		if rh.h.Count() > 0 {
			st.Latencies = append(st.Latencies, obs.LatencyOf(rh.name, rh.h.Snapshot()))
		}
	}
	return st
}
