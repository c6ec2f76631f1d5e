package obs

// Status is the campaign-progress payload served at /api/status and
// consumed by the dashboard. The campaign monitor in internal/core fills it
// for sweeps and searches alike; it lives here so the dashboard's JavaScript
// and the producer agree on one schema.
type Status struct {
	// State is waiting | running | done | error.
	State string `json:"state"`
	// Backend and Workers echo the campaign plan.
	Backend string `json:"backend,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// WorkersBusy is the number of workers evaluating a batch right now.
	WorkersBusy int64 `json:"workers_busy"`
	// ElapsedSec is wall-clock time since the plan was recorded.
	ElapsedSec float64 `json:"elapsed_sec"`
	// Settings/Samples progress over the whole campaign.
	SettingsDone  int `json:"settings_done"`
	SettingsTotal int `json:"settings_total"`
	SamplesDone   int `json:"samples_done"`
	SamplesTotal  int `json:"samples_total"`
	// SamplesPerSec is the evaluation throughput; ETASec the projected
	// remaining wall-clock time at that rate (0 when unknown).
	SamplesPerSec float64 `json:"samples_per_sec"`
	ETASec        float64 `json:"eta_sec"`
	// Error carries the failure message when State is "error".
	Error string `json:"error,omitempty"`
	// Cells is the arch×app completion grid behind the dashboard heatmap.
	Cells []Cell `json:"cells,omitempty"`
	// Latencies summarizes the registered latency histograms.
	Latencies []Latency `json:"latencies,omitempty"`
}

// Cell is one (architecture, application) cell of the completion grid.
type Cell struct {
	Arch          string `json:"arch"`
	App           string `json:"app"`
	SettingsDone  int    `json:"settings_done"`
	SettingsTotal int    `json:"settings_total"`
	SamplesDone   int    `json:"samples_done"`
	SamplesTotal  int    `json:"samples_total"`
}

// Region is one row of the /api/regions payload: the live per-region
// efficiency profile aggregated across every runtime the campaign has
// measured so far. The producer (the campaign monitor in internal/core)
// fills it from the openmp profiler's report; it lives here
// so the dashboard's JavaScript and the producer agree on one schema.
type Region struct {
	// Name/File/Line/Level identify the construct: the source location of
	// the parallel region's fork site and its nesting depth.
	Name  string `json:"name"`
	File  string `json:"file,omitempty"`
	Line  int    `json:"line,omitempty"`
	Level int    `json:"level"`
	// Count is region instances folded; Threads the widest team observed.
	Count   int64 `json:"count"`
	Threads int   `json:"threads"`
	// WallSec/ThreadSec are cumulative fork-to-join wall time and its
	// thread-time integral (wall × team width).
	WallSec   float64 `json:"wall_sec"`
	ThreadSec float64 `json:"thread_sec"`
	// The POP-style derived metrics, each in [0, 1]; StealRate is tasks
	// stolen ÷ tasks run (a task is stolen at most once).
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	LoadBalance        float64 `json:"load_balance"`
	BarrierWaitShare   float64 `json:"barrier_wait_share"`
	SchedOverheadShare float64 `json:"sched_overhead_share"`
	StealRate          float64 `json:"steal_rate"`
	TasksRun           int64   `json:"tasks_run"`
}

// VariabilityCell is one (architecture, application) cell of the
// /api/variability payload: the live noise observatory aggregated from the
// series provenance of every measured sample the campaign has produced so
// far. The campaign monitor in internal/core fills it; it lives here so the
// dashboard's JavaScript and the producer agree on one schema.
type VariabilityCell struct {
	Arch string `json:"arch"`
	App  string `json:"app"`
	// Samples counts provenance-carrying samples folded into the cell.
	Samples int `json:"samples"`
	// RepsRun / RepsFixed: real timed repetitions vs the fixed-rep baseline
	// for those samples; their ratio is the measurement time the adaptive
	// policy saved (or spent, on noisy cells).
	RepsRun   int `json:"reps_run"`
	RepsFixed int `json:"reps_fixed"`
	// CoVP50 / CoVP90 are quantiles of the per-series coefficient of
	// variation observed in this cell.
	CoVP50 float64 `json:"cov_p50"`
	CoVP90 float64 `json:"cov_p90"`
}

// Latency is the percentile summary of one histogram.
type Latency struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P90Sec  float64 `json:"p90_sec"`
	P99Sec  float64 `json:"p99_sec"`
}

// LatencyOf summarizes a histogram snapshot under the given name.
func LatencyOf(name string, s HistogramSnapshot) Latency {
	return Latency{
		Name:    name,
		Count:   s.Count,
		MeanSec: s.Mean().Seconds(),
		P50Sec:  s.Quantile(0.50).Seconds(),
		P90Sec:  s.Quantile(0.90).Seconds(),
		P99Sec:  s.Quantile(0.99).Seconds(),
	}
}
