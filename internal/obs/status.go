package obs

// Status is the campaign-progress payload served at /api/status. The
// campaign monitor in internal/core fills it for sweeps and searches alike.
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
	// Cells is the arch×app completion grid in plan order.
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

// VariabilityCell is one (architecture, application) cell of the
// /api/variability payload: the live noise observatory aggregated from the
// series provenance of every measured sample the campaign has produced so
// far. The campaign monitor in internal/core fills it.
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
