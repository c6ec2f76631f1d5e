// Package omptune reproduces the SC'24 study "Evaluating Tuning
// Opportunities of the LLVM/OpenMP Runtime" end to end: an OpenMP-style
// runtime with the full set of studied tuning knobs (see the openmp
// subpackage), architecture models of the three machines in the study, a
// deterministic performance model in place of the physical testbed, the
// fifteen benchmark applications, the 240k-sample sweep, and the
// statistical and machine-learning analysis that produces every table and
// figure of the paper.
//
// Typical use:
//
//	ds, err := omptune.Collect(omptune.CollectOptions{})   // the 240k-sample sweep
//	omptune.WriteReport(os.Stdout, ds)                     // every table & figure
//	recs := omptune.Recommend(ds, "Nqueens")               // Table VII-style advice
//
// The heavy lifting lives in internal packages; this package is the stable
// surface for examples, tools and downstream users.
package omptune

import (
	"fmt"
	"io"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/ml"
	"omptune/internal/obs"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/internal/viz"
)

// Re-exported core types. The aliases keep one importable vocabulary for
// users while the implementations stay in focused internal packages.
type (
	// Arch identifies a CPU architecture of the study.
	Arch = topology.Arch
	// Machine is an architecture model (Table I).
	Machine = topology.Machine
	// VarName names one studied environment variable.
	VarName = env.VarName
	// Setting is a thread-count/input-scale experimental setting.
	Setting = sim.Setting
	// App is one of the fifteen benchmark applications.
	App = apps.App
	// Dataset is the collected tabular sample data.
	Dataset = dataset.Dataset
)

// The studied architectures.
const (
	A64FX   = topology.A64FX
	Skylake = topology.Skylake
	Milan   = topology.Milan
)

// Grouping strategies for influence analysis (§IV-D).
const (
	PerArchApp = core.PerArchApp
	PerApp     = core.PerApp
	PerArch    = core.PerArch
)

// Machines returns the three architecture models of Table I.
func Machines() []*Machine { return topology.All() }

// MachineByName returns the model for an architecture name
// ("a64fx", "skylake", "milan").
func MachineByName(name string) (*Machine, error) { return topology.Get(Arch(name)) }

// Applications returns the fifteen benchmark applications in suite order.
func Applications() []*App { return apps.All() }

// NestedApplications returns the nested-parallelism applications (LUNest,
// TreeNest) this repo adds beyond the study set; they join a campaign via
// CollectOptions.Nested or an explicit Apps list.
func NestedApplications() []*App { return apps.NestedApps() }

// ApplicationByName looks an application up by its table name
// (e.g. "Nqueens", "XSbench").
func ApplicationByName(name string) (*App, error) { return apps.ByName(name) }

// Variables returns the canonical order of the studied environment
// variables.
func Variables() []VarName { return env.Names() }

// ---- Measurement backends (the Evaluator seam) --------------------------

// Evaluator is the pluggable measurement backend behind Collect, Tune and
// the extension analyses: it returns the repeated runs of an application
// under a configuration as one series — runtimes, noise provenance, or an
// error. Two backends ship with the library — the deterministic analytic
// model (the default everywhere) and the measured backend, which executes
// the application's functional kernel on a real openmp.Runtime.
type Evaluator = core.Evaluator

// MeasureOptions configures the measured backend (warmup runs and timed
// repetitions per configuration, plus the optional adaptive-repetition
// policy).
type MeasureOptions = measure.Options

// AdaptivePolicy is the variability-targeted stopping rule of the measured
// backend: repetitions continue until the running CoV and/or relative 95% CI
// half-width drop under their targets, bounded by MinReps/MaxReps and an
// optional per-series time budget. Set it in MeasureOptions.Adaptive; the
// zero value disables adaptation and keeps the fixed repetition count.
type AdaptivePolicy = measure.Adaptive

// NewMeasuredEvaluator returns the measured backend: each series builds a
// real openmp.Runtime from the swept configuration (via
// Config.RuntimeOptions), runs the application's kernel with a warmup, times
// sim.Reps repetitions on the monotonic clock, reusing the runtime across
// repetitions, and closes it. The backend keeps no state between series.
// Samples it produces carry Source "measured" in the dataset CSV.
func NewMeasuredEvaluator(opt MeasureOptions) Evaluator { return measure.NewEvaluator(opt) }

// CalibrationOptions selects the architecture, applications and subspace
// size of a backend-agreement study.
type CalibrationOptions = core.CalibrationOptions

// Calibrate evaluates the same configuration subspace under both backends
// and reports how well the alternate backend's runtime ordering tracks the
// reference's (nil = the analytic model). Runtimes are compared in
// speedup-over-default units, so the backends' incomparable absolute scales
// cancel out.
func Calibrate(ref, alt Evaluator, opt CalibrationOptions) (*core.CalibrationReport, error) {
	return core.Calibrate(ref, alt, opt)
}

// CollectOptions configures a data-collection campaign; the zero value
// reproduces the paper's full dataset (Table II). Pass
// NewMeasuredEvaluator(...) as Backend to collect real kernel runtimes, and
// pair a Monitor with a measured Backend whose MeasureOptions.Metrics is
// Monitor.RuntimeMetrics() to include the openmp runtime's fork-join /
// barrier / task histograms.
type CollectOptions = core.SweepConfig

// ProgressEvent is the structured per-setting progress update of a sweep.
type ProgressEvent = core.ProgressEvent

// Collect runs the sweep of §IV and returns the enriched dataset.
func Collect(opt CollectOptions) (*Dataset, error) { return core.RunSweep(opt) }

// ---- Live monitoring ----------------------------------------------------

// Monitor aggregates the live state of one campaign — a sweep or a budgeted
// search: a metrics registry with gauges, counters and latency histograms,
// plus the structured status payload behind the dashboard. Create one with
// NewMonitor, set it in CollectOptions.Monitor or SearchSpec.Monitor, and
// serve it with NewMonitorServer.
type Monitor = core.Monitor

// NewMonitor returns a monitor with its metric schema pre-registered.
func NewMonitor() *Monitor { return core.NewMonitor() }

// MonitorServer is the embedded HTTP monitor: /metrics (Prometheus text
// exposition), /healthz, /api/status (JSON campaign progress), /api/regions
// (the live per-region efficiency profile), /api/variability (the series-noise
// observatory; empty under the model backend) and / (a self-contained HTML
// dashboard polling the APIs).
type MonitorServer = obs.Server

// NewMonitorServer builds the HTTP monitor for mon. Call Start(addr) to bind
// and serve, then Linger(ctx, d) once the campaign ends for a graceful stop.
func NewMonitorServer(mon *Monitor) *MonitorServer {
	srv := obs.NewServer(mon.Registry(), func() any { return mon.Status() })
	srv.SetRegions(func() any { return mon.Regions() })
	srv.SetVariability(func() any { return mon.Variability() })
	return srv
}

// CompareOptions tunes the sweep-vs-sweep regression gate (significance
// level, repetition-CoV noise gate and practical-significance floor); the
// zero value selects the defaults.
type CompareOptions = core.CompareOptions

// CompareSweeps runs the variability-aware regression gate between two
// datasets of the same campaign: samples are paired per configuration,
// pairs whose noise exceeds the gate are excluded, and each arch/app group
// gets a Wilcoxon signed-rank verdict on the paired mean runtimes, flagged
// as regressed only when the shift also clears the practical-significance
// floor. Pairs whose samples carry series provenance (the reps/cov/ci
// columns written by adaptive campaigns) are gated and weighted by their own
// measured CI; legacy pairs fall back to the repetition-CoV cutoff, with
// byte-identical output on provenance-free datasets.
func CompareSweeps(oldDS, newDS *Dataset, opt CompareOptions) (*core.CompareReport, error) {
	return core.CompareDatasets(oldDS, newDS, opt)
}

// DatasetVariability aggregates a dataset's per-series noise provenance into
// the observatory report. Samples without provenance (model rows, files
// predating the reps/cov/ci columns) are counted but contribute no noise
// statistics.
func DatasetVariability(ds *Dataset) *core.VariabilityReport { return core.Variability(ds) }

// Upshot summarizes the per-architecture tuning potential (§V-Q1).
func Upshot(ds *Dataset) []core.UpshotSummary { return core.Upshot(ds) }

// WilcoxonTable reproduces Table III for one app and setting.
func WilcoxonTable(ds *Dataset, app, setting string) []core.WilcoxonRow {
	return core.WilcoxonTable(ds, app, setting)
}

// Influence trains the §IV-D logistic-regression surrogate per group and
// returns the influence heatmap for the grouping (Fig. 2: PerApp, Fig. 3:
// PerArch, Fig. 4: PerArchApp).
func Influence(ds *Dataset, g core.Grouping) (*core.Heatmap, error) {
	return core.InfluenceHeatmap(ds, g, ml.LogisticOptions{})
}

// Recommend mines Table VII-style variable/value suggestions for app.
func Recommend(ds *Dataset, app string) []core.Recommendation {
	return core.Recommend(ds, app)
}

// WorstTrends mines §V-Q4's worst-performance patterns.
func WorstTrends(ds *Dataset) []core.WorstTrend { return core.WorstTrends(ds) }

// Tune runs the §VI guided coordinate-descent search for app on m at the
// given setting, trying variables in the given order (nil = canonical
// order; pass a Heatmap's FeatureRank-derived variables for pruning).
// backend nil means the deterministic analytic model; pass
// NewMeasuredEvaluator(...) to tune against real kernel execution — the
// setting the paper's §VI tuner actually targets.
func Tune(backend Evaluator, m *Machine, app *App, set Setting, order []VarName, budget int) SearchResult {
	return core.Tune(backend, m, app, set, order, budget)
}

// ---- Budgeted search (the Searcher seam) --------------------------------

// SearchSpec carries a search problem: machine, app, setting, space, seed,
// measurement backend, budget, and the optional cache/telemetry/monitor
// sinks.
type SearchSpec = core.SearchSpec

// SearchBudget bounds a search by evaluations and/or wall-clock time; both
// zero means the legacy default of 200 evaluations.
type SearchBudget = core.SearchBudget

// SearchResult is the outcome of one budgeted search: best configuration,
// speedup over the default, budget consumed, cache hits, and the
// best-so-far trajectory.
type SearchResult = core.SearchResult

// SearchStrategies lists the built-in strategy names: greedy, restart,
// anneal, surrogate, random.
func SearchStrategies() []string { return core.SearchStrategies() }

// NewSearcher resolves a strategy by name; the error of an unknown name
// lists the valid set.
func NewSearcher(name string) (core.Searcher, error) { return core.NewSearcher(name) }

// SearchReport joins a search-telemetry JSONL stream (SearchSpec.
// TelemetryLog, ompsearch -telemetry) against a sweep dataset's per-group
// best speedups.
func SearchReport(r io.Reader, ds *Dataset) ([]core.SearchReportRow, error) {
	return core.SearchReport(r, ds)
}

// WriteDatasetCSV writes ds in the open-data tabular format.
func WriteDatasetCSV(w io.Writer, ds *Dataset) error { return ds.WriteCSV(w) }

// ReadDatasetCSV parses a dataset written by WriteDatasetCSV.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteReport renders every table and figure of the paper from ds.
func WriteReport(w io.Writer, ds *Dataset) error {
	// Every section reads one frame of ds. The section that first needs a
	// grouping's fit pays for it; Q3 ranks and Fig 3 draws the same
	// per-architecture one (the costliest single step of the report).
	f := core.NewFrame(ds)
	fits := map[core.Grouping]*core.Heatmap{}
	fitted := func(g core.Grouping, render func(io.Writer, *core.Heatmap) error) error {
		if fits[g] == nil {
			hm, err := f.InfluenceHeatmap(g, ml.LogisticOptions{})
			if err != nil {
				return err
			}
			fits[g] = hm
		}
		return render(w, fits[g])
	}
	sections := []struct {
		title  string
		render func() error
	}{
		{"Table I: hardware configuration", func() error { return report.TableI(w) }},
		{"Table II: dataset description", func() error { return report.TableII(w, f) }},
		{"Table III: Wilcoxon run-consistency (Alignment, small)", func() error { return report.TableIII(w, f, "Alignment", "small") }},
		{"Table IV: runtime statistics per run index (Alignment, small)", func() error { return report.TableIV(w, f, "Alignment", "small") }},
		{"Table V: speedup ranges per application and architecture", func() error { return report.TableV(w, f, []string{"Alignment", "XSbench"}) }},
		{"Table VI: speedup ranges per application", func() error { return report.TableVI(w, f) }},
		{"Table VII: best performing variables and values", func() error { return report.TableVII(w, f, []string{"Nqueens", "CG"}) }},
		{"Q1: upshot potential per architecture", func() error { return report.Q1(w, f) }},
		{"Q2: variable-set consistency across architectures", func() error { return report.Q2(w, f) }},
		{"Q3: best variables per architecture", func() error { return fitted(core.PerArch, report.Q3) }},
		{"Q4: worst-performance trends", func() error { return report.Q4(w, f) }},
		{"Fig 1: Alignment runtime distributions", func() error { return report.Fig1(w, f) }},
		{"Fig 2: influence per application", func() error { return fitted(core.PerApp, report.Fig2) }},
		{"Fig 3: influence per architecture", func() error { return fitted(core.PerArch, report.Fig3) }},
		{"Fig 4: influence per application-architecture", func() error { return fitted(core.PerArchApp, report.Fig4) }},
		{"Fig 5: BT runtime distributions", func() error { return report.Fig5(w, f) }},
		{"Fig 6: Health runtime distributions", func() error { return report.Fig6(w, f) }},
		{"Fig 7: RSBench runtime distributions", func() error { return report.Fig7(w, f) }},
	}
	for _, s := range sections {
		if _, err := fmt.Fprintf(w, "\n======== %s ========\n", s.title); err != nil {
			return err
		}
		if err := s.render(); err != nil {
			return fmt.Errorf("omptune: rendering %q: %w", s.title, err)
		}
	}
	return nil
}

// ---- §VI future-work extensions ----------------------------------------

// CompareModels fits the §IV-D logistic surrogate and a random forest per
// group and reports their accuracies — the paper's proposed non-linear
// follow-up, quantified.
func CompareModels(ds *Dataset, g core.Grouping) ([]core.ModelComparison, error) {
	return core.CompareModels(ds, g, ml.LogisticOptions{},
		ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 1}, 10)
}

// Transfer quantifies §VI's transfer caveat for one application:
// leave-one-architecture-out accuracy vs the majority baseline.
func Transfer(ds *Dataset, app string) ([]core.TransferRow, error) {
	return core.Transfer(ds, app, ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 5}, 10)
}

// RandomSearch is the unguided baseline for Tune: best of `budget` uniform
// configuration draws on backend (nil = the analytic model).
func RandomSearch(backend Evaluator, m *Machine, app *App, set Setting, budget int, seedVal uint64) SearchResult {
	return core.RandomSearch(backend, m, app, set, budget, seedVal)
}

// BestNUMAPlacement evaluates the numa_domains configurations the paper
// deferred for lack of hwloc on backend (nil = the analytic model) and
// returns the best one with its speedup over the default.
func BestNUMAPlacement(backend Evaluator, m *Machine, app *App, set Setting) (env.Config, float64) {
	return core.BestNUMAPlacement(backend, m, app, set)
}

// WriteViolinSVG renders an app's runtime-distribution violins (Fig 1/5-7
// style) as a standalone SVG document.
func WriteViolinSVG(w io.Writer, ds *Dataset, app string) error {
	return viz.ViolinFigureSVG(w, ds, app)
}

// WriteHeatmapSVG renders an influence heatmap (Fig 2-4 style) as a
// standalone SVG document.
func WriteHeatmapSVG(w io.Writer, hm *core.Heatmap, title string) error {
	return viz.HeatmapSVG(w, hm, title)
}
