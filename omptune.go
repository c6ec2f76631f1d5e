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
// The heavy lifting lives in internal packages, which the commands under
// cmd/ call directly; this package is the stable surface for code outside
// the module.
package omptune

import (
	"io"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/ml"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/topology"
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

// MachineByName returns the model for an architecture name
// ("a64fx", "skylake", "milan").
func MachineByName(name string) (*Machine, error) { return topology.Get(Arch(name)) }

// ApplicationByName looks an application up by its table name
// (e.g. "Nqueens", "XSbench").
func ApplicationByName(name string) (*App, error) { return apps.ByName(name) }

// ---- Measurement backends (the Evaluator seam) --------------------------

// Evaluator is the pluggable measurement backend behind Collect, Tune and
// Calibrate: it returns the repeated runs of an application under a
// configuration as one series — runtimes, noise provenance, or an error.
// Two backends ship with the library — the deterministic analytic model
// (the default everywhere) and the measured backend, which executes the
// application's functional kernel on a real openmp.Runtime.
type Evaluator = core.Evaluator

// MeasureOptions configures the measured backend (warmup runs and timed
// repetitions per configuration, plus the optional adaptive-repetition
// policy).
type MeasureOptions = measure.Options

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
// NewMeasuredEvaluator(...) as Backend to collect real kernel runtimes.
type CollectOptions = core.SweepConfig

// ProgressEvent is the campaign record a sweep hands
// CollectOptions.OnProgress once per completed setting batch.
type ProgressEvent = core.Event

// Collect runs the sweep of §IV and returns the enriched dataset.
func Collect(opt CollectOptions) (*Dataset, error) { return core.RunSweep(opt) }

// Influence trains the §IV-D logistic-regression surrogate per group and
// returns the influence heatmap for the grouping (Fig. 2: PerApp, Fig. 3:
// PerArch, Fig. 4: PerArchApp).
func Influence(ds *Dataset, g core.Grouping) (*core.Heatmap, error) {
	return core.InfluenceHeatmap(ds, g, ml.LogisticOptions{})
}

// Recommend mines Table VII-style variable/value suggestions for app.
func Recommend(ds *Dataset, app string) []core.Recommendation {
	return core.NewFrame(ds).Recommend(app)
}

// WorstTrends mines §V-Q4's worst-performance patterns.
func WorstTrends(ds *Dataset) []core.WorstTrend { return core.WorstTrends(ds) }

// SearchResult is the outcome of one budgeted search: best configuration,
// speedup over the default, budget consumed, cache hits, and the
// best-so-far trajectory.
type SearchResult = core.SearchResult

// Tune runs the §VI guided coordinate-descent search for app on m at the
// given setting, trying variables in the given order (nil = canonical
// order; pass the variables of an Influence heatmap by mean influence for
// pruning).
// backend nil means the deterministic analytic model; pass
// NewMeasuredEvaluator(...) to tune against real kernel execution — the
// setting the paper's §VI tuner actually targets. A default configuration
// whose series fails is returned as an error; failing candidates are
// skipped.
func Tune(backend Evaluator, m *Machine, app *App, set Setting, order []VarName, budget int) (SearchResult, error) {
	return core.Tune(backend, m, app, set, order, budget)
}

// WriteDatasetCSV writes ds in the open-data tabular format.
func WriteDatasetCSV(w io.Writer, ds *Dataset) error { return ds.WriteCSV(w) }

// ReadDatasetCSV parses a dataset written by WriteDatasetCSV.
func ReadDatasetCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteReport renders every table and figure of the paper from ds.
func WriteReport(w io.Writer, ds *Dataset) error { return report.Write(w, ds) }
