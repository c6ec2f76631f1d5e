package core

import (
	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// Evaluator is the measurement seam of the study engine: every analysis that
// needs the runtime of an application under a configuration — the sweep of
// §IV, the guided tuner of §VI, the random-search baseline, the extended
// NUMA experiments — asks an Evaluator instead of calling the analytic model
// directly. Two backends implement it: ModelEvaluator (the deterministic
// performance model in internal/sim, the default everywhere) and the
// measured backend in internal/measure, which executes the application's
// functional kernel on a real openmp.Runtime.
type Evaluator interface {
	// Name identifies the backend ("model", "measured"). It is recorded in
	// the dataset's Source provenance column and the checkpoint manifest, so
	// a campaign journaled under one backend cannot silently resume under
	// another.
	Name() string
	// Deterministic reports whether repeated calls with identical arguments
	// return identical values. The model is deterministic — which is what
	// makes byte-identical CSV output and checkpoint resume exact; wall-clock
	// measurement is not.
	Deterministic() bool
	// Evaluate returns the runtime, in seconds, of app on machine m under
	// cfg at the given setting, for repetition rep in [0, sim.Reps).
	Evaluate(m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting, rep int) float64
}

// SeriesMetaProvider is the optional evaluator extension behind the
// variability observatory: a backend that measures real series can report
// each series' noise provenance — the real repetition count behind the
// sample's (possibly cycled) runtime slots, the final CoV, the relative 95%
// CI half-width, and the stop reason. The sweep type-asserts this interface
// and stamps the provenance onto every sample it emits (the dataset's
// reps/cov/ci columns); backends without it (the model) produce samples
// without provenance, exactly as before.
type SeriesMetaProvider interface {
	SeriesMeta(m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting) (dataset.SeriesMeta, bool)
}

// ModelEvaluator is the analytic-model backend — the deterministic
// performance model that substitutes for the paper's physical testbed. It is
// the default backend of every campaign and analysis.
type ModelEvaluator struct{}

// Name returns the model backend identity.
func (ModelEvaluator) Name() string { return dataset.SourceModel }

// Deterministic reports true: the model is a pure function of its arguments.
func (ModelEvaluator) Deterministic() bool { return true }

// Evaluate returns the modeled runtime via sim.Evaluate.
func (ModelEvaluator) Evaluate(m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting, rep int) float64 {
	return sim.Evaluate(m, app.Profile, cfg, set, rep)
}

// orModel resolves a nil evaluator to the default model backend, keeping
// pre-seam behaviour (and byte-identical output) for every caller that does
// not opt into a backend.
func orModel(ev Evaluator) Evaluator {
	if ev == nil {
		return ModelEvaluator{}
	}
	return ev
}

// evalSeries returns the sim.Reps runtimes of one configuration; key must be
// cfg.Key(). Exactly the model backend takes the whole series in one call
// (sim.EvaluateSeries does the repetition-independent work once, with
// bit-identical results); every other backend — including a type that embeds
// ModelEvaluator and overrides Evaluate — is asked repetition by repetition.
func evalSeries(ev Evaluator, m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) (out [sim.Reps]float64) {
	if _, ok := ev.(ModelEvaluator); ok {
		return sim.EvaluateSeries(m, app.Profile, cfg, key, set)
	}
	for rep := range out {
		out[rep] = ev.Evaluate(m, app, cfg, set, rep)
	}
	return out
}

// meanRuntime is the tuning and calibration objective: the mean of the
// repeated measurements, the same quantity the study's speedups use.
func meanRuntime(ev Evaluator, m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting) float64 {
	return seriesMean(evalSeries(ev, m, app, cfg, cfg.Key(), set))
}

func seriesMean(series [sim.Reps]float64) float64 {
	total := 0.0
	for _, t := range series {
		total += t
	}
	return total / sim.Reps
}
