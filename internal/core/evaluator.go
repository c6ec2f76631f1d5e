package core

import (
	"fmt"
	"math"
	"os"

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
	// EvaluateSeries runs app on machine m under cfg at the given setting as
	// one batch of repeated runs — the study's R0..R3 (§IV-B/C) — and
	// returns the sim.Reps runtimes in seconds; key must be cfg.Key(), which
	// every caller already holds. A backend that measures real series also
	// returns their noise provenance (the real repetition count behind the
	// possibly cycled slots, final CoV, relative 95% CI, stop reason); the
	// zero SeriesMeta means none. A non-nil error means the series produced
	// no data: callers drop the configuration and carry on. Must be safe for
	// concurrent use by sweep workers.
	EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) ([sim.Reps]float64, dataset.SeriesMeta, error)
}

// ModelEvaluator is the analytic-model backend — the deterministic
// performance model that substitutes for the paper's physical testbed. It is
// the default backend of every campaign and analysis.
type ModelEvaluator struct{}

// Name returns the model backend identity.
func (ModelEvaluator) Name() string { return dataset.SourceModel }

// EvaluateSeries returns the modeled series via sim.EvaluateSeries, which
// does the repetition-independent work once; the model never fails and
// carries no noise provenance.
func (ModelEvaluator) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) ([sim.Reps]float64, dataset.SeriesMeta, error) {
	return sim.EvaluateSeries(m, app.Profile, cfg, key, set), dataset.SeriesMeta{}, nil
}

// Evaluate returns one repetition of the modeled series via sim.Evaluate,
// bit-identical to EvaluateSeries' slot rep.
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

// meanRuntime is the tuning and calibration objective: the mean of the
// repeated measurements, the very quantity the study's speedups use. key must
// be cfg.Key().
func meanRuntime(ev Evaluator, m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) (float64, error) {
	series, _, err := ev.EvaluateSeries(m, app, cfg, key, set)
	if err != nil {
		return math.NaN(), err
	}
	return (&dataset.Sample{Runtimes: series}).MeanRuntime(), nil
}

// reportSkipped surfaces a failed series on stderr. Every caller then carries
// on without the configuration: a campaign is hours of checkpointed work, and
// one bad configuration is a data point, not a crash.
func reportSkipped(err error) {
	fmt.Fprintf(os.Stderr, "core: %v (series skipped)\n", err)
}
