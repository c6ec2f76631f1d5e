package core

import (
	"fmt"
	"math"
	"os"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/measure"
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

// NewBackend resolves a measurement backend by name: "model" is the analytic
// model, which reaches every Evaluator field as nil (never as a typed-nil
// *measure.Evaluator), and "measured" runs the kernels under opt, reporting
// the runtime's latencies and region profiles to mon when it is set. The
// error of an unknown name lists the two.
func NewBackend(name string, opt measure.Options, mon *Monitor) (Evaluator, error) {
	switch name {
	case dataset.SourceModel:
		return nil, nil
	case dataset.SourceMeasured:
		if mon != nil {
			opt.Metrics, opt.Profile = mon.RuntimeMetrics(), mon.RuntimeProfile()
		}
		return measure.NewEvaluator(opt), nil
	}
	return nil, fmt.Errorf("core: unknown backend %q (valid: %s, %s)", name, dataset.SourceModel, dataset.SourceMeasured)
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

// problemSeries is how core evaluates configurations of one (machine, app,
// setting) problem under one backend: for ModelEvaluator through the
// problem's sim.Bound, bound once by bindSeries, for any other backend
// through its EvaluateSeries. The sweep, the searches, Calibrate and
// BestNUMAPlacement evaluate only through it.
type problemSeries struct {
	ev    Evaluator
	m     *topology.Machine
	app   *apps.App
	set   sim.Setting
	model bool // ev is the model: bound answers
	bound sim.Bound
}

func bindSeries(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting) problemSeries {
	ps := problemSeries{ev: ev, m: m, app: app, set: set}
	if _, ok := ev.(ModelEvaluator); ok {
		ps.model, ps.bound = true, sim.Bind(m, app.Profile, set)
	}
	return ps
}

// series returns cfg's series, with EvaluateSeries' results. The model reads
// keyHash, sim.KeyHash(cfg.Key()), as its seed, and any other backend key,
// cfg.Key(): a caller that holds neither takes what is read from keyed.
func (ps *problemSeries) series(cfg env.Config, key string, keyHash uint64) ([sim.Reps]float64, dataset.SeriesMeta, error) {
	if ps.model {
		return ps.bound.Series(cfg, keyHash), dataset.SeriesMeta{}, nil
	}
	return ps.ev.EvaluateSeries(ps.m, ps.app, cfg, key, ps.set)
}

// keyed builds what cfg's series reads of its key: for the model the seed,
// hashed from a key appended into a stack buffer, so nothing is allocated;
// for any other backend the key.
func (ps *problemSeries) keyed(cfg *env.Config) (key string, keyHash uint64) {
	if !ps.model {
		return cfg.Key(), 0
	}
	var buf [128]byte // as Key's: the longest swept key is 102 bytes
	return "", sim.KeyHash(cfg.AppendKey(buf[:0]))
}

// mean is the tuning and calibration objective: the mean of cfg's repeated
// measurements, the very quantity the study's speedups use; NaN for a
// failed series. key and keyHash are as series takes them.
func (ps *problemSeries) mean(cfg env.Config, key string, keyHash uint64) (float64, error) {
	runs, _, err := ps.series(cfg, key, keyHash)
	if err != nil {
		return math.NaN(), err
	}
	return (&dataset.Sample{Runtimes: runs}).MeanRuntime(), nil
}

// reportSkipped surfaces a failed series on stderr. Every caller then carries
// on without the configuration: a campaign is hours of checkpointed work, and
// one bad configuration is a data point, not a crash.
func reportSkipped(err error) {
	fmt.Fprintf(os.Stderr, "core: %v (series skipped)\n", err)
}
