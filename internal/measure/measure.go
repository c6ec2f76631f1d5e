// Package measure is the real-execution measurement backend: it runs an
// application's functional kernel on an actual openmp.Runtime built from the
// swept env.Config (via Config.RuntimeOptions) and times it with the
// monotonic clock. It is the counterpart of the analytic model in
// internal/sim — the two plug into the same core.Evaluator seam, so every
// analysis in the repository can run on modeled or measured data.
//
// The package also exposes the shared measurement harness (RunObserved, and
// Run for a plain fixed series) used by cmd/omprun, so one-off command-line
// measurements and sweep campaigns time kernels identically: warmup runs
// first, then timed repetitions on the same runtime (reusing the hot team
// across reps, as a user re-running a binary under an exported environment
// would reuse a warmed machine).
package measure

import (
	"fmt"
	"math"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
	"omptune/openmp/profile"
)

// Series is the result of one measured kernel series: warmup runs followed
// by timed repetitions on the same runtime.
type Series struct {
	// Runtimes are the timed repetitions, in seconds (monotonic clock).
	Runtimes []float64
	// Checksum is the kernel's verification value from the last run.
	Checksum float64
	// Checksums holds every run's verification value: the warmup runs',
	// then the timed repetitions' (Checksums[Warmup+i] pairs with
	// Runtimes[i]).
	Checksums []float64
	// Stats snapshots the runtime's activity counters after the series
	// (cumulative over warmup and timed runs).
	Stats openmp.Stats
	// RepStats holds the per-repetition counter deltas, one entry per
	// timed run (RepStats[i] pairs with Runtimes[i]). Each delta is taken
	// between region-quiescent snapshots, so the region-scoped counters
	// (Regions, Chunks, TasksRun, TasksStolen) are exact per rep; sleeps
	// and wakeups can smear into the following rep's delta (see the
	// openmp.Stats contract).
	RepStats []openmp.Stats
	// Warmup is how many untimed runs preceded the timed repetitions.
	Warmup int
	// RepsRun is the number of timed repetitions actually run
	// (== len(Runtimes); recorded explicitly for provenance symmetry with
	// the dataset's reps column).
	RepsRun int
	// CoV is the final coefficient of variation of the timed reps (sample
	// standard deviation over mean; 0 for a single rep).
	CoV float64
	// CIHalfWidth is the half-width, in seconds, of the 95% Student-t
	// confidence interval for the mean runtime.
	CIHalfWidth float64
	// CIRel is CIHalfWidth relative to the mean — the dimensionless
	// precision figure the adaptive stopping rule targets.
	CIRel float64
	// StopReason records why the series stopped: StopFixed for a fixed
	// repetition count, or StopTarget / StopMaxReps / StopBudget for an
	// adaptive series.
	StopReason string
}

// Run executes kernel on rt at the given scale: warmup untimed runs, then
// reps timed repetitions. The runtime is reused across all runs — the first
// (warmup) run pays team spin-up and allocator warm-up so the timed reps
// measure steady state, mirroring the repeated-run methodology of §IV-C.
func Run(rt *openmp.Runtime, kernel func(*openmp.Runtime, float64) float64, scale float64, warmup, reps int) Series {
	s, _ := RunObserved(rt, kernel, scale, warmup, reps, Adaptive{}, nil) // nothing to observe, no error
	return s
}

// Options configures the measured evaluator.
type Options struct {
	// Warmup is the number of untimed runs before the timed repetitions
	// (default 1).
	Warmup int
	// TimedReps is how many timed repetitions one configuration gets
	// (default sim.Reps, matching the study's R0..R3). When fewer than
	// sim.Reps, the sweep's repetition slots cycle over the timed runs —
	// useful for smoke campaigns where two reps suffice. Ignored when
	// Adaptive is enabled.
	TimedReps int
	// Adaptive, when enabled (a noise target set), replaces the fixed
	// TimedReps count with the adaptive stopping rule: each series repeats
	// until its CoV / relative-CI targets are met, its rep ceiling is hit,
	// or its time budget expires. The sweep's fixed sample shape is
	// preserved by cycling the repetition slots over however many reps the
	// series ran; the series' real rep count and noise estimates travel
	// with the runtimes into the dataset's reps/cov/ci columns.
	Adaptive Adaptive
	// Metrics, when non-nil, is attached (Runtime.SetMetrics) to every
	// runtime the evaluator builds, feeding region / barrier-wait / task-run
	// latency histograms to a live monitor. The sinks must be safe for
	// concurrent use — one Metrics value is shared by every measured series.
	Metrics *openmp.Metrics
	// Profile, when non-nil, receives each measured series' per-region
	// efficiency profile: every runtime the evaluator builds gets its own
	// profiler (attached after the warmup runs, so team spin-up does not
	// pollute the region stats) and the report is folded into this
	// aggregate when the series ends. The aggregator is safe for concurrent
	// folds from parallel sweep workers.
	Profile *profile.Aggregator
}

func (o Options) withDefaults() Options {
	if o.Warmup <= 0 {
		o.Warmup = 1
	}
	if o.TimedReps <= 0 {
		o.TimedReps = sim.Reps
	}
	if o.Adaptive.Enabled() {
		o.Adaptive = o.Adaptive.withDefaults()
	}
	return o
}

// Evaluator is the measured counterpart of the analytic model: every series
// builds a real openmp.Runtime from the configuration (via
// env.Config.RuntimeOptions), runs the application's kernel with the shared
// harness — warmup, then every timed repetition on that one runtime — and
// closes it. The evaluator holds only its options, so it is safe for
// concurrent use by sweep workers and remembers nothing: a caller that may
// ask for a configuration twice memoizes above it (core.EvalCache).
type Evaluator struct {
	opt Options
}

// NewEvaluator returns a measured-backend evaluator with the given options.
func NewEvaluator(opt Options) *Evaluator {
	return &Evaluator{opt: opt.withDefaults()}
}

// Name identifies the backend in dataset provenance columns and checkpoint
// manifests.
func (e *Evaluator) Name() string { return dataset.SourceMeasured }

// EvaluateSeries measures one series of app's kernel under cfg (key is
// cfg.Key()) at the given setting. The sim.Reps slots cycle over however many
// repetitions the series timed — a short fixed series repeats, a longer
// adaptive one keeps its first sim.Reps — and the returned provenance records
// how many really ran. A failed measurement is an error naming the series,
// never a panic: one bad configuration must not kill a campaign. So is a
// series whose checksum is more than checksumTolerance from the app's
// one-thread reference (apps.App.Reference): it computed something else;
// and one whose timed reps disagree on the counts its kernel's control flow
// fixes (checkCounts): its reps ran different work.
func (e *Evaluator) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) (slots [sim.Reps]float64, meta dataset.SeriesMeta, err error) {
	s, err := e.measure(m, app, cfg, set)
	if err == nil {
		err = checkChecksums(s, app.Reference(set.Scale))
	}
	if err == nil {
		err = checkCounts(s.RepStats)
	}
	if err != nil {
		return slots, meta, fmt.Errorf("measure: %s|%s|%s|%s: %w", m.Arch, app.Name, set.Label, key, err)
	}
	for rep := range slots {
		slots[rep] = s.Runtimes[rep%len(s.Runtimes)]
	}
	return slots, dataset.SeriesMeta{Reps: s.RepsRun, CoV: s.CoV, CIRel: s.CIRel, StopReason: s.StopReason}, nil
}

// checksumTolerance bounds a series' relative checksum drift from the
// reference. Reduction order moves the last bits with the team and the
// reduction method (below 5e-14 over six configurations at scales 0.5, 1
// and 2); a kernel that computed something else misses by far more.
const checksumTolerance = 1e-9

// checkChecksums reports the first run of s, warmup or timed, whose
// checksum differs from the reference by more than checksumTolerance,
// relative; a NaN matches nothing. Every run is checked, not only the last:
// a kernel that carries state from one call into the next goes wrong after
// its first.
func checkChecksums(s Series, ref float64) error {
	for i, got := range s.Checksums {
		if got == ref || math.Abs(got-ref) <= checksumTolerance*math.Max(math.Abs(got), math.Abs(ref)) {
			continue
		}
		run := fmt.Sprintf("rep %d", i-s.Warmup)
		if i < s.Warmup {
			run = fmt.Sprintf("warmup run %d", i)
		}
		return fmt.Errorf("%s: checksum %.17g, one-thread reference %.17g", run, got, ref)
	}
	return nil
}

// checkCounts reports timed reps that disagree with the first on regions
// forked, loop chunks handed out or tasks run. A kernel fixes all three by
// its control flow, whatever the schedule or the interleaving (openmp's
// Stats are exact per rep), so a rep that differs ran different work. Sleeps,
// wakeups and steals follow timing and are not compared.
func checkCounts(reps []openmp.Stats) error {
	for i := 1; i < len(reps); i++ {
		r, f := reps[i], reps[0]
		if r.Regions != f.Regions || r.Chunks != f.Chunks || r.TasksRun != f.TasksRun {
			return fmt.Errorf("rep %d: %d regions, %d chunks, %d tasks run; rep 0: %d, %d, %d",
				i, r.Regions, r.Chunks, r.TasksRun, f.Regions, f.Chunks, f.TasksRun)
		}
	}
	return nil
}

// newRuntime builds the runtime a series measures on; a test seam for
// forcing measurement failures without inventing an invalid configuration.
var newRuntime = openmp.New

// measure runs one full series for the key on a fresh runtime.
func (e *Evaluator) measure(m *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting) (Series, error) {
	opts := cfg.RuntimeOptions(m)
	if set.Threads > 0 {
		opts.NumThreads = set.Threads
	}
	rt, err := newRuntime(opts)
	if err != nil {
		return Series{}, err
	}
	defer rt.Close()
	if e.opt.Metrics != nil {
		rt.SetMetrics(e.opt.Metrics)
	}
	// A profiled series' profiler watches the timed repetitions, and its
	// report joins the campaign-wide aggregate.
	var observe func() error
	if e.opt.Profile != nil {
		observe = rt.StartProfile
	}
	s, err := RunObserved(rt, app.Kernel, set.Scale, e.opt.Warmup, e.opt.TimedReps, e.opt.Adaptive, observe)
	if err != nil {
		return Series{}, err
	}
	if e.opt.Profile != nil {
		e.opt.Profile.Fold(rt.StopProfile())
	}
	return s, nil
}
