package measure

import (
	"time"

	"omptune/internal/stats"
	"omptune/openmp"
)

// Stop reasons recorded on Series.StopReason.
const (
	// StopFixed: the series ran a fixed repetition count (no adaptive policy).
	StopFixed = "fixed"
	// StopTarget: every enabled noise target (CoV / relative CI) was met.
	StopTarget = "target"
	// StopMaxReps: the adaptive series hit its repetition ceiling before the
	// targets were met.
	StopMaxReps = "max-reps"
	// StopBudget: the per-series time budget expired before the targets were
	// met.
	StopBudget = "budget"
)

// CIConfidence is the confidence level of every interval the measurement
// layer reports (Series.CIHalfWidth / CIRel and the Adaptive.TargetCIRel
// stopping rule).
const CIConfidence = 0.95

// Adaptive is the adaptive-measurement policy: instead of a fixed repetition
// count, a series keeps repeating until its online noise estimate meets the
// targets. After MinReps repetitions the series stops as soon as every
// enabled target holds — CoV <= TargetCoV and relative 95% CI half-width <=
// TargetCIRel (a target <= 0 is disabled; enabling at least one turns the
// policy on). MaxReps caps the series length and MaxTime bounds the timed
// phase's wall-clock budget, so a hopelessly noisy configuration cannot
// stall a campaign.
type Adaptive struct {
	// TargetCoV stops the series once the coefficient of variation of the
	// timed reps falls to this value or below (<= 0 disables this target).
	TargetCoV float64
	// TargetCIRel stops the series once the relative 95% confidence-interval
	// half-width of the mean falls to this value or below (<= 0 disables).
	TargetCIRel float64
	// MinReps is the minimum number of timed repetitions before the stopping
	// rule is consulted (default 2 — the smallest count with a variance).
	MinReps int
	// MaxReps caps the series length (default 16).
	MaxReps int
	// MaxTime, when positive, bounds the wall-clock time of the timed phase:
	// no new repetition starts after the budget is spent.
	MaxTime time.Duration
}

// Enabled reports whether the policy is active: at least one noise target
// is set.
func (a Adaptive) Enabled() bool { return a.TargetCoV > 0 || a.TargetCIRel > 0 }

func (a Adaptive) withDefaults() Adaptive {
	if a.MinReps < 2 {
		a.MinReps = 2
	}
	if a.MaxReps <= 0 {
		a.MaxReps = 16
	}
	if a.MaxReps < a.MinReps {
		a.MaxReps = a.MinReps
	}
	return a
}

// met reports whether every enabled target holds for the accumulated series.
func (a Adaptive) met(w *stats.Welford) bool {
	if a.TargetCoV > 0 && w.CoV() > a.TargetCoV {
		return false
	}
	if a.TargetCIRel > 0 && w.CIRel(CIConfidence) > a.TargetCIRel {
		return false
	}
	return true
}

// timeNow is the series clock; a test seam so the stopping rule can be
// exercised against scripted time.
var timeNow = time.Now

// RunObserved is the harness behind every measured series: warmup untimed
// runs, then observe when it is non-nil — where a caller attaches a tracer
// or a profiler, so that it covers the timed repetitions only, the runs the
// reported times come from — then the timed repetitions. With pol disabled
// it runs exactly reps of them (stop reason "fixed"); enabled, between
// MinReps and MaxReps under the stopping rule. Either way the series' noise
// estimates are streamed through a Welford accumulator and recorded on the
// result. An error from observe ends the series before its first timed run.
func RunObserved(rt *openmp.Runtime, kernel func(*openmp.Runtime, float64) float64, scale float64, warmup, reps int, pol Adaptive, observe func() error) (Series, error) {
	if warmup < 0 {
		warmup = 0
	}
	adaptive := pol.Enabled()
	maxReps := reps
	if adaptive {
		pol = pol.withDefaults()
		maxReps = pol.MaxReps
	} else if maxReps < 1 {
		maxReps = 1
	}
	s := Series{
		Runtimes:   make([]float64, 0, maxReps),
		Checksums:  make([]float64, 0, warmup+maxReps),
		RepStats:   make([]openmp.Stats, 0, maxReps),
		Warmup:     warmup,
		StopReason: StopFixed,
	}
	for i := 0; i < warmup; i++ {
		s.Checksum = kernel(rt, scale)
		s.Checksums = append(s.Checksums, s.Checksum)
	}
	if observe != nil {
		if err := observe(); err != nil {
			return Series{}, err
		}
	}
	var w stats.Welford
	prev := rt.Stats()
	seriesStart := timeNow()
	for {
		start := timeNow()
		s.Checksum = kernel(rt, scale)
		elapsed := timeNow().Sub(start).Seconds()
		s.Checksums = append(s.Checksums, s.Checksum)
		if elapsed <= 0 {
			// Sub-resolution kernels still need a positive, honest runtime;
			// one nanosecond is below every real kernel here.
			elapsed = 1e-9
		}
		s.Runtimes = append(s.Runtimes, elapsed)
		w.Add(elapsed)
		cur := rt.Stats()
		s.RepStats = append(s.RepStats, cur.Sub(prev))
		prev = cur
		if !adaptive {
			if w.N() >= maxReps {
				break
			}
			continue
		}
		if w.N() >= pol.MinReps && pol.met(&w) {
			s.StopReason = StopTarget
			break
		}
		if w.N() >= maxReps {
			s.StopReason = StopMaxReps
			break
		}
		if pol.MaxTime > 0 && timeNow().Sub(seriesStart) >= pol.MaxTime {
			s.StopReason = StopBudget
			break
		}
	}
	s.RepsRun = w.N()
	s.CoV = w.CoV()
	s.CIHalfWidth = w.CIHalfWidth(CIConfidence)
	s.CIRel = w.CIRel(CIConfidence)
	s.Stats = rt.Stats()
	return s, nil
}
