// Package dataset holds the tabular sample data produced by the sweep: one
// row per (architecture, application, setting, configuration) with the
// repeated runtime measurements, the enrichment columns of §IV-B (the
// default configuration's runtime) and the derived speedup and optimality
// label of §IV-D.
package dataset

import (
	"fmt"
	"math"
	"sort"

	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// Sample is one dataset row.
type Sample struct {
	Arch    topology.Arch
	App     string
	Suite   string
	Setting string  // setting label: input size or thread-count tag
	Threads int     // OMP_NUM_THREADS of the setting
	Scale   float64 // input scale of the setting
	Config  env.Config

	// Runtimes holds the repeated measurements R0..R3 in seconds.
	Runtimes [sim.Reps]float64
	// DefaultRuntime is the mean runtime of the default configuration in
	// the same setting (the enrichment step of §IV-B).
	DefaultRuntime float64
	// Source records the measurement backend that produced the runtimes
	// ("model" for the analytic model, "measured" for real kernel execution
	// on the openmp runtime). Empty means "model" — the provenance of every
	// dataset written before the Source column existed.
	Source string

	// RepsRun, CoV and CIRel are the measurement-provenance columns of the
	// variability observatory: how many real repetitions the series ran
	// (the Runtimes slots cycle over them when RepsRun < sim.Reps, and hold
	// only the first sim.Reps when an adaptive series ran more), the final
	// coefficient of variation over those real reps, and the relative 95%
	// Student-t confidence-interval half-width of the mean. RepsRun == 0
	// means "no provenance recorded" — every model sample and every dataset
	// written before these columns existed.
	RepsRun int
	CoV     float64
	CIRel   float64
}

// HasSeriesMeta reports whether the sample carries per-series measurement
// provenance (reps/cov/ci columns).
func (s *Sample) HasSeriesMeta() bool { return s.RepsRun > 0 }

// SeriesMeta is the per-series noise provenance a measurement backend
// returns with a series' runtimes: the real repetition count behind a
// sample's cycled runtime slots, the series' final noise estimates, and why
// measurement stopped. The zero value means "no provenance". It lives here
// (not in the measure package) so the core Evaluator seam can name it without
// importing the backend.
type SeriesMeta struct {
	// Reps is the number of real timed repetitions the series ran.
	Reps int
	// CoV is the final coefficient of variation over the real reps.
	CoV float64
	// CIRel is the relative 95% confidence-interval half-width of the mean.
	CIRel float64
	// StopReason records why the series stopped: "fixed" (fixed rep count),
	// "target" (noise targets met), "max-reps", or "budget".
	StopReason string
}

// SourceModel and SourceMeasured are the provenance values of the built-in
// measurement backends.
const (
	SourceModel    = "model"
	SourceMeasured = "measured"
)

// SourceName returns the sample's provenance, normalizing the empty
// (pre-Source, legacy) value to SourceModel.
func (s *Sample) SourceName() string {
	if s.Source == "" {
		return SourceModel
	}
	return s.Source
}

// MeanRuntime averages the repeated measurements, the mitigation for
// run-to-run variation chosen in §IV-C.
func (s *Sample) MeanRuntime() float64 {
	t := 0.0
	for _, r := range s.Runtimes {
		t += r
	}
	return t / float64(len(s.Runtimes))
}

// Speedup is DefaultRuntime / MeanRuntime; values above 1 beat the default.
func (s *Sample) Speedup() float64 {
	m := s.MeanRuntime()
	if m <= 0 || s.DefaultRuntime <= 0 {
		return 0
	}
	return s.DefaultRuntime / m
}

// OptimalThreshold is the labeling rule of §IV-D: a sample is "optimal"
// when it improves on the default by more than 1%.
const OptimalThreshold = 1.01

// Optimal reports whether the sample is labeled optimal.
func (s *Sample) Optimal() bool { return s.Speedup() > OptimalThreshold }

// SettingKey renders the sample's (arch, app, setting) group as a label for
// messages and output. Analysis code selects groups with Groups and Where,
// never by comparing this string.
func (s *Sample) SettingKey() string {
	return string(s.Arch) + "/" + s.App + "/" + s.Setting
}

// Dataset is an ordered collection of samples.
type Dataset struct {
	Samples []*Sample
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Group is one setting batch of §IV-B — every sample of one (arch, app,
// setting) — the unit every table, figure, question and fit selects from.
type Group struct {
	Arch    topology.Arch
	App     string
	Setting string
	// Samples holds the group's samples in dataset order.
	Samples []*Sample
}

// groupID is the comparable identity of a group: a map key that costs no
// string concatenation.
type groupID struct {
	arch         topology.Arch
	app, setting string
}

func (s *Sample) groupID() groupID { return groupID{s.Arch, s.App, s.Setting} }

// Groups returns the dataset's (arch, app, setting) groups in first-seen
// order, each with its samples in dataset order. A group stored as one run
// shares the dataset's backing array; a group split across runs gets a copy.
// Nothing is cached: a Dataset is a plain slice callers may append to, and
// one call is a single pass.
func (d *Dataset) Groups() []Group {
	groups, _ := d.Runs()
	return groups
}

// Run is one maximal run of consecutive samples of one group: positions
// [Lo, Hi) of Samples, all in group Group (an index into the groups Runs
// returns).
type Run struct {
	Lo, Hi, Group int
}

// Runs is the one pass behind Groups, Where and core's analysis frame: the
// groups as Groups returns them, and every run in dataset order, so a
// selection emits runs without walking the samples again. A sweep writes
// each group as one run, so the map lookup happens once per group, not per
// sample.
func (d *Dataset) Runs() ([]Group, []Run) {
	var groups []Group
	var runs []Run
	index := make(map[groupID]int)
	for i := 0; i < len(d.Samples); {
		id := d.Samples[i].groupID()
		j := i + 1
		for j < len(d.Samples) && d.Samples[j].groupID() == id {
			j++
		}
		samples := d.Samples[i:j:j]
		g, ok := index[id]
		if ok {
			groups[g].Samples = append(groups[g].Samples, samples...)
		} else {
			g = len(groups)
			index[id] = g
			groups = append(groups, Group{Arch: id.arch, App: id.app, Setting: id.setting, Samples: samples})
		}
		runs = append(runs, Run{i, j, g})
		i = j
	}
	return groups, runs
}

// Where returns the samples of the groups match accepts, in dataset order.
// match runs once per group and sees the whole group.
func (d *Dataset) Where(match func(*Group) bool) *Dataset {
	groups, runs := d.Runs()
	keep := make([]bool, len(groups))
	n := 0
	for i := range groups {
		if keep[i] = match(&groups[i]); keep[i] {
			n += len(groups[i].Samples)
		}
	}
	out := &Dataset{Samples: make([]*Sample, 0, n)}
	for _, r := range runs {
		if keep[r.Group] {
			out.Samples = append(out.Samples, d.Samples[r.Lo:r.Hi]...)
		}
	}
	return out
}

// ByArch returns the subset collected on arch.
func (d *Dataset) ByArch(arch topology.Arch) *Dataset {
	return d.Where(func(g *Group) bool { return g.Arch == arch })
}

// ByApp returns the subset for the named application.
func (d *Dataset) ByApp(app string) *Dataset {
	return d.Where(func(g *Group) bool { return g.App == app })
}

// Apps returns the dataset's distinct applications, sorted by name.
func (d *Dataset) Apps() []string { return AppsOf(d.Groups()) }

// AppsOf returns the distinct applications of groups, sorted by name.
func AppsOf(groups []Group) []string {
	seen := make(map[string]bool)
	var out []string
	for _, g := range groups {
		if !seen[g.App] {
			seen[g.App] = true
			out = append(out, g.App)
		}
	}
	sort.Strings(out)
	return out
}

// Best returns the group's sample with the highest speedup, the first such
// in dataset order.
func (g *Group) Best() *Sample {
	best, bestSp := g.Samples[0], g.Samples[0].Speedup()
	for _, s := range g.Samples[1:] {
		if sp := s.Speedup(); sp > bestSp {
			best, bestSp = s, sp
		}
	}
	return best
}

// RangeOf returns the minimum and maximum of per-setting best speedups, or
// 0, 0 for none.
func RangeOf(best []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, sp := range best {
		if sp < lo {
			lo = sp
		}
		if sp > hi {
			hi = sp
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 0
	}
	return lo, hi
}

// MedianOf returns the median of per-setting best speedups, or 0 for none.
// It sorts best in place.
func MedianOf(best []float64) float64 {
	if len(best) == 0 {
		return 0
	}
	sort.Float64s(best)
	n := len(best)
	if n%2 == 1 {
		return best[n/2]
	}
	return (best[n/2-1] + best[n/2]) / 2
}

// RuntimeColumn extracts repetition rep's runtime for every sample of the
// group.
func (g *Group) RuntimeColumn(rep int) []float64 {
	out := make([]float64, 0, len(g.Samples))
	for _, s := range g.Samples {
		out = append(out, s.Runtimes[rep])
	}
	return out
}

// Validate performs integrity checks: positive finite runtimes, enriched
// default runtimes, consistent setting metadata and sane series provenance.
// The comparisons are written so that NaN fails them.
func (d *Dataset) Validate() error {
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	for i, s := range d.Samples {
		for r, t := range s.Runtimes {
			if !positive(t) {
				return fmt.Errorf("dataset: sample %d rep %d has runtime %v", i, r, t)
			}
		}
		if !positive(s.DefaultRuntime) {
			return fmt.Errorf("dataset: sample %d (%s) not enriched with default runtime", i, s.SettingKey())
		}
		if s.Threads < 1 || !positive(s.Scale) {
			return fmt.Errorf("dataset: sample %d has invalid setting %d threads scale %v", i, s.Threads, s.Scale)
		}
		if s.RepsRun < 0 || !(s.CoV >= 0) || !(s.CIRel >= 0) {
			return fmt.Errorf("dataset: sample %d has invalid series provenance reps %d cov %v ci %v", i, s.RepsRun, s.CoV, s.CIRel)
		}
	}
	return nil
}
