package core

// The noise observatory: aggregate the per-series measurement provenance
// (the dataset's reps/cov/ci columns) into per-arch/app/setting noise
// distributions, so a campaign's trustworthiness — and the measurement time
// its adaptive policy saved — is itself observable. This is the offline
// sibling of Monitor.Variability: the monitor answers "now" over HTTP while
// a campaign runs, this report answers "what did we get" from the CSV.

import (
	"fmt"
	"strings"

	"omptune/internal/dataset"
	"omptune/internal/sim"
	"omptune/internal/stats"
)

// VariabilityGroup is the noise summary of one (arch, app, setting) group.
type VariabilityGroup struct {
	Arch    string `json:"arch"`
	App     string `json:"app"`
	Setting string `json:"setting"`
	// Samples is the group's row count; WithMeta of those carry series
	// provenance (the rest predate the reps/cov/ci columns or came from the
	// model backend).
	Samples  int `json:"samples"`
	WithMeta int `json:"with_meta"`
	// CoV quantiles over the provenance-carrying samples.
	CoVP50 float64 `json:"cov_p50"`
	CoVP90 float64 `json:"cov_p90"`
	CoVMax float64 `json:"cov_max"`
	// CIP50 / CIP90 are quantiles of the relative 95% CI half-width.
	CIP50 float64 `json:"ci_p50"`
	CIP90 float64 `json:"ci_p90"`
	// RepsMin / RepsMax bound the real repetition counts; RepsHist is the
	// full distribution (repetitions -> sample count).
	RepsMin  int         `json:"reps_min"`
	RepsMax  int         `json:"reps_max"`
	RepsHist map[int]int `json:"reps_hist"`
	// RepsRun vs RepsFixed: total real repetitions vs the fixed baseline
	// (FixedReps per provenance-carrying sample).
	RepsRun   int `json:"reps_run"`
	RepsFixed int `json:"reps_fixed"`
	// TimeRunSec / TimeFixedSec estimate the measurement time spent vs the
	// fixed-rep baseline, using each sample's mean runtime as the per-rep
	// cost. Negative savings (noisy groups running past FixedReps) show up
	// as TimeRunSec > TimeFixedSec.
	TimeRunSec   float64 `json:"time_run_sec"`
	TimeFixedSec float64 `json:"time_fixed_sec"`
}

// SavedFrac is the fraction of baseline measurement time the adaptive
// policy saved in this group (negative when it spent more).
func (g *VariabilityGroup) SavedFrac() float64 {
	if g.TimeFixedSec <= 0 {
		return 0
	}
	return 1 - g.TimeRunSec/g.TimeFixedSec
}

// VariabilityReport aggregates a dataset's series-noise provenance.
type VariabilityReport struct {
	// FixedReps is the fixed-rep baseline (sim.Reps) the savings compare
	// against.
	FixedReps int `json:"fixed_reps"`
	// Samples / WithMeta count the whole dataset.
	Samples  int `json:"samples"`
	WithMeta int `json:"with_meta"`
	// Campaign-wide totals over the provenance-carrying samples.
	RepsRun      int     `json:"reps_run"`
	RepsFixed    int     `json:"reps_fixed"`
	TimeRunSec   float64 `json:"time_run_sec"`
	TimeFixedSec float64 `json:"time_fixed_sec"`
	// Groups in dataset order (arch, app, setting as first encountered).
	Groups []VariabilityGroup `json:"groups"`
}

// SavedFrac is the campaign-wide fraction of baseline measurement time the
// adaptive policy saved (negative when it spent more).
func (r *VariabilityReport) SavedFrac() float64 {
	if r.TimeFixedSec <= 0 {
		return 0
	}
	return 1 - r.TimeRunSec/r.TimeFixedSec
}

// Variability aggregates the dataset's per-series noise provenance into the
// observatory report. Samples without provenance (model rows, pre-V4 files)
// are counted but contribute no noise statistics; a dataset with none at
// all yields a report with WithMeta == 0, which the renderers state plainly
// instead of inventing numbers.
func Variability(ds *dataset.Dataset) *VariabilityReport {
	rep := &VariabilityReport{FixedReps: sim.Reps}
	for _, grp := range ds.Groups() {
		g := VariabilityGroup{
			Arch: string(grp.Arch), App: grp.App, Setting: grp.Setting,
			Samples: len(grp.Samples), RepsHist: make(map[int]int),
		}
		rep.Samples += g.Samples
		var covs, cis []float64
		for _, s := range grp.Samples {
			if !s.HasSeriesMeta() {
				continue
			}
			g.WithMeta++
			covs = append(covs, s.CoV)
			cis = append(cis, s.CIRel)
			g.RepsHist[s.RepsRun]++
			if g.WithMeta == 1 || s.RepsRun < g.RepsMin {
				g.RepsMin = s.RepsRun
			}
			if s.RepsRun > g.RepsMax {
				g.RepsMax = s.RepsRun
			}
			g.RepsRun += s.RepsRun
			g.RepsFixed += sim.Reps
			perRep := s.MeanRuntime()
			g.TimeRunSec += float64(float64(s.RepsRun) * perRep)
			g.TimeFixedSec += float64(float64(sim.Reps) * perRep)
		}
		if g.WithMeta > 0 {
			g.CoVP50 = stats.Quantile(covs, 0.50)
			g.CoVP90 = stats.Quantile(covs, 0.90)
			g.CoVMax = stats.Quantile(covs, 1)
			g.CIP50 = stats.Quantile(cis, 0.50)
			g.CIP90 = stats.Quantile(cis, 0.90)
			rep.WithMeta += g.WithMeta
			rep.RepsRun += g.RepsRun
			rep.RepsFixed += g.RepsFixed
			rep.TimeRunSec += g.TimeRunSec
			rep.TimeFixedSec += g.TimeFixedSec
		}
		rep.Groups = append(rep.Groups, g)
	}
	return rep
}

// String renders the observatory as a fixed-width table plus a savings
// summary line.
func (r *VariabilityReport) String() string {
	var sb strings.Builder
	if r.WithMeta == 0 {
		fmt.Fprintf(&sb, "no series provenance: %d samples carry no reps/cov/ci columns (fixed-rep or pre-observatory dataset)\n", r.Samples)
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-9s %-12s %-8s %7s %6s %9s %11s %8s %8s %8s\n",
		"arch", "app", "setting", "samples", "meta", "reps", "run/fixed", "saved", "cov p50", "cov p90")
	for i := range r.Groups {
		g := &r.Groups[i]
		if g.WithMeta == 0 {
			fmt.Fprintf(&sb, "%-9s %-12s %-8s %7d %6d %9s %11s %8s %8s %8s\n",
				g.Arch, g.App, g.Setting, g.Samples, 0, "-", "-", "-", "-", "-")
			continue
		}
		reps := fmt.Sprintf("%d-%d", g.RepsMin, g.RepsMax)
		if g.RepsMin == g.RepsMax {
			reps = fmt.Sprintf("%d", g.RepsMin)
		}
		fmt.Fprintf(&sb, "%-9s %-12s %-8s %7d %6d %9s %5d/%-5d %7.1f%% %8.4f %8.4f\n",
			g.Arch, g.App, g.Setting, g.Samples, g.WithMeta, reps,
			g.RepsRun, g.RepsFixed, g.SavedFrac()*100, g.CoVP50, g.CoVP90)
	}
	fmt.Fprintf(&sb, "adaptive measurement: %d reps run vs %d fixed (%d-rep baseline), %.1f%% of measurement time saved (%.3fs vs %.3fs)\n",
		r.RepsRun, r.RepsFixed, r.FixedReps, r.SavedFrac()*100, r.TimeRunSec, r.TimeFixedSec)
	return sb.String()
}
