package core

// Variability-aware regression gate: compare two sweeps of the same
// campaign (e.g. yesterday's dataset vs today's) and decide whether
// performance regressed — without being fooled by run-to-run noise. The
// method follows the paper's §IV-C treatment of repeated runs: samples are
// paired per configuration, pairs whose repetition coefficient of variation
// is too high are set aside as noise, and the per-arch/app verdict comes
// from the Wilcoxon signed-rank test on the paired mean runtimes plus a
// practical-significance floor on the magnitude of the shift.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// CompareOptions tunes the regression gate; zero values select the
// defaults.
type CompareOptions struct {
	// Alpha is the Wilcoxon significance level (default 0.05).
	Alpha float64
	// CoVThreshold excludes a pair when either side's repetition
	// coefficient of variation (stddev over mean of R0..R3) exceeds it
	// (default 0.10): such configurations are too noisy for a runtime
	// difference to mean anything. It is the fallback gate for legacy data;
	// pairs whose samples both carry measured series provenance are gated
	// by their own recorded CI instead (CIRelThreshold).
	CoVThreshold float64
	// CIRelThreshold is the noise-aware gate (default 0.05): when both
	// samples of a pair carry series provenance (the dataset's reps/cov/ci
	// columns), the pair is excluded if either side's recorded relative 95%
	// CI half-width exceeds this — its *own* measured noise, not a CoV
	// recomputed from possibly cycled repetition slots. Surviving
	// provenance-carrying pairs are also downweighted smoothly by their
	// noise relative to this threshold in the mean-ratio aggregation.
	CIRelThreshold float64
	// MinShift is the practical-significance floor (default 0.02): a group
	// only counts as regressed (or improved) when its geometric-mean
	// runtime ratio moves more than this fraction, however small the
	// p-value. With thousands of pairs the test detects shifts far below
	// anyone's caring threshold.
	MinShift float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.CoVThreshold <= 0 {
		o.CoVThreshold = 0.10
	}
	if o.CIRelThreshold <= 0 {
		o.CIRelThreshold = 0.05
	}
	if o.MinShift <= 0 {
		o.MinShift = 0.02
	}
	return o
}

// CompareGroup is the verdict for one (architecture, application) group.
type CompareGroup struct {
	Arch, App string
	// Pairs is the number of configurations present in both datasets;
	// Noisy of those were excluded for exceeding their noise gate.
	Pairs, Noisy int
	// NoiseAware counts pairs whose gate used their own measured CI (both
	// samples carry series provenance) instead of the fallback CoV cutoff.
	NoiseAware int
	// MeanRatio is the geometric mean of new/old mean-runtime ratios over
	// the stable pairs: above 1 the new dataset is slower.
	MeanRatio float64
	// PValue and N are the Wilcoxon signed-rank results on the stable
	// paired mean runtimes. Degenerate marks groups with fewer than two
	// non-zero differences (identical runs — common under the model
	// backend), which pass trivially.
	PValue     float64
	N          int
	Degenerate bool
	// Regressed / Improved: statistically significant (p < Alpha) AND the
	// ratio moved past the MinShift floor in that direction.
	Regressed, Improved bool
}

// CompareReport is the full old-vs-new comparison.
type CompareReport struct {
	Opt    CompareOptions
	Groups []CompareGroup
	// UnpairedOld / UnpairedNew count samples present in only one dataset
	// (different -frac, different apps — the gate compares what overlaps).
	UnpairedOld, UnpairedNew int
}

// Regressions counts groups flagged as regressed.
func (r *CompareReport) Regressions() int {
	n := 0
	for _, g := range r.Groups {
		if g.Regressed {
			n++
		}
	}
	return n
}

// CompareDatasets pairs the two datasets per configuration and runs the
// variability-aware gate. Errors when nothing overlaps.
func CompareDatasets(oldDS, newDS *dataset.Dataset, opt CompareOptions) (*CompareReport, error) {
	opt = opt.withDefaults()
	type pair struct{ oldS, newS *dataset.Sample }
	// A row's identity across the two datasets: its group and configuration.
	type row struct {
		arch         topology.Arch
		app, setting string
		cfg          env.Config
	}
	key := func(s *dataset.Sample) row { return row{s.Arch, s.App, s.Setting, s.Config} }

	oldBy := make(map[row]*dataset.Sample, oldDS.Len())
	for _, s := range oldDS.Samples {
		oldBy[key(s)] = s
	}
	groups := make(map[string][]pair)
	var order []string
	rep := &CompareReport{Opt: opt}
	paired := make(map[row]bool, newDS.Len())
	for _, s := range newDS.Samples {
		k := key(s)
		o, ok := oldBy[k]
		if !ok {
			rep.UnpairedNew++
			continue
		}
		paired[k] = true
		gk := string(s.Arch) + "\x00" + s.App
		if _, seen := groups[gk]; !seen {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], pair{o, s})
	}
	for k := range oldBy {
		if !paired[k] {
			rep.UnpairedOld++
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("core: compare: the datasets share no (arch, app, setting, config) rows")
	}
	sort.Strings(order)

	for _, gk := range order {
		ps := groups[gk]
		arch, app, _ := strings.Cut(gk, "\x00")
		g := CompareGroup{Arch: arch, App: app, Pairs: len(ps), MeanRatio: 1}
		var oldMeans, newMeans []float64
		logSum, wSum := 0.0, 0.0
		for _, p := range ps {
			// Noise gate: pairs whose samples both recorded their own series
			// noise are judged by it; legacy pairs fall back to the CoV
			// recomputed from the repetition slots. Surviving noise-aware
			// pairs get a weight in (0, 1] that decays smoothly with their
			// measured noise relative to the gate — a pair measured at the
			// threshold counts about a third as much as a quiet one — while
			// legacy pairs keep weight 1, so legacy-only comparisons
			// reproduce the unweighted geometric mean exactly.
			w := 1.0
			if p.oldS.HasSeriesMeta() && p.newS.HasSeriesMeta() {
				g.NoiseAware++
				if p.oldS.CIRel > opt.CIRelThreshold || p.newS.CIRel > opt.CIRelThreshold {
					g.Noisy++
					continue
				}
				tau2 := opt.CIRelThreshold * opt.CIRelThreshold
				w = 1 / (1 + (float64(p.oldS.CIRel*p.oldS.CIRel)+float64(p.newS.CIRel*p.newS.CIRel))/tau2)
			} else if repCoV(p.oldS) > opt.CoVThreshold || repCoV(p.newS) > opt.CoVThreshold {
				g.Noisy++
				continue
			}
			om, nm := p.oldS.MeanRuntime(), p.newS.MeanRuntime()
			oldMeans = append(oldMeans, om)
			newMeans = append(newMeans, nm)
			if om > 0 && nm > 0 {
				logSum += float64(w * math.Log(nm/om))
				wSum += w
			}
		}
		if wSum > 0 {
			g.MeanRatio = math.Exp(logSum / wSum)
		}
		res, err := stats.Wilcoxon(newMeans, oldMeans)
		g.PValue, g.N = res.PValue, res.N
		switch {
		case err != nil && errors.Is(err, stats.ErrDegenerate):
			g.Degenerate = true
		case err != nil:
			return nil, fmt.Errorf("core: compare %s/%s: %w", arch, app, err)
		default:
			sig := g.PValue < opt.Alpha
			g.Regressed = sig && g.MeanRatio > 1+opt.MinShift
			g.Improved = sig && g.MeanRatio < 1-opt.MinShift
		}
		rep.Groups = append(rep.Groups, g)
	}
	return rep, nil
}

// repCoV is the repetition coefficient of variation of one sample's R0..R3.
func repCoV(s *dataset.Sample) float64 {
	m := float64(s.MeanRuntime()) // rounded, or arm64 fuses its ×0.25 into r - m
	if m <= 0 {
		return math.Inf(1)
	}
	v := 0.0
	for _, r := range s.Runtimes {
		d := r - m
		v += float64(d * d)
	}
	v /= float64(len(s.Runtimes))
	return math.Sqrt(v) / m
}

// String renders the report as a fixed-width table plus a verdict line.
func (r *CompareReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %-12s %7s %6s %9s %10s %s\n",
		"arch", "app", "pairs", "noisy", "ratio", "p-value", "verdict")
	for _, g := range r.Groups {
		verdict := "ok"
		switch {
		case g.Regressed:
			verdict = "REGRESSED"
		case g.Improved:
			verdict = "improved"
		case g.Degenerate:
			verdict = "ok (identical runs)"
		}
		p := fmt.Sprintf("%.2g", g.PValue)
		if g.Degenerate {
			p = "-"
		}
		fmt.Fprintf(&sb, "%-9s %-12s %7d %6d %9.4f %10s %s\n",
			g.Arch, g.App, g.Pairs, g.Noisy, g.MeanRatio, p, verdict)
	}
	if r.UnpairedOld+r.UnpairedNew > 0 {
		fmt.Fprintf(&sb, "unpaired rows: %d old-only, %d new-only\n", r.UnpairedOld, r.UnpairedNew)
	}
	// The gate description names the rule that actually judged the pairs:
	// datasets with series provenance are gated by their own measured CI,
	// legacy data by the fixed CoV cutoff. Legacy-only reports render
	// byte-identically to pre-observatory output.
	noiseAware := 0
	for _, g := range r.Groups {
		noiseAware += g.NoiseAware
	}
	gate := fmt.Sprintf("CoV gate %.0f%%", r.Opt.CoVThreshold*100)
	if noiseAware > 0 {
		gate = fmt.Sprintf("CI gate %.0f%%", r.Opt.CIRelThreshold*100)
		fmt.Fprintf(&sb, "noise-aware: %d pair(s) gated and weighted by their own measured CI\n", noiseAware)
	}
	if n := r.Regressions(); n > 0 {
		fmt.Fprintf(&sb, "FAIL: %d group(s) significantly slower (alpha %.2g, min shift %.0f%%, %s)\n",
			n, r.Opt.Alpha, r.Opt.MinShift*100, gate)
	} else {
		fmt.Fprintf(&sb, "PASS: no significant slowdown (alpha %.2g, min shift %.0f%%, %s)\n",
			r.Opt.Alpha, r.Opt.MinShift*100, gate)
	}
	return sb.String()
}
