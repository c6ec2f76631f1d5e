package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// metaSample builds a cmpSample that additionally carries series provenance,
// as a measured adaptive campaign would have written it.
func metaSample(arch, app, setting string, align int, mean, spread float64, reps int, cov, ciRel float64) *dataset.Sample {
	s := cmpSample(arch, app, setting, align, mean, spread)
	s.RepsRun, s.CoV, s.CIRel = reps, cov, ciRel
	return s
}

// TestCompareNoiseAware: pairs whose samples carry series provenance are
// gated by their own recorded CI, not by the CoV recomputed from the
// (possibly cycled) repetition slots.
func TestCompareNoiseAware(t *testing.T) {
	oldDS, newDS := &dataset.Dataset{}, &dataset.Dataset{}
	// Pair 1: rep slots are wildly noisy (40% CoV — the legacy gate would
	// drop it) but the series itself measured quiet. Must be included.
	oldDS.Samples = append(oldDS.Samples, metaSample("a64fx", "CG", "24/1.0", 8, 1.0, 0.40, 6, 0.01, 0.008))
	newDS.Samples = append(newDS.Samples, metaSample("a64fx", "CG", "24/1.0", 8, 1.0, 0.40, 6, 0.01, 0.008))
	// Pair 2: rep slots look quiet (1%) but the series measured a CI above
	// the gate. Must be excluded as noisy.
	oldDS.Samples = append(oldDS.Samples, metaSample("a64fx", "CG", "24/1.0", 16, 1.0, 0.01, 8, 0.12, 0.09))
	newDS.Samples = append(newDS.Samples, metaSample("a64fx", "CG", "24/1.0", 16, 3.0, 0.01, 8, 0.12, 0.09))
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Groups[0]
	if g.Pairs != 2 || g.NoiseAware != 2 {
		t.Fatalf("pairs/noise-aware = %d/%d, want 2/2", g.Pairs, g.NoiseAware)
	}
	if g.Noisy != 1 {
		t.Fatalf("noisy = %d, want 1 (the high-CI pair, not the high-CoV one)", g.Noisy)
	}
	if g.Regressed {
		t.Fatalf("3x slowdown on an excluded noisy pair flagged: %+v", g)
	}
	out := rep.String()
	if !strings.Contains(out, "noise-aware: 2 pair(s)") || !strings.Contains(out, "CI gate 5%") {
		t.Fatalf("report does not surface the CI gate:\n%s", out)
	}
	if strings.Contains(out, "CoV gate") {
		t.Fatalf("noise-aware report still names the CoV gate:\n%s", out)
	}
}

// TestCompareNoiseWeighting: surviving provenance-carrying pairs are
// downweighted by their measured noise in the mean-ratio aggregation; a pair
// exactly at the threshold counts one third of a quiet one.
func TestCompareNoiseWeighting(t *testing.T) {
	oldDS, newDS := &dataset.Dataset{}, &dataset.Dataset{}
	// Quiet pair (weight 1), ratio 1.0.
	oldDS.Samples = append(oldDS.Samples, metaSample("milan", "SpMV", "24/1.0", 8, 1.0, 0, 4, 0, 0))
	newDS.Samples = append(newDS.Samples, metaSample("milan", "SpMV", "24/1.0", 8, 1.0, 0, 4, 0, 0))
	// At-threshold pair (both sides CIRel == gate -> weight 1/3), ratio 1.2.
	thr := 0.05
	oldDS.Samples = append(oldDS.Samples, metaSample("milan", "SpMV", "24/1.0", 16, 1.0, 0, 8, 0.06, thr))
	newDS.Samples = append(newDS.Samples, metaSample("milan", "SpMV", "24/1.0", 16, 1.2, 0, 8, 0.06, thr))
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Groups[0]
	if g.Noisy != 0 || g.NoiseAware != 2 {
		t.Fatalf("noisy/noise-aware = %d/%d, want 0/2", g.Noisy, g.NoiseAware)
	}
	want := math.Exp((float64(1*math.Log(1.0)) + float64((1.0/3)*math.Log(1.2))) / (1 + 1.0/3))
	if math.Abs(g.MeanRatio-want) > 1e-12 {
		t.Fatalf("MeanRatio = %v, want weighted geomean %v", g.MeanRatio, want)
	}
}

// TestCompareLegacyByteIdentical: a comparison over datasets without series
// provenance renders exactly the pre-observatory report — same table, same
// CoV-gate verdict line, no noise-aware line.
func TestCompareLegacyByteIdentical(t *testing.T) {
	oldDS := cmpDataset("skylake", "LULESH", 10, 1.0, 1.0, 0.01)
	newDS := cmpDataset("skylake", "LULESH", 10, 1.0, 1.0, 0.01)
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	fmt.Fprintf(&want, "%-9s %-12s %7s %6s %9s %10s %s\n",
		"arch", "app", "pairs", "noisy", "ratio", "p-value", "verdict")
	fmt.Fprintf(&want, "%-9s %-12s %7d %6d %9.4f %10s %s\n",
		"skylake", "LULESH", 10, 0, 1.0, "-", "ok (identical runs)")
	want.WriteString("PASS: no significant slowdown (alpha 0.05, min shift 2%, CoV gate 10%)\n")
	if got := rep.String(); got != want.String() {
		t.Fatalf("legacy report drifted:\ngot:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestVariabilityReport aggregates a mixed dataset: one group with adaptive
// provenance, one legacy group without.
func TestVariabilityReport(t *testing.T) {
	ds := &dataset.Dataset{}
	ds.Samples = append(ds.Samples,
		metaSample("a64fx", "CG", "24/1.0", 8, 2.0, 0, 2, 0.001, 0.002),
		metaSample("a64fx", "CG", "24/1.0", 16, 2.0, 0, 2, 0.003, 0.004),
		metaSample("a64fx", "CG", "24/1.0", 32, 2.0, 0, 6, 0.200, 0.150),
		cmpSample("milan", "SpMV", "24/1.0", 8, 1.0, 0.01),
	)
	rep := Variability(ds)
	if rep.Samples != 4 || rep.WithMeta != 3 || rep.FixedReps != sim.Reps {
		t.Fatalf("totals: %+v", rep)
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Arch != "a64fx" || g.WithMeta != 3 || g.RepsMin != 2 || g.RepsMax != 6 {
		t.Fatalf("meta group: %+v", g)
	}
	if g.RepsRun != 10 || g.RepsFixed != 3*sim.Reps {
		t.Fatalf("reps run/fixed = %d/%d, want 10/%d", g.RepsRun, g.RepsFixed, 3*sim.Reps)
	}
	if g.RepsHist[2] != 2 || g.RepsHist[6] != 1 {
		t.Fatalf("reps histogram: %v", g.RepsHist)
	}
	if g.CoVP50 != 0.003 || g.CoVMax != 0.200 {
		t.Fatalf("cov p50/max = %v/%v", g.CoVP50, g.CoVMax)
	}
	// Per-rep cost is the sample mean (2.0s each): 10 reps run vs 12 fixed.
	if math.Abs(g.TimeRunSec-20.0) > 1e-9 || math.Abs(g.TimeFixedSec-24.0) > 1e-9 {
		t.Fatalf("time run/fixed = %v/%v, want 20/24", g.TimeRunSec, g.TimeFixedSec)
	}
	if math.Abs(g.SavedFrac()-1.0/6) > 1e-9 {
		t.Fatalf("SavedFrac = %v, want 1/6", g.SavedFrac())
	}
	if lg := rep.Groups[1]; lg.WithMeta != 0 || lg.Samples != 1 {
		t.Fatalf("legacy group: %+v", lg)
	}

	out := rep.String()
	if !strings.Contains(out, "adaptive measurement: 10 reps run vs 12 fixed") {
		t.Fatalf("summary line missing:\n%s", out)
	}
	if !strings.Contains(out, "2-6") {
		t.Fatalf("reps range missing:\n%s", out)
	}

	// A dataset with no provenance at all states so instead of inventing
	// numbers.
	legacy := &dataset.Dataset{Samples: ds.Samples[3:]}
	if out := Variability(legacy).String(); !strings.Contains(out, "no series provenance") {
		t.Fatalf("meta-free dataset:\n%s", out)
	}
}

// metaEvaluator wraps the model backend and returns a fixed provenance with
// every series, standing in for the measured backend in sweep tests.
type metaEvaluator struct{ ModelEvaluator }

func (e metaEvaluator) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) ([sim.Reps]float64, dataset.SeriesMeta, error) {
	series, _, err := e.ModelEvaluator.EvaluateSeries(m, app, cfg, key, set)
	return series, dataset.SeriesMeta{Reps: 3, CoV: 0.02, CIRel: 0.015, StopReason: "target"}, err
}

// TestSweepStampsSeriesMeta: the sweep stamps the provenance a backend
// returns onto every emitted sample, the progress events carry the rep
// totals, and the monitor aggregates them into /api/variability cells.
func TestSweepStampsSeriesMeta(t *testing.T) {
	mon := NewMonitor()
	var repsRun, repsFixed int
	ds, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{"Sort"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.05},
		Backend:  metaEvaluator{},
		Monitor:  mon,
		OnProgress: func(ev Event) {
			repsRun += ev.RepsRun
			repsFixed += ev.RepsFixed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds.Samples {
		if s.RepsRun != 3 || s.CoV != 0.02 || s.CIRel != 0.015 {
			t.Fatalf("sample not stamped: %+v", s)
		}
	}
	if repsRun != 3*ds.Len() || repsFixed != sim.Reps*ds.Len() {
		t.Fatalf("progress reps %d/%d, want %d/%d", repsRun, repsFixed, 3*ds.Len(), sim.Reps*ds.Len())
	}

	cells := mon.Variability()
	if len(cells) != 1 {
		t.Fatalf("variability cells = %+v, want one", cells)
	}
	c := cells[0]
	if c.Arch != "a64fx" || c.App != "Sort" || c.Samples != ds.Len() {
		t.Fatalf("cell header: %+v", c)
	}
	if c.RepsRun != 3*ds.Len() || c.RepsFixed != sim.Reps*ds.Len() {
		t.Fatalf("cell reps %d/%d, want %d/%d", c.RepsRun, c.RepsFixed, 3*ds.Len(), sim.Reps*ds.Len())
	}
	// The CoV quantiles come from a log-bucketed histogram: approximate, but
	// they must land near the constant 0.02 every series reported.
	if c.CoVP50 < 0.01 || c.CoVP50 > 0.04 || c.CoVP90 < 0.01 || c.CoVP90 > 0.04 {
		t.Fatalf("cell CoV quantiles: %+v", c)
	}

	// The model backend produces no provenance: samples stay clean and the
	// observatory stays empty.
	mon2 := NewMonitor()
	ds2, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{"Sort"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.05},
		Monitor:  mon2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ds2.Samples {
		if s.HasSeriesMeta() {
			t.Fatalf("model sample carries provenance: %+v", s)
		}
	}
	if cells := mon2.Variability(); len(cells) != 0 {
		t.Fatalf("model sweep produced variability cells: %+v", cells)
	}
}
