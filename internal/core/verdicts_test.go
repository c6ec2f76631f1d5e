package core

import (
	"math"
	"strings"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// fullSweepDS is the Table II campaign, run once per test binary.
var fullSweepDS *dataset.Dataset

func sweepOnce(t *testing.T) *dataset.Dataset {
	t.Helper()
	if fullSweepDS == nil {
		ds, err := RunSweep(SweepConfig{})
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		fullSweepDS = ds
	}
	return fullSweepDS
}

// fullVerdicts is Verdicts of the full model sweep, evaluated once per
// test binary.
var fullVerdicts []Verdict

func verdictsOnce(t *testing.T) []Verdict {
	t.Helper()
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	if fullVerdicts == nil {
		fullVerdicts = Verdicts(NewFrame(sweepOnce(t)))
	}
	return fullVerdicts
}

// shapeClaims names, for each TestShape* test, the prefixes of the Verdicts
// rows it holds and how many rows they name. Together they name every row
// once (TestVerdictsCoverShapes).
var shapeClaims = map[string]struct {
	rows     int
	prefixes []string
}{
	"TableIISampleCounts":           {4, []string{"Table II:"}},
	"Q1MediansAndMaxima":            {6, []string{"Q1:"}},
	"NQueensTurnaroundEverywhere":   {8, []string{"Table V: Nqueens", "Table VII: lift of Nqueens", "Table VII: Nqueens"}},
	"XSBenchMilanOutlier":           {4, []string{"Table V: XSbench"}},
	"AppSpeedupBands":               {30, []string{"Table VI:"}},
	"WilcoxonTableIII":              {9, []string{"Table III:"}},
	"RuntimeStatsTableIV":           {3, []string{"Table IV:"}},
	"WorstTrendQ4":                  {3, []string{"Q4:"}},
	"InfluenceHeatmaps":             {13, []string{"Fig 2:", "Fig 3:", "Fig 4:"}},
	"CGSkylakeReductionSensitivity": {1, []string{"Table VII: lift of CG"}},
	"DefaultConfigurationIsStrong":  {6, []string{"Default:"}},
}

// claimOf is the shape claim naming row v; "" for none.
func claimOf(v Verdict) string {
	for claim, c := range shapeClaims {
		for _, p := range c.prefixes {
			if strings.HasPrefix(v.Name, p) {
				return claim
			}
		}
	}
	return ""
}

// holdShape fails every row of claim that does not hold on the full model
// sweep, and fails if claim does not name its count of rows.
func holdShape(t *testing.T, claim string) {
	t.Helper()
	n := 0
	for _, v := range verdictsOnce(t) {
		if claimOf(v) != claim {
			continue
		}
		n++
		if !v.Holds {
			t.Errorf("%s: value %v (paper %v), margin %v, n/a %v", v.Name, v.Value, v.Paper, v.Margin, v.NA)
		}
	}
	if n != shapeClaims[claim].rows {
		t.Errorf("%s names %d rows, want %d", claim, n, shapeClaims[claim].rows)
	}
}

func TestShapeTableIISampleCounts(t *testing.T)         { holdShape(t, "TableIISampleCounts") }
func TestShapeQ1MediansAndMaxima(t *testing.T)          { holdShape(t, "Q1MediansAndMaxima") }
func TestShapeNQueensTurnaroundEverywhere(t *testing.T) { holdShape(t, "NQueensTurnaroundEverywhere") }
func TestShapeXSBenchMilanOutlier(t *testing.T)         { holdShape(t, "XSBenchMilanOutlier") }
func TestShapeAppSpeedupBands(t *testing.T)             { holdShape(t, "AppSpeedupBands") }
func TestShapeWilcoxonTableIII(t *testing.T)            { holdShape(t, "WilcoxonTableIII") }
func TestShapeRuntimeStatsTableIV(t *testing.T)         { holdShape(t, "RuntimeStatsTableIV") }
func TestShapeWorstTrendQ4(t *testing.T)                { holdShape(t, "WorstTrendQ4") }
func TestShapeDefaultConfigurationIsStrong(t *testing.T) {
	holdShape(t, "DefaultConfigurationIsStrong")
}
func TestShapeCGSkylakeReductionSensitivity(t *testing.T) {
	holdShape(t, "CGSkylakeReductionSensitivity")
}

// TestShapeInfluenceHeatmaps holds the Fig 2-4 rows and checks that every
// influence heatmap row is a distribution.
func TestShapeInfluenceHeatmaps(t *testing.T) {
	holdShape(t, "InfluenceHeatmaps")
	f := NewFrame(sweepOnce(t))
	for _, g := range []Grouping{PerApp, PerArch, PerArchApp} {
		hm, err := f.InfluenceHeatmap(g, ml.LogisticOptions{})
		if err != nil {
			t.Fatalf("grouping %d: %v", g, err)
		}
		for i, row := range hm.Cells {
			sum := 0.0
			for _, v := range row {
				if v < 0 {
					t.Errorf("row %s: negative influence %v", hm.RowLabels[i], v)
				}
				sum += v
			}
			if sum != 0 && math.Abs(sum-1) > 1e-6 {
				t.Errorf("row %s sums to %v, want 1", hm.RowLabels[i], sum)
			}
		}
	}
}

// TestVerdictsCoverShapes checks that the full model sweep's verdicts are
// 87 distinct rows, each named by a shape claim, as many as the claims count.
func TestVerdictsCoverShapes(t *testing.T) {
	vs, names, rows := verdictsOnce(t), map[string]bool{}, 0
	for _, v := range vs {
		if names[v.Name] = true; claimOf(v) == "" {
			t.Errorf("%s: no shape claim names it", v.Name)
		}
	}
	for _, c := range shapeClaims {
		rows += c.rows
	}
	if len(vs) != 87 || len(names) != len(vs) || rows != len(vs) {
		t.Errorf("%d verdicts under %d names, %d counted by the claims, want 87 distinct", len(vs), len(names), rows)
	}
}

// TestVerdictFlips perturbs one value of a small fixture, the default
// runtime of one Strassen sample, which lifts its setting's best speedup
// out of Strassen's Table VI band: that row alone flips, and every other
// row keeps its status.
func TestVerdictFlips(t *testing.T) {
	ds, err := RunSweep(SweepConfig{Apps: []string{"Strassen"}, Fraction: map[topology.Arch]float64{topology.A64FX: 0.02}})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	const flip = "Table VI: Strassen high end in [1, 1.06]"
	before := Verdicts(NewFrame(ds))
	ds.Groups()[0].Best().DefaultRuntime *= 1.1
	after := Verdicts(NewFrame(ds))
	flipped := 0
	for i, b := range before {
		a := after[i]
		if b.Name == flip && !b.Holds {
			t.Errorf("%s fails on the fixture: %+v", flip, b)
		}
		if a.Holds != b.Holds || a.NA != b.NA {
			flipped++
			if b.Name != flip {
				t.Errorf("%s flipped: %+v, then %+v", b.Name, b, a)
			}
		}
	}
	if flipped != 1 {
		t.Errorf("%d rows flipped, want 1 (%s)", flipped, flip)
	}
}
