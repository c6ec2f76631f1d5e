package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Errorf("Q1.0 = %v, want 4", got)
	}
	if got := Quantile(xs, 0.25); !almostEq(got, 1.75, 1e-12) {
		t.Errorf("Q0.25 = %v, want 1.75", got)
	}
	if got := Median([]float64{7, 1, 5}); got != 5 {
		t.Errorf("Median(7,1,5) = %v, want 5", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw [12]int8, qa, qb uint8) bool {
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(qa%101) / 100
		b := float64(qb%101) / 100
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	d := Describe([]float64{1, 2, 3, 4, 5})
	if d.N != 5 || d.Mean != 3 || d.Min != 1 || d.Max != 5 || d.Median != 3 {
		t.Errorf("Describe wrong: %+v", d)
	}
	if d.Q1 != 2 || d.Q3 != 4 {
		t.Errorf("quartiles wrong: %+v", d)
	}
}

// Describe sorts once; its five quantiles are the bits of the five
// Quantile calls, on empty, one- and two-point samples and on heavy ties.
func TestDescribeMatchesQuantile(t *testing.T) {
	ties := make([]float64, 101)
	for i := range ties {
		ties[i] = float64((i*37)%4) * 0.1
	}
	for _, xs := range [][]float64{nil, {3.5}, {2, -1}, ties, {0.3, 0.1, 0.2, 0.1, 0.3, 0.1, 0.7}} {
		d := Describe(xs)
		got := []float64{d.Min, d.Q1, d.Median, d.Q3, d.Max}
		want := []float64{Quantile(xs, 0), Quantile(xs, 0.25), Median(xs), Quantile(xs, 0.75), Quantile(xs, 1)}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("n = %d: Describe quantile %d = %v, Quantile %v", len(xs), i, got[i], want[i])
			}
		}
		if d.N != len(xs) || d.Mean != Mean(xs) || d.Std != StdDev(xs) {
			t.Errorf("n = %d: Describe %+v, want N, Mean and Std of the sample", len(xs), d)
		}
	}
}

func TestWilcoxonIdenticalSamplesDegenerate(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if _, err := Wilcoxon(a, a); err != ErrDegenerate {
		t.Errorf("identical samples: err = %v, want ErrDegenerate", err)
	}
}

func TestWilcoxonLengthMismatch(t *testing.T) {
	if _, err := Wilcoxon([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestWilcoxonSymmetricNoiseNotSignificant(t *testing.T) {
	// Differences symmetric around zero: p should be large.
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i)
		if i%2 == 0 {
			b[i] = a[i] + 0.5
		} else {
			b[i] = a[i] - 0.5
		}
	}
	res, err := Wilcoxon(a, b)
	if err != nil {
		t.Fatalf("Wilcoxon: %v", err)
	}
	if res.PValue < 0.5 {
		t.Errorf("symmetric differences: p = %v, want >= 0.5", res.PValue)
	}
	if res.N != n {
		t.Errorf("ranked %d pairs, want %d", res.N, n)
	}
}

func TestWilcoxonSystematicShiftSignificant(t *testing.T) {
	// Every pair shifted the same way: p must be ~0 — this is the Milan
	// run-drift situation of Table III.
	n := 100
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i) + 1
		b[i] = a[i] * 1.05
	}
	res, err := Wilcoxon(a, b)
	if err != nil {
		t.Fatalf("Wilcoxon: %v", err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("systematic shift: p = %v, want ~0", res.PValue)
	}
	if res.Statistic != 0 {
		t.Errorf("all differences negative: W+ = %v, want 0", res.Statistic)
	}
}

func TestWilcoxonZeroDifferencesDropped(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []float64{1, 2, 3, 4, 5.5, 5.5, 7.5, 7.5}
	res, err := Wilcoxon(a, b)
	if err != nil {
		t.Fatalf("Wilcoxon: %v", err)
	}
	if res.N != 4 {
		t.Errorf("ranked %d pairs, want 4 (zeros dropped)", res.N)
	}
}

func TestWilcoxonMostlyTiesDegenerate(t *testing.T) {
	// The A64FX situation: quantized runtimes make nearly all differences
	// exactly zero.
	a := []float64{1, 1, 1, 1, 1, 1, 1, 2}
	b := []float64{1, 1, 1, 1, 1, 1, 1, 2.001}
	if _, err := Wilcoxon(a, b); err != ErrDegenerate {
		t.Errorf("one nonzero diff: err = %v, want ErrDegenerate", err)
	}
}

func TestWilcoxonHandlesTiedRanks(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{2, 1, 4, 3, 7, 4}
	res, err := Wilcoxon(a, b)
	if err != nil {
		t.Fatalf("Wilcoxon: %v", err)
	}
	if res.PValue <= 0 || res.PValue > 1 {
		t.Errorf("p out of range: %v", res.PValue)
	}
}

func TestWilcoxonPropertyPInRange(t *testing.T) {
	f := func(raw [10]int8) bool {
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, r := range raw {
			a[i] = float64(r)
			b[i] = float64(r % 5)
		}
		res, err := Wilcoxon(a, b)
		if err == ErrDegenerate {
			return true
		}
		if err != nil {
			return false
		}
		return res.PValue >= 0 && res.PValue <= 1 && res.Statistic >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalSF(t *testing.T) {
	if got := normalSF(0); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("SF(0) = %v, want 0.5", got)
	}
	if got := normalSF(1.96); !almostEq(got, 0.025, 1e-3) {
		t.Errorf("SF(1.96) = %v, want ~0.025", got)
	}
}

func TestViolinDensityIntegratesToOne(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Sin(float64(i)) * 3
	}
	v := ViolinOf(xs, 256)
	if len(v.Grid) != 256 || len(v.Density) != 256 {
		t.Fatalf("violin grid size %d/%d", len(v.Grid), len(v.Density))
	}
	integral := 0.0
	for i := 1; i < len(v.Grid); i++ {
		integral += float64((v.Density[i] + v.Density[i-1]) / 2 * (v.Grid[i] - v.Grid[i-1]))
	}
	if integral < 0.85 || integral > 1.1 {
		t.Errorf("density integrates to %v, want ~1", integral)
	}
	for _, d := range v.Density {
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("negative/NaN density %v", d)
		}
	}
}

func TestViolinDegenerateInput(t *testing.T) {
	v := ViolinOf([]float64{5, 5, 5, 5}, 32)
	if v.Desc.Mean != 5 || len(v.Grid) != 32 {
		t.Errorf("degenerate violin: %+v", v.Desc)
	}
	empty := ViolinOf(nil, 32)
	if empty.Desc.N != 0 {
		t.Error("empty violin should have N=0")
	}
}

func TestSpearman(t *testing.T) {
	perfect := []float64{1, 2, 3, 4, 5}
	double := []float64{2, 4, 6, 8, 10}
	if r := Spearman(perfect, double); math.Abs(r-1) > 1e-12 {
		t.Fatalf("monotone pair: rho = %v, want 1", r)
	}
	reversed := []float64{5, 4, 3, 2, 1}
	if r := Spearman(perfect, reversed); math.Abs(r+1) > 1e-12 {
		t.Fatalf("reversed pair: rho = %v, want -1", r)
	}
	// Ties take average ranks: rho must stay within [-1, 1] and be symmetric.
	a := []float64{1, 2, 2, 3}
	b := []float64{10, 30, 30, 20}
	if r1, r2 := Spearman(a, b), Spearman(b, a); math.Abs(r1-r2) > 1e-12 || r1 < -1 || r1 > 1 {
		t.Fatalf("tied pair: rho = %v / %v", r1, r2)
	}
	if r := Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}); !math.IsNaN(r) {
		t.Fatalf("constant input: rho = %v, want NaN", r)
	}
	if r := Spearman([]float64{1}, []float64{2}); !math.IsNaN(r) {
		t.Fatalf("single point: rho = %v, want NaN", r)
	}
}
