package stats

import (
	"math"
	"testing"
)

// TestSobolIshigami checks the estimator against the Ishigami function,
// the standard sensitivity-analysis benchmark with known analytic indices:
//
//	f(x) = sin x1 + a sin² x2 + b x3⁴ sin x1,  x_i ~ U[−π, π]
//
// With a = 7, b = 0.1: S1 ≈ 0.3139, S2 ≈ 0.4424, S3 = 0 (x3 acts only
// through its interaction with x1), ST3 ≈ 0.2437. The continuous domain is
// discretized into cell midpoints, which the analytic values survive well
// within the Monte Carlo tolerance.
func TestSobolIshigami(t *testing.T) {
	const (
		a, b  = 7.0, 0.1
		cells = 64
		n     = 20000
		tol   = 0.05
	)
	mid := func(idx int) float64 { // midpoint of cell idx in [−π, π]
		return -math.Pi + float64((float64(idx)+0.5)*(2*math.Pi/cells))
	}
	f := func(idx []int) float64 {
		x1, x2, x3 := mid(idx[0]), mid(idx[1]), mid(idx[2])
		return math.Sin(x1) + float64(a*math.Sin(x2)*math.Sin(x2)) + float64(b*math.Pow(x3, 4)*math.Sin(x1))
	}

	res, err := Sobol([]int{cells, cells, cells}, f, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != n*(3+2) {
		t.Errorf("Evals = %d, want %d", res.Evals, n*5)
	}

	// Analytic values for a=7, b=0.1 (Saltelli et al., "Global Sensitivity
	// Analysis: The Primer", §2.9).
	wantFirst := []float64{0.3139, 0.4424, 0.0}
	wantTotal := []float64{0.5576, 0.4424, 0.2437}
	for i := range wantFirst {
		if d := math.Abs(res.First[i] - wantFirst[i]); d > tol {
			t.Errorf("S%d = %.4f, want %.4f ± %.2f", i+1, res.First[i], wantFirst[i], tol)
		}
		if d := math.Abs(res.Total[i] - wantTotal[i]); d > tol {
			t.Errorf("ST%d = %.4f, want %.4f ± %.2f", i+1, res.Total[i], wantTotal[i], tol)
		}
	}
	// Structural facts that must hold regardless of tolerance: x2 is purely
	// additive (S2 == ST2 up to noise), x3 has no main effect but a real
	// interaction share.
	if res.First[2] > tol {
		t.Errorf("S3 = %.4f, want ≈ 0 (x3 has no main effect)", res.First[2])
	}
	if res.Total[2] < 0.1 {
		t.Errorf("ST3 = %.4f, want ≫ 0 (x1·x3 interaction)", res.Total[2])
	}
}

// TestSobolConstantResponse: zero variance must yield all-zero indices, not
// NaN and not an error.
func TestSobolConstantResponse(t *testing.T) {
	res, err := Sobol([]int{4, 4}, func([]int) float64 { return 42 }, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variance != 0 {
		t.Errorf("Variance = %v, want 0", res.Variance)
	}
	for i := range res.First {
		if res.First[i] != 0 || res.Total[i] != 0 {
			t.Errorf("constant response: S%d=%v ST%d=%v, want 0/0",
				i+1, res.First[i], i+1, res.Total[i])
		}
	}
	if res.Mean != 42 {
		t.Errorf("Mean = %v, want 42", res.Mean)
	}
}

// TestSobolSingleVariable: with one active variable and one inert one, the
// active variable owns all the variance (S ≈ ST ≈ 1) and the inert one none.
func TestSobolSingleVariable(t *testing.T) {
	f := func(idx []int) float64 { return float64(idx[0]) }
	res, err := Sobol([]int{8, 8}, f, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.First[0]-1) > 0.05 || math.Abs(res.Total[0]-1) > 0.05 {
		t.Errorf("active variable: S=%.4f ST=%.4f, want ≈ 1", res.First[0], res.Total[0])
	}
	if math.Abs(res.First[1]) > 0.05 || math.Abs(res.Total[1]) > 0.05 {
		t.Errorf("inert variable: S=%.4f ST=%.4f, want ≈ 0", res.First[1], res.Total[1])
	}
}

// TestSobolDeterministic: same seed, same result.
func TestSobolDeterministic(t *testing.T) {
	f := func(idx []int) float64 { return float64(idx[0]*3 + idx[1]) }
	r1, err1 := Sobol([]int{5, 7}, f, 500, 9)
	r2, err2 := Sobol([]int{5, 7}, f, 500, 9)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range r1.First {
		if r1.First[i] != r2.First[i] || r1.Total[i] != r2.Total[i] {
			t.Errorf("seeded run not deterministic at variable %d", i)
		}
	}
}

// TestSobolErrors covers the argument validation paths.
func TestSobolErrors(t *testing.T) {
	f := func([]int) float64 { return 0 }
	if _, err := Sobol(nil, f, 10, 1); err == nil {
		t.Error("no variables: want error")
	}
	if _, err := Sobol([]int{3, 0}, f, 10, 1); err == nil {
		t.Error("empty domain: want error")
	}
	if _, err := Sobol([]int{3}, f, 1, 1); err == nil {
		t.Error("n < 2: want error")
	}
}
