package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sampleStdDev is the n-1 batch formula the streaming accumulator must match.
func sampleStdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// TestWelfordMatchesBatch: property test — over many seeded random series of
// varying length and scale, the streaming mean/variance/CoV agree with the
// two-pass batch formulas to tight relative tolerance.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(64)
		scale := math.Pow(10, float64(rng.Intn(7)-3)) // 1e-3 .. 1e3
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = float64(scale * (1 + float64(0.3*rng.NormFloat64())))
			w.Add(xs[i])
		}
		if w.N() != n {
			t.Fatalf("trial %d: N = %d, want %d", trial, w.N(), n)
		}
		relOK := func(got, want float64) bool {
			if want == 0 {
				return got == 0
			}
			return math.Abs(got-want) <= 1e-9*math.Abs(want)
		}
		if m := Mean(xs); !relOK(w.Mean(), m) {
			t.Fatalf("trial %d: streaming mean %v, batch %v", trial, w.Mean(), m)
		}
		if sd := sampleStdDev(xs); !relOK(w.StdDev(), sd) {
			t.Fatalf("trial %d: streaming stddev %v, batch %v", trial, w.StdDev(), sd)
		}
		if sd := sampleStdDev(xs); sd > 0 {
			wantCoV := sd / Mean(xs)
			if !relOK(w.CoV(), wantCoV) {
				t.Fatalf("trial %d: streaming CoV %v, batch %v", trial, w.CoV(), wantCoV)
			}
		}
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CoV() != 0 || w.CIHalfWidth(0.95) != 0 {
		t.Fatal("zero-value accumulator must report zeros")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 || w.CoV() != 0 || w.CIRel(0.95) != 0 {
		t.Fatalf("single observation: mean %v var %v", w.Mean(), w.Variance())
	}
	// A constant series has zero variance and a zero-width interval.
	w = Welford{}
	for i := 0; i < 8; i++ {
		w.Add(2.0)
	}
	if w.Variance() != 0 || w.CIHalfWidth(0.95) != 0 || w.CoV() != 0 {
		t.Fatalf("constant series: var %v ci %v", w.Variance(), w.CIHalfWidth(0.95))
	}
}

func TestWelfordZeroAlloc(t *testing.T) {
	var w Welford
	allocs := testing.AllocsPerRun(100, func() {
		w.Add(1.25)
		_ = w.CoV()
		_ = w.CIRel(0.95)
	})
	if allocs != 0 {
		t.Fatalf("streaming path allocates: %v allocs/op", allocs)
	}
}

// TestTQuantile checks the inverse-t against reference values (R's qt):
// exact closed forms for df 1-2, the expansion for df >= 3.
func TestTQuantile(t *testing.T) {
	cases := []struct {
		p    float64
		df   int
		want float64
		tol  float64 // relative
	}{
		{0.975, 1, 12.7062, 1e-5},
		{0.95, 1, 6.31375, 1e-5},
		{0.975, 2, 4.30265, 1e-5},
		{0.975, 3, 3.18245, 1e-5},
		{0.975, 4, 2.77645, 1e-5},
		{0.975, 7, 2.36462, 1e-5},
		{0.975, 15, 2.13145, 1e-5},
		{0.975, 30, 2.04227, 1e-5},
		{0.95, 9, 1.83311, 1e-5},
		{0.99, 5, 3.36493, 1e-5},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > c.tol*c.want {
			t.Errorf("TQuantile(%v, %d) = %v, want %v (tol %v)", c.p, c.df, got, c.want, c.tol)
		}
	}
	// Symmetry: the distribution is symmetric about zero.
	for _, df := range []int{1, 2, 5, 20} {
		lo, hi := TQuantile(0.1, df), TQuantile(0.9, df)
		if math.Abs(lo+hi) > 1e-9*math.Abs(hi) {
			t.Errorf("df %d: quantiles not symmetric: %v vs %v", df, lo, hi)
		}
	}
	for _, bad := range []struct {
		p  float64
		df int
	}{{0.5, 0}, {0, 3}, {1, 3}, {-0.1, 3}} {
		if got := TQuantile(bad.p, bad.df); !math.IsNaN(got) {
			t.Errorf("TQuantile(%v, %d) = %v, want NaN", bad.p, bad.df, got)
		}
	}
}

// TestWelfordCIFormula: the CI half-width must equal t(1-alpha/2, n-1) * s / sqrt(n).
func TestWelfordCIFormula(t *testing.T) {
	xs := []float64{1.0, 1.1, 0.95, 1.05, 1.02}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	want := TQuantile(0.975, len(xs)-1) * sampleStdDev(xs) / math.Sqrt(float64(len(xs)))
	if got := w.CIHalfWidth(0.95); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CIHalfWidth = %v, want %v", got, want)
	}
	if got, want := w.CIRel(0.95), want/Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CIRel = %v, want %v", got, want)
	}
}
