package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// design is a seeded n × 10 design matrix with a noisy linear boundary over
// columns of different scales and offsets; column 9 is the constant 3.
func design(n int, seed int64) ([][]float64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, 10)
		for j := 0; j < 9; j++ {
			row[j] = float64(rng.NormFloat64()*float64(j+1)) + float64(j)
		}
		row[9] = 3
		x[i] = row
		y[i] = row[0]-float64(0.25*(row[3]-3))+float64(0.1*row[6])+float64(0.5*rng.NormFloat64()) > 0.6
	}
	return x, y
}

// objectiveGradient is the gradient of FitLogistic's objective at m on
// (x, y), written out from its definition: the mean over the rows of
// (t − P(row))·(1, standardised row), less l2·(0, w).
func objectiveGradient(m *LogisticModel, x [][]float64, y []bool, l2 float64) []float64 {
	g := make([]float64, 1+len(m.Coef))
	for i, row := range x {
		e := -m.Prob(row)
		if y[i] {
			e++
		}
		g[0] += e
		for j, v := range row {
			g[1+j] += e * (v - m.Scaler.Mean[j]) / m.Scaler.Std[j]
		}
	}
	for j := range g {
		g[j] /= float64(len(x))
		if j > 0 {
			g[j] -= float64(l2 * m.Coef[j-1])
		}
	}
	return g
}

// assertConverged fails t unless every component of the objective's
// gradient at m is at most 1e-8 in magnitude.
func assertConverged(t *testing.T, m *LogisticModel, x [][]float64, y []bool, l2 float64) {
	t.Helper()
	for j, g := range objectiveGradient(m, x, y, l2) {
		if math.Abs(g) > 1e-8 {
			t.Errorf("gradient component %d = %g at the returned fit, want |g| ≤ 1e-8", j, g)
		}
	}
}

// The fit is the optimum of its objective: at the returned model the
// gradient vanishes, on a design with columns of different scales and
// offsets and a constant column, and under a stronger penalty.
func TestFitLogisticBits(t *testing.T) {
	x, y := design(1003, 1)
	for _, l2 := range []float64{0, 1e-2} {
		m, passes, err := new(LogisticFitter).fit(x, y, LogisticOptions{L2: l2}, maxPasses)
		if err != nil {
			t.Fatalf("L2 %v: %v", l2, err)
		}
		if l2 == 0 {
			l2 = 1e-4
		}
		assertConverged(t, m, x, y, l2)
		if m.Coef[9] != 0 {
			t.Errorf("L2 %v: constant column's coefficient %v, want exactly 0", l2, m.Coef[9])
		}
		t.Logf("L2 %v: %d passes", l2, passes)
	}
}

// A negative or non-finite penalty is refused, and a fit that needs more
// passes than its cap is an error, not a model.
func TestFitLogisticRefuses(t *testing.T) {
	x, y := design(200, 1)
	for _, l2 := range []float64{-1e-4, math.Inf(1), math.NaN()} {
		if m, err := FitLogistic(x, y, LogisticOptions{L2: l2}); err == nil {
			t.Errorf("L2 %v: model %+v, want an error", l2, m)
		}
	}
	_, passes, err := new(LogisticFitter).fit(x, y, LogisticOptions{}, maxPasses)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := new(LogisticFitter).fit(x, y, LogisticOptions{}, passes-1)
	const want = "did not converge"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("cap %d below the %d passes the fit takes: model %+v, error %v, want %q", passes-1, passes, m, err, want)
	}
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {2, 10}, {3, 10}}
	s, err := FitStandardizer(x)
	if err != nil {
		t.Fatalf("FitStandardizer: %v", err)
	}
	if s.Mean[0] != 2 || s.Mean[1] != 10 {
		t.Errorf("means = %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Errorf("constant column std should fall back to 1, got %v", s.Std[1])
	}
	std := func(i, j int) float64 { return (x[i][j] - s.Mean[j]) / s.Std[j] }
	if std(0, 0) >= 0 || std(2, 0) <= 0 || std(1, 0) != 0 {
		t.Errorf("standardized column wrong: %v %v %v", std(0, 0), std(1, 0), std(2, 0))
	}
	if std(0, 1) != 0 {
		t.Errorf("constant column should centre to 0: %v", std(0, 1))
	}
}

// A constant column whose value is not an integer sums to a mean that is off
// by rounding; it must still standardise to 0 and take no influence, not act
// as a second intercept.
func TestConstantNonIntegerColumnNoInfluence(t *testing.T) {
	for _, c := range []float64{0.1, 0.3, 0.7, 1.1} {
		var x [][]float64
		var y []bool
		for i := 0; i < 1000; i++ {
			a := float64(i%40) - 19.5
			x = append(x, []float64{a, c})
			y = append(y, a > 0)
		}
		s, err := FitStandardizer(x)
		if err != nil {
			t.Fatalf("FitStandardizer: %v", err)
		}
		if s.Mean[1] != c || s.Std[1] != 1 {
			t.Errorf("constant %v: mean %v std %v, want %v and 1", c, s.Mean[1], s.Std[1], c)
		}
		m, err := FitLogistic(x, y, LogisticOptions{})
		if err != nil {
			t.Fatalf("FitLogistic: %v", err)
		}
		if infl := m.Influence(); infl[1] != 0 {
			t.Errorf("constant %v: influence %v, want exactly 0", c, infl)
		}
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := FitStandardizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
	// One NaN or infinity used to make every coefficient NaN, silently.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x, y := design(100, 1)
		x[5][2] = v
		const want = "ml: non-finite value in design matrix (row 5, column 2)"
		if _, err := FitStandardizer(x); err == nil || err.Error() != want {
			t.Errorf("FitStandardizer with %v: error %v, want %q", v, err, want)
		}
		if m, err := FitLogistic(x, y, LogisticOptions{}); err == nil {
			t.Errorf("FitLogistic with %v: model %+v, want an error", v, m)
		}
	}
}

func TestLogisticSeparatesHalfPlanes(t *testing.T) {
	var x [][]float64
	var y []bool
	for a := -2.0; a <= 2; a += 0.2 {
		for b := -2.0; b <= 2; b += 0.2 {
			x = append(x, []float64{a, b})
			y = append(y, a+float64(0.5*b) > 0.3)
		}
	}
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	if acc := m.Accuracy(x, y); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
	// Feature a is twice as influential as b in the true boundary.
	infl := m.Influence()
	if infl[0] <= infl[1] {
		t.Errorf("influence = %v, want feature 0 dominant", infl)
	}
	if s := infl[0] + infl[1]; math.Abs(s-1) > 1e-9 {
		t.Errorf("influence sums to %v, want 1", s)
	}
}

func TestLogisticIrrelevantFeatureLowInfluence(t *testing.T) {
	var x [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		a := float64(i%20) - 10
		noise := float64((i*7)%13) - 6
		x = append(x, []float64{a, noise})
		y = append(y, a > 0)
	}
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	infl := m.Influence()
	if infl[1] > 0.2 {
		t.Errorf("irrelevant feature influence %v, want small", infl[1])
	}
}

func TestLogisticProbRange(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []bool{false, false, true, true}
	m, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	f := func(v int8) bool {
		p := m.Prob([]float64{float64(v)})
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if m.Prob([]float64{3}) <= m.Prob([]float64{0}) {
		t.Error("probability should increase with the feature")
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}

// The masked sigmoid is the two-branch textbook form to the bit.
func TestSigmoidMatchesTwoBranchForm(t *testing.T) {
	ref := func(z float64) float64 {
		if z >= 0 {
			return 1 / (1 + math.Exp(-z))
		}
		e := math.Exp(z)
		return e / (1 + e)
	}
	zs := []float64{0, math.Copysign(0, -1), 1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, 709, -709, 745.2, -745.2, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		zs = append(zs, rng.NormFloat64()*float64(1+i%40))
	}
	for _, z := range zs {
		if got, want := sigmoid(z), ref(z); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sigmoid(%v) = %v, two-branch form %v", z, got, want)
		}
	}
}

func TestInfluenceZeroModel(t *testing.T) {
	m := &LogisticModel{Coef: []float64{0, 0}}
	infl := m.Influence()
	if infl[0] != 0 || infl[1] != 0 {
		t.Errorf("zero model influence = %v", infl)
	}
}

// The fit's allocations are its outputs, its scaler and one flat block, so
// their count grows neither with the rows nor with the passes.
func TestFitLogisticAllocsConstant(t *testing.T) {
	allocs := func(n int, l2 float64) (float64, int) {
		x, y := design(n, 2)
		_, passes, err := new(LogisticFitter).fit(x, y, LogisticOptions{L2: l2}, maxPasses)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := FitLogistic(x, y, LogisticOptions{L2: l2}); err != nil {
				t.Fatal(err)
			}
		}), passes
	}
	base, basePasses := allocs(1000, 0)
	if a, _ := allocs(4000, 0); a != base {
		t.Errorf("FitLogistic allocs: %v at 1k rows, %v at 4k rows, want equal", base, a)
	}
	a, passes := allocs(1000, 10)
	if passes == basePasses {
		t.Fatalf("both penalties take %d passes: the test needs two pass counts", passes)
	}
	if a != base {
		t.Errorf("FitLogistic allocs: %v in %d passes, %v in %d, want equal", base, basePasses, a, passes)
	}
}

// BenchmarkFitLogistic times one fit of a seeded 50,000 × 10 design, the
// shape of one influence-heatmap row.
func BenchmarkFitLogistic(b *testing.B) {
	x, y := design(50000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLogistic(x, y, LogisticOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
