package ml

import (
	"math"
	"testing"
	"testing/quick"
)

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
	xs := s.Apply(x)
	if xs[0][0] >= 0 || xs[2][0] <= 0 || xs[1][0] != 0 {
		t.Errorf("standardized column wrong: %v", xs)
	}
	if xs[0][1] != 0 {
		t.Errorf("constant column should centre to 0: %v", xs[0][1])
	}
}

func TestStandardizerErrors(t *testing.T) {
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := FitStandardizer([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix should error")
	}
}

func TestLogisticSeparatesHalfPlanes(t *testing.T) {
	var x [][]float64
	var y []bool
	for a := -2.0; a <= 2; a += 0.2 {
		for b := -2.0; b <= 2; b += 0.2 {
			x = append(x, []float64{a, b})
			y = append(y, a+0.5*b > 0.3)
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
	m, err := FitLogistic(x, y, LogisticOptions{Epochs: 500})
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

func TestInfluenceZeroModel(t *testing.T) {
	m := &LogisticModel{Coef: []float64{0, 0}}
	infl := m.Influence()
	if infl[0] != 0 || infl[1] != 0 {
		t.Errorf("zero model influence = %v", infl)
	}
}
