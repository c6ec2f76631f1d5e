package ml

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// regSample builds a deterministic nonlinear dataset: y depends on a step of
// x0 and an interaction of x1*x2, the kind of structure the linear surrogate
// cannot express but a tree should.
func regSample(n int) (x [][]float64, y []float64) {
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>33) / (1 << 31)
	}
	for i := 0; i < n; i++ {
		row := []float64{next(), next(), next()}
		v := 0.2
		if row[0] > 0.5 {
			v += 1.0
		}
		v += float64(0.5 * row[1] * row[2])
		x = append(x, row)
		y = append(y, v)
	}
	return x, y
}

func TestRegTreeFitsStep(t *testing.T) {
	x, y := regSample(400)
	tree, err := fitRegTree(x, y, TreeOptions{MaxDepth: 6, MinLeaf: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The dominant split is the step at x0 = 0.5: predictions on either side
	// must differ by roughly the step height.
	lo := tree.Predict([]float64{0.2, 0.5, 0.5})
	hi := tree.Predict([]float64{0.8, 0.5, 0.5})
	if hi-lo < 0.5 {
		t.Errorf("tree missed the step: lo=%v hi=%v", lo, hi)
	}
	mse := 0.0
	for i, row := range x {
		d := tree.Predict(row) - y[i]
		mse += float64(d * d)
	}
	mse /= float64(len(x))
	if mse > 0.05 {
		t.Errorf("tree MSE = %v, want < 0.05", mse)
	}
}

func TestRegForestDeterministicAndUncertain(t *testing.T) {
	x, y := regSample(300)
	opt := TreeOptions{MaxDepth: 5, MinLeaf: 4, Seed: 9}
	f1, err := FitRegForest(x, y, 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := FitRegForest(x, y, 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(predictions(f1, x), predictions(f2, x)) {
		t.Error("same seed produced different forests")
	}
	mean, std := f1.PredictStd([]float64{0.45, 0.5, 0.5})
	if math.IsNaN(mean) || std < 0 {
		t.Errorf("PredictStd = %v, %v", mean, std)
	}
	// Near the step boundary the bootstrap trees disagree; deep inside a
	// region they mostly agree, so the spread should be informative, not 0
	// everywhere.
	anyStd := false
	for _, row := range x {
		if _, s := f1.PredictStd(row); s > 0 {
			anyStd = true
			break
		}
	}
	if !anyStd {
		t.Error("forest spread is zero on every training row")
	}
}

func TestRegFitRejectsBadData(t *testing.T) {
	if _, err := fitRegTree(nil, nil, TreeOptions{}); err == nil {
		t.Error("fitRegTree accepted empty data")
	}
	if _, err := FitRegForest([][]float64{{1}}, []float64{1, 2}, 3, TreeOptions{}); err == nil {
		t.Error("FitRegForest accepted mismatched data")
	}
}

// TestSplitSums holds the masked split sums bit for bit to a loop that adds
// only each side's rows, in row order, for every threshold: on signed
// targets, −0, ±Inf and NaN among them, at magnitudes from 2^−40 to 2^40 —
// sums too small for any tree split to show. A NaN sum need only be NaN: Go
// leaves its payload to the operand order the compiler picks.
func TestSplitSums(t *testing.T) {
	state := uint64(7)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for trial := 0; trial < 2000; trial++ {
		n, nThr := 1+int(next()%40), 1+int(next()%6)
		rows := make([]scanRow, n)
		for k := range rows {
			y := math.Ldexp(float64(next()%1000+1)/1000, int(next()%81)-40)
			if next()%2 == 0 {
				y = -y
			}
			if trial%4 == 0 && next()%8 == 0 {
				y = special[next()%4]
			} else if next()%10 == 0 {
				y = math.Copysign(0, -1)
			}
			rows[k] = scanRow{math.Float64bits(y), math.Float64bits(float64(y * y)), int32(next() % uint64(nThr+1))}
		}
		for j := int32(0); j < int32(nThr); j++ {
			var want [4]float64 // Σy, Σy² left; Σy, Σy² right
			for _, r := range rows {
				side := 0
				if j < r.below {
					side = 2
				}
				want[side] += math.Float64frombits(r.y)
				want[side+1] += math.Float64frombits(r.sq)
			}
			lSum, lSq, rSum, rSq := splitSums(rows, j)
			for k, got := range [4]float64{lSum, lSq, rSum, rSq} {
				if math.Float64bits(got) != math.Float64bits(want[k]) && !(math.IsNaN(got) && math.IsNaN(want[k])) {
					t.Fatalf("trial %d threshold %d sum %d: %x, want %x", trial, j, k,
						math.Float64bits(got), math.Float64bits(want[k]))
				}
			}
		}
	}
}

func predictions(f *RegForest, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = f.Predict(row)
	}
	return out
}

// fitRegTree grows a regression tree on (x, y) by greedy variance-reduction
// splits. The TreeOptions defaults are tuned for classification-sized data;
// regression callers with few samples should lower MinLeaf explicitly.
func fitRegTree(x [][]float64, y []float64, opt TreeOptions) (*RegTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad regression training data")
	}
	if err := checkDesign(x); err != nil {
		return nil, err
	}
	opt.defaults()
	g := newRegGrower(x, y, opt)
	return g.fit(indices(len(x)), opt), nil
}
