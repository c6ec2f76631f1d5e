package ml

import (
	"fmt"
	"math"
	"testing"

	"omptune/internal/env"
	"omptune/internal/topology"
)

// sameTree reports the first difference between two trees: structure,
// feature, threshold bits or leaf value bits.
func sameTree(got, want *node, path string) error {
	switch {
	case got.leaf != want.leaf:
		return fmt.Errorf("%s: leaf %v, want %v", path, got.leaf, want.leaf)
	case got.leaf:
		if math.Float64bits(got.value) != math.Float64bits(want.value) {
			return fmt.Errorf("%s: leaf value %v, want %v", path, got.value, want.value)
		}
		return nil
	case got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold):
		return fmt.Errorf("%s: split x%d < %v, want x%d < %v", path, got.feature, got.threshold, want.feature, want.threshold)
	}
	if err := sameTree(got.left, want.left, path+"L"); err != nil {
		return err
	}
	return sameTree(got.right, want.right, path+"R")
}

// splitData draws n rows of p features of one kind — "discrete" (a few
// levels per feature), "continuous" (uniform) or "ties" (two levels, one of
// them nine times in ten) — with a nonlinear target, or of kind "signed":
// discrete features and that target with either sign, −0 one row in ten,
// and a magnitude near 2^−40 or near 2^40 as the first feature is 0 or 1,
// so a node's sums mix signs and both scales. A node of tiny rows alone is
// a leaf, below the gain floor; TestSplitSums holds its sums directly.
func splitData(kind string, n, p int, seed uint64) ([][]float64, []float64) {
	state := seed*0x9e3779b97f4a7c15 + 1
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>33) / (1 << 31)
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for f := range x[i] {
			switch kind {
			case "discrete", "signed":
				x[i][f] = math.Floor(next() * float64(2+f%5))
			case "continuous":
				x[i][f] = next()
			case "ties":
				if next() < 0.9 {
					x[i][f] = 1
				} else {
					x[i][f] = 0.5 * float64(f)
				}
			}
		}
		y[i] = float64(0.3*next()) + float64(x[i][0]*x[i][p-1])
		if x[i][1%p] > x[i][0] {
			y[i] += 1
		}
		if kind == "signed" {
			switch u := next(); {
			case u < 0.1:
				y[i] = math.Copysign(0, -1)
			case u < 0.55:
				y[i] = -y[i]
			}
			e := int(next()*8) - 40
			if x[i][0] > 0 {
				e += 73
			}
			y[i] = math.Ldexp(y[i], e)
		}
	}
	return x, y
}

// checkRegressor fits a regression tree (opt.MaxFeatures as given) and a
// 4-tree forest (sqrt(p)+1 features per split unless opt sets them) and
// holds both node-for-node to the reference grower.
func checkRegressor(x [][]float64, y []float64, opt TreeOptions) error {
	tree, err := fitRegTree(x, y, opt)
	if err != nil {
		return err
	}
	topt := opt
	topt.defaults()
	rng := treeRNG(topt.Seed)
	if err := sameTree(tree.root, refGrowReg(x, y, indices(len(x)), topt.MaxDepth, topt, &rng), "tree "); err != nil {
		return err
	}
	forest, err := FitRegForest(x, y, 4, opt)
	if err != nil {
		return err
	}
	for t, root := range refRegForest(x, y, 4, opt) {
		if err := sameTree(forest.Trees[t].root, root, fmt.Sprintf("forest tree %d ", t)); err != nil {
			return err
		}
	}
	return nil
}

// checkClassifier is checkRegressor for the Gini classifier, labels y > its
// mean.
func checkClassifier(x [][]float64, yr []float64, opt TreeOptions) error {
	mean := 0.0
	for _, v := range yr {
		mean += v / float64(len(yr))
	}
	y := make([]bool, len(yr))
	for i, v := range yr {
		y[i] = v > mean
	}
	tree, err := fitTree(x, y, opt)
	if err != nil {
		return err
	}
	topt := opt
	topt.defaults()
	rng := treeRNG(topt.Seed)
	imp := make([]float64, len(x[0])) // the reference's importances, not compared
	if err := sameTree(tree.root, refGrowClass(x, y, indices(len(x)), topt.MaxDepth, topt, &rng, imp), "tree "); err != nil {
		return err
	}
	forest, err := FitForest(x, y, 4, opt)
	if err != nil {
		return err
	}
	roots, _ := refForest(x, y, 4, opt)
	for t, root := range roots {
		if err := sameTree(forest.Trees[t].root, root, fmt.Sprintf("forest tree %d ", t)); err != nil {
			return err
		}
	}
	return nil
}

// TestSplitKernelMatchesReference holds the column scaffold node-for-node
// equal to the sort-per-node grower it replaced, on discrete, continuous and
// heavily tied data and on signed targets of every scale, with every feature
// per split and with a random subset.
func TestSplitKernelMatchesReference(t *testing.T) {
	for _, kind := range []string{"discrete", "continuous", "ties", "signed"} {
		for _, n := range []int{7, 60, 300} {
			for seed := uint64(1); seed <= 3; seed++ {
				x, y := splitData(kind, n, 7, seed)
				for _, opt := range []TreeOptions{
					{MaxDepth: 6, MinLeaf: 2, Seed: seed},
					{MaxDepth: 4, MinLeaf: 1, Thresholds: 5, MaxFeatures: 3, Seed: seed},
					{MaxDepth: 8, MinLeaf: 3, Thresholds: 40, MaxFeatures: 7, Seed: seed},
				} {
					if err := checkRegressor(x, y, opt); err != nil {
						t.Errorf("%s n=%d seed %d %+v regressor: %v", kind, n, seed, opt, err)
					}
					if err := checkClassifier(x, y, opt); err != nil {
						t.Errorf("%s n=%d seed %d %+v classifier: %v", kind, n, seed, opt, err)
					}
				}
			}
		}
	}
}

// FuzzSplitKernel is the differential of TestSplitKernelMatchesReference
// over fuzzed shapes, options and values drawn from a small alphabet, so
// ties and repeated quantiles are the common case. Targets are a byte over
// 17; with the top bit of data[5] set they take either sign instead, −0
// among them, at a scale from 2^−40 to 2^33 per input and up to 2^7 apart
// per row.
func FuzzSplitKernel(f *testing.F) {
	f.Add([]byte{20, 3, 2, 4, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{64, 5, 1, 16, 6, 2, 9, 9, 9, 9, 1, 9, 9, 9, 2, 200, 3})
	f.Add([]byte{9, 1, 4, 1, 3, 0, 255, 0, 255, 7})
	// Signed targets whose split turns on the order a sum adds its rows in.
	f.Add([]byte("\tX010\xf6\xfe\x04\x01\x04\x01b\x03\a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%63
		p := 1 + int(data[1])%6
		opt := TreeOptions{
			MinLeaf:     1 + int(data[2])%4,
			Thresholds:  1 + int(data[3])%24,
			MaxDepth:    1 + int(data[4])%7,
			MaxFeatures: int(data[5]) % (p + 1),
			Seed:        uint64(data[0]) ^ uint64(data[5])<<8,
		}
		vals := data[6:]
		if len(vals) == 0 {
			vals = []byte{0}
		}
		at := 0
		draw := func() byte {
			b := vals[at%len(vals)]
			at++
			return b ^ byte(at/len(vals))
		}
		signed, scale := data[5]&0x80 != 0, int(data[5]&0x7f)%74-40
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, p)
			for j := range x[i] {
				x[i][j] = float64(draw()%7) * 0.25
			}
			if !signed {
				y[i] = float64(draw()) / 17
				continue
			}
			b := draw()
			y[i] = math.Ldexp(float64(b>>1)/17, scale+int(draw()%8))
			if b&1 != 0 {
				y[i] = -y[i]
			}
		}
		if err := checkRegressor(x, y, opt); err != nil {
			t.Fatalf("regressor %+v: %v", opt, err)
		}
		if err := checkClassifier(x, y, opt); err != nil {
			t.Fatalf("classifier %+v: %v", opt, err)
		}
	})
}

// TestCARTFitsRejectBadDesign holds the four CART fits to FitStandardizer's
// checks: a ragged design, a NaN and an infinite feature are each an error
// in its words, not a panic or a split on a value no comparison orders.
func TestCARTFitsRejectBadDesign(t *testing.T) {
	fits := []struct {
		name string
		fit  func(x [][]float64) error
	}{
		{"fitTree", func(x [][]float64) error {
			_, err := fitTree(x, []bool{true, false, true, false}, TreeOptions{MinLeaf: 1})
			return err
		}},
		{"FitForest", func(x [][]float64) error {
			_, err := FitForest(x, []bool{true, false, true, false}, 3, TreeOptions{MinLeaf: 1})
			return err
		}},
		{"fitRegTree", func(x [][]float64) error {
			_, err := fitRegTree(x, []float64{1, -2, 3, -4}, TreeOptions{MinLeaf: 1})
			return err
		}},
		{"FitRegForest", func(x [][]float64) error {
			_, err := FitRegForest(x, []float64{1, -2, 3, -4}, 3, TreeOptions{MinLeaf: 1})
			return err
		}},
	}
	designs := map[string][][]float64{
		"ragged": {{1, 2}, {3}, {5, 6}, {7, 8}},
		"NaN":    {{1, 2}, {3, 4}, {5, math.NaN()}, {7, 8}},
		"+Inf":   {{1, 2}, {3, 4}, {5, 6}, {math.Inf(1), 8}},
		"-Inf":   {{1, math.Inf(-1)}, {3, 4}, {5, 6}, {7, 8}},
	}
	for what, x := range designs {
		_, want := FitStandardizer(x)
		if want == nil {
			t.Fatalf("FitStandardizer accepted the %s design", what)
		}
		for _, f := range fits {
			if err := f.fit(x); err == nil || err.Error() != want.Error() {
				t.Errorf("%s on the %s design: error %v, want %q", f.name, what, err, want)
			}
		}
	}
}

// BenchmarkFitRegForest fits the surrogate search's forest at the size it
// reaches by the end of a 300-evaluation search: 12 trees of depth 6,
// MinLeaf 2, on 300 random configurations' 7 features.
func BenchmarkFitRegForest(b *testing.B) {
	space := env.Space(topology.MustGet(topology.A64FX))
	names := env.Names()
	state := uint64(7)
	x := make([][]float64, 300)
	y := make([]float64, len(x))
	for i := range x {
		state = state*6364136223846793005 + 1442695040888963407
		cfg := space[(state>>33)%uint64(len(space))]
		x[i] = make([]float64, len(names))
		for k, v := range names {
			x[i][k] = cfg.Feature(v)
		}
		y[i] = 1 + float64(0.1*x[i][0]) - float64(0.05*x[i][1]*x[i][2]) + float64(float64(state>>60)/64)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := FitRegForest(x, y, 12, TreeOptions{MaxDepth: 6, MinLeaf: 2, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// indices returns 0..n-1: every row of a training set.
func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
