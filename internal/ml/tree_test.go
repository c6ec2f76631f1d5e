package ml

import (
	"errors"
	"math"
	"testing"
)

// xorData is the canonical linearly-inseparable problem: logistic
// regression fails, trees succeed — exactly the motivation the paper gives
// for moving beyond linear models (§VI).
func xorData() ([][]float64, []bool) {
	var x [][]float64
	var y []bool
	for a := 0.0; a < 10; a++ {
		for b := 0.0; b < 10; b++ {
			x = append(x, []float64{a, b, float64(int(a+b)%3) * 0.1})
			y = append(y, (a < 5) != (b < 5))
		}
	}
	return x, y
}

func TestTreeSolvesXORWhereLogisticCannot(t *testing.T) {
	x, y := xorData()
	// Note MaxDepth 6: XOR's first split has zero marginal gain, so greedy
	// CART needs spare depth to recover after an uninformative root.
	tree, err := fitTree(x, y, TreeOptions{MaxDepth: 6, MinLeaf: 3})
	if err != nil {
		t.Fatalf("fitTree: %v", err)
	}
	if acc := tree.Accuracy(x, y); acc < 0.9 {
		t.Errorf("tree accuracy %v on XOR, want >= 0.9", acc)
	}
	logit, err := FitLogistic(x, y, LogisticOptions{})
	if err != nil {
		t.Fatalf("FitLogistic: %v", err)
	}
	if acc := logit.Accuracy(x, y); acc > 0.7 {
		t.Errorf("logistic accuracy %v on XOR — should fail where the tree succeeds", acc)
	}
}

func TestTreePureLeafStops(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []bool{true, true, true, true}
	tree, err := fitTree(x, y, TreeOptions{MinLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tree.root) != 0 {
		t.Errorf("pure-class tree depth %d, want 0", depthOf(tree.root))
	}
	if p := tree.Prob([]float64{2.5}); p != 1 {
		t.Errorf("pure-class prob %v, want 1", p)
	}
}

func TestTreeRespectsMaxDepthAndMinLeaf(t *testing.T) {
	x, y := xorData()
	tree, err := fitTree(x, y, TreeOptions{MaxDepth: 2, MinLeaf: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d := depthOf(tree.root); d > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", d)
	}
}

func TestTreeBadInput(t *testing.T) {
	if _, err := fitTree(nil, nil, TreeOptions{}); err == nil {
		t.Error("empty input should error")
	}
	if _, err := fitTree([][]float64{{1}}, []bool{true, false}, TreeOptions{}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestTreeDeterministic(t *testing.T) {
	x, y := xorData()
	a, _ := fitTree(x, y, TreeOptions{Seed: 7, MaxFeatures: 2, MinLeaf: 5})
	b, _ := fitTree(x, y, TreeOptions{Seed: 7, MaxFeatures: 2, MinLeaf: 5})
	for _, row := range x {
		if a.Prob(row) != b.Prob(row) {
			t.Fatal("same-seed trees disagree")
		}
	}
}

func TestForestBeatsOrMatchesSingleTreeOnXOR(t *testing.T) {
	x, y := xorData()
	forest, err := FitForest(x, y, 15, TreeOptions{MaxDepth: 5, MinLeaf: 3, Seed: 11})
	if err != nil {
		t.Fatalf("FitForest: %v", err)
	}
	if acc := forest.Accuracy(x, y); acc < 0.95 {
		t.Errorf("forest accuracy %v, want >= 0.95", acc)
	}
}

func TestForestProbIsAverage(t *testing.T) {
	x, y := xorData()
	forest, err := FitForest(x, y, 5, TreeOptions{MinLeaf: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	row := x[0]
	want := 0.0
	for _, tr := range forest.Trees {
		want += tr.Prob(row)
	}
	want /= float64(len(forest.Trees))
	if got := forest.Prob(row); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob = %v, want mean %v", got, want)
	}
}

func TestForestEmptyAndErrors(t *testing.T) {
	var f Forest
	if f.Prob([]float64{1}) != 0 {
		t.Error("empty forest should degrade gracefully")
	}
	if _, err := FitForest(nil, nil, 3, TreeOptions{}); err == nil {
		t.Error("empty input should error")
	}
}

func TestForestDeterministic(t *testing.T) {
	x, y := xorData()
	a, _ := FitForest(x, y, 8, TreeOptions{Seed: 42, MinLeaf: 3})
	b, _ := FitForest(x, y, 8, TreeOptions{Seed: 42, MinLeaf: 3})
	for _, row := range x[:20] {
		if a.Prob(row) != b.Prob(row) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

// fitTree grows a CART tree on (x, y) by greedy Gini-impurity splits.
func fitTree(x [][]float64, y []bool, opt TreeOptions) (*DecisionTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad training data")
	}
	if err := checkDesign(x); err != nil {
		return nil, err
	}
	opt.defaults()
	g := newClassGrower(x, y, opt)
	return g.fit(indices(len(x)), opt), nil
}

// depthOf returns the height of a fitted tree (0 for a stump leaf).
func depthOf(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
