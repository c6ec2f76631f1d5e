package ml

import "errors"

// The paper closes by proposing "the development of non-linear approaches
// to model such data" (§VI). This file provides that extension: CART-style
// decision trees and a bootstrap-aggregated random forest. Everything is
// deterministic given the options' Seed.

// TreeOptions tunes decision-tree induction.
type TreeOptions struct {
	// MaxDepth bounds the tree height (default 8).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 20).
	MinLeaf int
	// Thresholds is the number of candidate split thresholds per feature,
	// taken at quantiles (default 16); keeps induction O(n) per node.
	Thresholds int
	// MaxFeatures restricts each split to a random feature subset
	// (0 = all features; forests default to sqrt(p)).
	MaxFeatures int
	// Seed drives the deterministic feature subsampling.
	Seed uint64
}

func (o *TreeOptions) defaults() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 20
	}
	if o.Thresholds <= 0 {
		o.Thresholds = 16
	}
}

// DecisionTree is a fitted binary CART classifier.
type DecisionTree struct {
	root *node
}

// classGrower is the scaffold with the classifier's per-threshold count of
// positives left of it.
type classGrower struct {
	grower
	y  []bool
	lp []int
}

func newClassGrower(x [][]float64, y []bool, opt TreeOptions) *classGrower {
	return &classGrower{grower: newGrower(x, opt), y: y, lp: make([]int, opt.Thresholds)}
}

// fit grows one tree on the rows idx; opt carries its defaults.
func (g *classGrower) fit(idx []int, opt TreeOptions) *DecisionTree {
	g.start(opt)
	return &DecisionTree{root: g.grow(idx, opt.MaxDepth)}
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

func (g *classGrower) grow(idx []int, depth int) *node {
	pos := 0
	for _, i := range idx {
		if g.y[i] {
			pos++
		}
	}
	value := float64(pos) / float64(len(idx))
	if depth == 0 || len(idx) < 2*g.opt.MinLeaf || pos == 0 || pos == len(idx) {
		return g.newNode(node{leaf: true, value: value})
	}
	parentImp := gini(pos, len(idx))
	bestF, bestR, bestGain := -1, int32(0), 0.0
	for _, f := range g.splitFeatures() {
		thr := g.thresholds(idx, f)
		if len(thr) == 0 {
			continue
		}
		lp := g.lp[:len(thr)]
		clear(lp)
		rank := g.cols.rank[f]
		for _, i := range idx {
			if g.y[i] {
				left := lp[g.below[rank[i]]:]
				for j := range left {
					left[j]++
				}
			}
		}
		for j, r := range thr {
			nl := g.nLeft[j]
			nr := len(idx) - nl
			wImp := (float64(float64(nl)*gini(lp[j], nl)) + float64(float64(nr)*gini(pos-lp[j], nr))) / float64(len(idx))
			if gain := parentImp - wImp; gain > bestGain+1e-12 {
				bestF, bestR, bestGain = f, r, gain
			}
		}
	}
	if bestF < 0 {
		return g.newNode(node{leaf: true, value: value})
	}
	li, ri := g.partition(idx, bestF, bestR)
	return g.newNode(node{
		feature:   bestF,
		threshold: g.cols.values[bestF][bestR],
		left:      g.grow(li, depth-1),
		right:     g.grow(ri, depth-1),
	})
}

// Prob returns P(optimal | row).
func (t *DecisionTree) Prob(row []float64) float64 { return t.root.predict(row) }

// Accuracy is the 0.5-threshold classification accuracy on (x, y).
func (t *DecisionTree) Accuracy(x [][]float64, y []bool) float64 {
	if len(x) == 0 {
		return 0
	}
	hits := 0
	for i, row := range x {
		if (t.Prob(row) >= 0.5) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}

// Forest is a bootstrap-aggregated ensemble of decision trees.
type Forest struct {
	Trees []*DecisionTree
}

// FitForest trains nTrees CART trees by the recipe of bagged, all grown
// through one scaffold that ranks x once.
func FitForest(x [][]float64, y []bool, nTrees int, opt TreeOptions) (*Forest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad training data")
	}
	if err := checkDesign(x); err != nil {
		return nil, err
	}
	opt.defaults()
	g := newClassGrower(x, y, opt)
	return &Forest{bagged(len(x), len(x[0]), nTrees, opt, g.fit)}, nil
}

// Prob returns the ensemble-averaged P(optimal | row).
func (f *Forest) Prob(row []float64) float64 {
	if len(f.Trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range f.Trees {
		s += t.Prob(row)
	}
	return s / float64(len(f.Trees))
}

// Accuracy is the 0.5-threshold classification accuracy on (x, y).
func (f *Forest) Accuracy(x [][]float64, y []bool) float64 {
	if len(x) == 0 {
		return 0
	}
	hits := 0
	for i, row := range x {
		if (f.Prob(row) >= 0.5) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}
