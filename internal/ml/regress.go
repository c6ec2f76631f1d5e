package ml

import (
	"errors"
	"math"
)

// Regression counterparts of the CART classifier in tree.go, built for the
// surrogate-guided search strategy: the searcher fits a forest on the
// (configuration features → normalized runtime) samples gathered so far and
// uses the ensemble's mean and spread to propose expected-improvement
// candidates. Splits minimize the within-node sum of squared errors instead
// of Gini impurity; everything is deterministic given the options' Seed, so
// a seeded search replays identically.

// RegTree is a fitted CART regression tree.
type RegTree struct {
	root *node
}

// FitRegTree grows a regression tree on (x, y) by greedy variance-reduction
// splits. The TreeOptions defaults are tuned for classification-sized data;
// regression callers with few samples should lower MinLeaf explicitly.
func FitRegTree(x [][]float64, y []float64, opt TreeOptions) (*RegTree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad regression training data")
	}
	opt.defaults()
	return fitRegTree(x, y, indices(len(x)), opt), nil
}

// fitRegTree grows a tree on the rows idx of (x, y); opt carries its defaults.
func fitRegTree(x [][]float64, y []float64, idx []int, opt TreeOptions) *RegTree {
	rng := treeRNG(opt.Seed)
	return &RegTree{growReg(x, y, idx, opt.MaxDepth, opt, &rng)}
}

// sse returns the sum of squared errors around the mean of y[idx].
func sse(y []float64, idx []int) (mean, s float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		s += d * d
	}
	return mean, s
}

func growReg(x [][]float64, y []float64, idx []int, depth int, opt TreeOptions, rng *uint64) *node {
	mean, parentSSE := sse(y, idx)
	leaf := &node{leaf: true, value: mean}
	if depth == 0 || len(idx) < 2*opt.MinLeaf || parentSSE == 0 {
		return leaf
	}
	f, thr, _ := bestSplit(x, idx, splitFeatures(len(x[0]), opt, rng), opt, func(f int, thr float64) (float64, bool) {
		var ln, rn int
		var lSum, lSq, rSum, rSq float64
		for _, i := range idx {
			if x[i][f] < thr {
				ln++
				lSum += y[i]
				lSq += y[i] * y[i]
			} else {
				rn++
				rSum += y[i]
				rSq += y[i] * y[i]
			}
		}
		if ln < opt.MinLeaf || rn < opt.MinLeaf {
			return 0, false
		}
		// SSE = Σy² − (Σy)²/n per side.
		childSSE := (lSq - lSum*lSum/float64(ln)) + (rSq - rSum*rSum/float64(rn))
		return parentSSE - childSSE, true
	})
	if f < 0 {
		return leaf
	}
	li, ri := partition(x, idx, f, thr)
	return &node{
		feature:   f,
		threshold: thr,
		left:      growReg(x, y, li, depth-1, opt, rng),
		right:     growReg(x, y, ri, depth-1, opt, rng),
	}
}

// Predict returns the tree's estimate for one feature row.
func (t *RegTree) Predict(row []float64) float64 { return t.root.predict(row) }

// RegForest is a bootstrap-aggregated ensemble of regression trees. The
// spread of the per-tree predictions doubles as a predictive-uncertainty
// estimate for acquisition functions (see PredictStd).
type RegForest struct {
	Trees []*RegTree
}

// FitRegForest trains nTrees regression trees by the recipe of bagged.
func FitRegForest(x [][]float64, y []float64, nTrees int, opt TreeOptions) (*RegForest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad regression training data")
	}
	return &RegForest{bagged(len(x), len(x[0]), nTrees, opt, func(idx []int, opt TreeOptions) *RegTree {
		return fitRegTree(x, y, idx, opt)
	})}, nil
}

// Predict returns the ensemble-mean estimate for one feature row.
func (f *RegForest) Predict(row []float64) float64 {
	m, _ := f.PredictStd(row)
	return m
}

// PredictStd returns the ensemble mean and the standard deviation of the
// per-tree predictions — a cheap stand-in for posterior uncertainty that the
// expected-improvement acquisition in the surrogate searcher consumes.
func (f *RegForest) PredictStd(row []float64) (mean, std float64) {
	if len(f.Trees) == 0 {
		return 0, 0
	}
	for _, t := range f.Trees {
		mean += t.Predict(row)
	}
	mean /= float64(len(f.Trees))
	for _, t := range f.Trees {
		d := t.Predict(row) - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(f.Trees)))
	return mean, std
}
