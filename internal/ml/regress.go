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
	g := newRegGrower(x, y, opt)
	return g.fit(indices(len(x)), opt), nil
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

// regGrower is the scaffold with the regressor's per-threshold sums.
type regGrower struct {
	grower
	y    []float64
	sums []regSums
}

// regSums are Σy and Σy² left and right of one threshold.
type regSums struct{ lSum, lSq, rSum, rSq float64 }

func newRegGrower(x [][]float64, y []float64, opt TreeOptions) *regGrower {
	return &regGrower{grower: newGrower(x, opt), y: y, sums: make([]regSums, opt.Thresholds)}
}

// fit grows one tree on the rows idx; opt carries its defaults.
func (g *regGrower) fit(idx []int, opt TreeOptions) *RegTree {
	g.start(opt)
	return &RegTree{g.grow(idx, opt.MaxDepth)}
}

func (g *regGrower) grow(idx []int, depth int) *node {
	mean, parentSSE := sse(g.y, idx)
	if depth == 0 || len(idx) < 2*g.opt.MinLeaf || parentSSE == 0 {
		return g.newNode(node{leaf: true, value: mean})
	}
	bestF, bestR, bestGain := -1, int32(0), 0.0
	for _, f := range g.splitFeatures() {
		thr := g.thresholds(idx, f)
		if len(thr) == 0 {
			continue
		}
		sums := g.sums[:len(thr)]
		clear(sums)
		rank := g.cols.rank[f]
		for _, i := range idx {
			k := g.below[rank[i]]
			yi := g.y[i]
			right, left := sums[:k], sums[k:]
			for j := range right {
				right[j].rSum += yi
				right[j].rSq += yi * yi
			}
			for j := range left {
				left[j].lSum += yi
				left[j].lSq += yi * yi
			}
		}
		for j, r := range thr {
			s, nl := &sums[j], g.nLeft[j]
			nr := len(idx) - nl
			// SSE = Σy² − (Σy)²/n per side.
			childSSE := (s.lSq - s.lSum*s.lSum/float64(nl)) + (s.rSq - s.rSum*s.rSum/float64(nr))
			if gain := parentSSE - childSSE; gain > bestGain+1e-12 {
				bestF, bestR, bestGain = f, r, gain
			}
		}
	}
	if bestF < 0 {
		return g.newNode(node{leaf: true, value: mean})
	}
	li, ri := g.partition(idx, bestF, bestR)
	return g.newNode(node{
		feature:   bestF,
		threshold: g.cols.values[bestF][bestR],
		left:      g.grow(li, depth-1),
		right:     g.grow(ri, depth-1),
	})
}

// Predict returns the tree's estimate for one feature row.
func (t *RegTree) Predict(row []float64) float64 { return t.root.predict(row) }

// RegForest is a bootstrap-aggregated ensemble of regression trees. The
// spread of the per-tree predictions doubles as a predictive-uncertainty
// estimate for acquisition functions (see PredictStd).
type RegForest struct {
	Trees []*RegTree
}

// FitRegForest trains nTrees regression trees by the recipe of bagged, all
// grown through one scaffold that ranks x once.
func FitRegForest(x [][]float64, y []float64, nTrees int, opt TreeOptions) (*RegForest, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad regression training data")
	}
	opt.defaults()
	g := newRegGrower(x, y, opt)
	return &RegForest{bagged(len(x), len(x[0]), nTrees, opt, g.fit)}, nil
}

// Predict returns the ensemble-mean estimate for one feature row.
func (f *RegForest) Predict(row []float64) float64 {
	m, _ := f.PredictStd(row)
	return m
}

// PredictStd returns the ensemble mean and the standard deviation of the
// per-tree predictions — a cheap stand-in for posterior uncertainty that the
// expected-improvement acquisition in the surrogate searcher consumes. Each
// tree is walked once.
func (f *RegForest) PredictStd(row []float64) (mean, std float64) {
	if len(f.Trees) == 0 {
		return 0, 0
	}
	var stack [32]float64
	preds := stack[:0]
	if len(f.Trees) > len(stack) {
		preds = make([]float64, 0, len(f.Trees))
	}
	for _, t := range f.Trees {
		p := t.Predict(row)
		preds = append(preds, p)
		mean += p
	}
	mean /= float64(len(f.Trees))
	for _, p := range preds {
		d := p - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(f.Trees)))
	return mean, std
}
