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
		s += float64(d * d)
	}
	return mean, s
}

// regGrower is the scaffold with the regressor's rows as its split scan
// reads them.
type regGrower struct {
	grower
	y    []float64
	rows []scanRow // the node's rows, in idx order
}

// scanRow is one row of a node as the split scan reads it: the bits of its
// target and of the target's square, gathered once per node, and the first
// of the scanned feature's thresholds it lies left of, once per feature.
type scanRow struct {
	y, sq uint64
	below int32
}

func newRegGrower(x [][]float64, y []float64, opt TreeOptions) *regGrower {
	return &regGrower{grower: newGrower(x, opt), y: y, rows: make([]scanRow, len(x))}
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
	rows := g.rows[:len(idx)]
	for k, i := range idx {
		yi := g.y[i]
		rows[k].y, rows[k].sq = math.Float64bits(yi), math.Float64bits(float64(yi*yi))
	}
	bestF, bestR, bestGain := -1, int32(0), 0.0
	for _, f := range g.splitFeatures() {
		thr := g.thresholds(idx, f)
		if len(thr) == 0 {
			continue
		}
		rank := g.cols.rank[f]
		for k, i := range idx {
			rows[k].below = g.below[rank[i]]
		}
		for j, r := range thr {
			lSum, lSq, rSum, rSq := splitSums(rows, int32(j))
			nl := g.nLeft[j]
			nr := len(idx) - nl
			// SSE = Σy² − (Σy)²/n per side.
			childSSE := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
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

// splitSums returns Σy and Σy² of the rows left of threshold j and of those
// right of it. Every row adds into all four sums, in row order: its own
// value on its side, +0 on the other, chosen by a mask rather than a branch.
// Adding +0 changes no sum but −0, and a sum that starts at +0 is never −0
// (x + y is −0 only when both are), so each sum is the one the rows of its
// side alone would give.
func splitSums(rows []scanRow, j int32) (lSum, lSq, rSum, rSq float64) {
	for _, r := range rows {
		right := uint64(int64(j-r.below) >> 63) // all ones when j < below
		lSum += math.Float64frombits(r.y &^ right)
		lSq += math.Float64frombits(r.sq &^ right)
		rSum += math.Float64frombits(r.y & right)
		rSq += math.Float64frombits(r.sq & right)
	}
	return lSum, lSq, rSum, rSq
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
	if err := checkDesign(x); err != nil {
		return nil, err
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
		std += float64(d * d)
	}
	std = math.Sqrt(std / float64(len(f.Trees)))
	return mean, std
}
