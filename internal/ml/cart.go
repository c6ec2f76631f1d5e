package ml

import (
	"math"
	"sort"
)

// The CART scaffold the classifier (tree.go) and the regressor (regress.go)
// share: the node and its walk, the per-split feature draw, the quantile
// threshold scan, the partition and the bootstrap. The two differ only in
// what a leaf predicts and in how a candidate split is scored, which each
// keeps to itself.

type node struct {
	feature   int
	threshold float64
	left      *node
	right     *node
	value     float64 // a leaf's prediction: P(true), or the mean
	leaf      bool
}

func (n *node) predict(row []float64) float64 {
	for !n.leaf {
		if row[n.feature] < n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// indices returns 0..n-1: every row of a training set, or every feature.
func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func treeRNG(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d }

// splitFeatures draws the features one split may use: all p of them, or a
// random opt.MaxFeatures-subset.
func splitFeatures(p int, opt TreeOptions, rng *uint64) []int {
	features := indices(p)
	if opt.MaxFeatures > 0 && opt.MaxFeatures < p {
		for i := p - 1; i > 0; i-- {
			*rng = *rng*6364136223846793005 + 1442695040888963407
			j := int((*rng >> 33) % uint64(i+1))
			features[i], features[j] = features[j], features[i]
		}
		features = features[:opt.MaxFeatures]
	}
	return features
}

// bestSplit scans opt.Thresholds quantile thresholds of each feature over
// the rows idx and returns the split gain scores highest, or feature -1 when
// none gains. gain reports false for a split it may not take (a side below
// opt.MinLeaf).
func bestSplit(x [][]float64, idx, features []int, opt TreeOptions,
	gain func(f int, thr float64) (float64, bool)) (bestF int, bestThr, bestGain float64) {
	bestF = -1
	sorted := make([]float64, len(idx))
	for _, f := range features {
		for k, i := range idx {
			sorted[k] = x[i][f]
		}
		sort.Float64s(sorted)
		if sorted[0] == sorted[len(sorted)-1] {
			continue
		}
		for c := 1; c <= opt.Thresholds; c++ {
			thr := sorted[len(sorted)*c/(opt.Thresholds+1)]
			if thr == sorted[0] {
				continue
			}
			if g, ok := gain(f, thr); ok && g > bestGain+1e-12 {
				bestF, bestThr, bestGain = f, thr, g
			}
		}
	}
	return bestF, bestThr, bestGain
}

// partition splits idx, in order, into the rows left and right of the
// threshold.
func partition(x [][]float64, idx []int, f int, thr float64) (li, ri []int) {
	for _, i := range idx {
		if x[i][f] < thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return li, ri
}

// bagged fits nTrees trees (default 20) over n rows of p features, each on
// its own deterministic bootstrap resample — row indices, so no row is
// copied — with sqrt(p) feature subsampling per split: the standard
// random-forest recipe, stdlib-only and reproducible.
func bagged[T any](n, p, nTrees int, opt TreeOptions, fit func(idx []int, opt TreeOptions) T) []T {
	if nTrees <= 0 {
		nTrees = 20
	}
	opt.defaults()
	if opt.MaxFeatures <= 0 {
		opt.MaxFeatures = int(math.Sqrt(float64(p))) + 1
	}
	trees := make([]T, nTrees)
	for t := range trees {
		idx := make([]int, n)
		state := opt.Seed + uint64(t)*0x9e3779b97f4a7c15
		for i := range idx {
			state = state*6364136223846793005 + 1442695040888963407
			idx[i] = int((state >> 33) % uint64(n))
		}
		topt := opt
		topt.Seed = opt.Seed + uint64(t)*977
		trees[t] = fit(idx, topt)
	}
	return trees
}
