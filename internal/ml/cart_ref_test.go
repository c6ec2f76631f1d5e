package ml

import (
	"math"
	"sort"
)

// A frozen copy of the CART grower as it was before the column scaffold: a
// sort per feature per node, one closure call per quantile threshold, and a
// partition by append. The differential tests and FuzzSplitKernel hold the
// scaffold node-for-node equal to it.

func refBestSplit(x [][]float64, idx, features []int, opt TreeOptions,
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

func refPartition(x [][]float64, idx []int, f int, thr float64) (li, ri []int) {
	for _, i := range idx {
		if x[i][f] < thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return li, ri
}

func refSplitFeatures(p int, opt TreeOptions, rng *uint64) []int {
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

func refSSE(y []float64, idx []int) (mean, s float64) {
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

func refGrowReg(x [][]float64, y []float64, idx []int, depth int, opt TreeOptions, rng *uint64) *node {
	mean, parentSSE := refSSE(y, idx)
	leaf := &node{leaf: true, value: mean}
	if depth == 0 || len(idx) < 2*opt.MinLeaf || parentSSE == 0 {
		return leaf
	}
	f, thr, _ := refBestSplit(x, idx, refSplitFeatures(len(x[0]), opt, rng), opt, func(f int, thr float64) (float64, bool) {
		var ln, rn int
		var lSum, lSq, rSum, rSq float64
		for _, i := range idx {
			if x[i][f] < thr {
				ln++
				lSum += y[i]
				lSq += float64(y[i] * y[i])
			} else {
				rn++
				rSum += y[i]
				rSq += float64(y[i] * y[i])
			}
		}
		if ln < opt.MinLeaf || rn < opt.MinLeaf {
			return 0, false
		}
		childSSE := (lSq - lSum*lSum/float64(ln)) + (rSq - rSum*rSum/float64(rn))
		return parentSSE - childSSE, true
	})
	if f < 0 {
		return leaf
	}
	li, ri := refPartition(x, idx, f, thr)
	return &node{
		feature:   f,
		threshold: thr,
		left:      refGrowReg(x, y, li, depth-1, opt, rng),
		right:     refGrowReg(x, y, ri, depth-1, opt, rng),
	}
}

func refGrowClass(x [][]float64, y []bool, idx []int, depth int, opt TreeOptions, rng *uint64, importance []float64) *node {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	leaf := &node{leaf: true, value: float64(pos) / float64(len(idx))}
	if depth == 0 || len(idx) < 2*opt.MinLeaf || pos == 0 || pos == len(idx) {
		return leaf
	}
	parentImp := gini(pos, len(idx))
	f, thr, gain := refBestSplit(x, idx, refSplitFeatures(len(x[0]), opt, rng), opt, func(f int, thr float64) (float64, bool) {
		lp, ln, rp, rn := 0, 0, 0, 0
		for _, i := range idx {
			if x[i][f] < thr {
				ln++
				if y[i] {
					lp++
				}
			} else {
				rn++
				if y[i] {
					rp++
				}
			}
		}
		if ln < opt.MinLeaf || rn < opt.MinLeaf {
			return 0, false
		}
		wImp := (float64(float64(ln)*gini(lp, ln)) + float64(float64(rn)*gini(rp, rn))) / float64(len(idx))
		return parentImp - wImp, true
	})
	if f < 0 {
		return leaf
	}
	importance[f] += float64(gain * float64(len(idx)))
	li, ri := refPartition(x, idx, f, thr)
	return &node{
		feature:   f,
		threshold: thr,
		left:      refGrowClass(x, y, li, depth-1, opt, rng, importance),
		right:     refGrowClass(x, y, ri, depth-1, opt, rng, importance),
	}
}

// refBootstraps replays the forest recipe's per-tree bootstrap rows and
// options.
func refBootstraps(n, p, nTrees int, opt TreeOptions) ([][]int, []TreeOptions) {
	if nTrees <= 0 {
		nTrees = 20
	}
	opt.defaults()
	if opt.MaxFeatures <= 0 {
		opt.MaxFeatures = int(math.Sqrt(float64(p))) + 1
	}
	idxs := make([][]int, nTrees)
	opts := make([]TreeOptions, nTrees)
	for t := range idxs {
		idx := make([]int, n)
		state := opt.Seed + uint64(t)*0x9e3779b97f4a7c15
		for i := range idx {
			state = state*6364136223846793005 + 1442695040888963407
			idx[i] = int((state >> 33) % uint64(n))
		}
		topt := opt
		topt.Seed = opt.Seed + uint64(t)*977
		idxs[t], opts[t] = idx, topt
	}
	return idxs, opts
}

// refRegForest returns the reference regression forest's roots.
func refRegForest(x [][]float64, y []float64, nTrees int, opt TreeOptions) []*node {
	idxs, opts := refBootstraps(len(x), len(x[0]), nTrees, opt)
	roots := make([]*node, len(idxs))
	for t := range roots {
		rng := treeRNG(opts[t].Seed)
		roots[t] = refGrowReg(x, y, idxs[t], opts[t].MaxDepth, opts[t], &rng)
	}
	return roots
}

// refForest returns the reference classification forest's roots and raw
// (unnormalized) per-tree importances.
func refForest(x [][]float64, y []bool, nTrees int, opt TreeOptions) ([]*node, [][]float64) {
	idxs, opts := refBootstraps(len(x), len(x[0]), nTrees, opt)
	roots := make([]*node, len(idxs))
	imps := make([][]float64, len(idxs))
	for t := range roots {
		rng := treeRNG(opts[t].Seed)
		imps[t] = make([]float64, len(x[0]))
		roots[t] = refGrowClass(x, y, idxs[t], opts[t].MaxDepth, opts[t], &rng, imps[t])
	}
	return roots, imps
}
