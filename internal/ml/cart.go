package ml

import (
	"cmp"
	"math"
	"slices"
)

// The CART scaffold the classifier (tree.go) and the regressor (regress.go)
// share: the node and its walk, the columns ranked once per fit, the
// per-split feature draw, the quantile thresholds read off rank counts, the
// in-place partition and the bootstrap. The two differ only in what a leaf
// predicts and in how the candidate splits of a feature are scored, which
// each keeps to itself.
//
// Exactness. The scaffold grows the tree a sort-per-node grower would: the
// thresholds of a node are the same floats sorted[n*c/(T+1)] of its rows'
// feature values, read off the cumulative rank counts instead of a sort; a
// repeated threshold is scored once, which changes nothing because a repeat
// scores the same gain and only a gain above the best by 1e-12 replaces it;
// and each threshold's left and right sums still accumulate in row order,
// duplicates included. The fits reject a NaN or an infinite feature.

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

func treeRNG(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d }

// columns is a training set ranked once per fit: per feature, its distinct
// values in ascending order and every row's rank among them, so row i lies
// left of the threshold values[f][r] exactly when rank[f][i] < r.
type columns struct {
	values [][]float64
	rank   [][]int32
	width  int // the most distinct values of any feature
}

func rankColumns(x [][]float64) columns {
	n, p := len(x), len(x[0])
	c := columns{values: make([][]float64, p), rank: make([][]int32, p)}
	ranks := make([]int32, n*p)
	order := make([]int32, n)
	for f := range p {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(x[a][f], x[b][f]) })
		rank := ranks[f*n : (f+1)*n]
		var values []float64
		for _, i := range order {
			if v := x[i][f]; len(values) == 0 || v != values[len(values)-1] {
				values = append(values, v)
			}
			rank[i] = int32(len(values) - 1)
		}
		c.values[f], c.rank[f] = values, rank
		c.width = max(c.width, len(values))
	}
	return c
}

// grower is the scaffold one fit grows its trees with: the ranked columns,
// the current tree's options and feature-draw state, scratch reused by every
// node of every tree, and the block the nodes are carved from.
type grower struct {
	cols     columns
	opt      TreeOptions
	rng      uint64
	features []int
	count    []int32 // per rank of the feature being scanned; zero between scans
	below    []int32 // per rank: how many of the scanned thresholds lie at or below it
	thr      []int32 // the scanned feature's threshold ranks, ascending
	nLeft    []int   // per scanned threshold: the rows left of it
	buf      []int   // the right half of a partition, before it is copied back
	nodes    []node  // the block new nodes are carved from
}

// newGrower ranks x and sizes the scratch for trees of opt.Thresholds
// thresholds over index lists of len(x) rows.
func newGrower(x [][]float64, opt TreeOptions) grower {
	cols := rankColumns(x)
	return grower{
		cols:     cols,
		features: make([]int, len(x[0])),
		count:    make([]int32, cols.width),
		below:    make([]int32, cols.width),
		thr:      make([]int32, 0, opt.Thresholds),
		nLeft:    make([]int, opt.Thresholds),
		buf:      make([]int, len(x)),
	}
}

// start begins a tree with options opt.
func (g *grower) start(opt TreeOptions) {
	g.opt = opt
	g.rng = treeRNG(opt.Seed)
}

// splitFeatures draws the features one split may use: all p of them, or a
// random opt.MaxFeatures-subset. The slice is reused by the next draw.
func (g *grower) splitFeatures() []int {
	features := g.features
	for i := range features {
		features[i] = i
	}
	if p := len(features); g.opt.MaxFeatures > 0 && g.opt.MaxFeatures < p {
		for i := p - 1; i > 0; i-- {
			g.rng = g.rng*6364136223846793005 + 1442695040888963407
			j := int((g.rng >> 33) % uint64(i+1))
			features[i], features[j] = features[j], features[i]
		}
		features = features[:g.opt.MaxFeatures]
	}
	return features
}

// thresholds returns the ranks of feature f's candidate thresholds over the
// rows idx, ascending: its opt.Thresholds quantiles, each once, less those
// that leave fewer than opt.MinLeaf rows on a side (the minimum leaves none,
// so a feature constant there has no candidate). It leaves the row count
// left of each in g.nLeft and, in g.below for every rank the rows take, how
// many candidates lie at or below it: a row of rank r falls left of
// candidate j exactly when j >= below[r].
func (g *grower) thresholds(idx []int, f int) []int32 {
	rank := g.cols.rank[f]
	for _, i := range idx {
		g.count[rank[i]]++
	}
	// Quantile c sits at position n*c/(T+1) of the sorted column: the rank
	// whose cumulative count first exceeds that position. A rank holding
	// one quantile or several is taken once, and the walk jumps to the
	// first quantile past it, c = ceil(cum*(T+1)/n); quantile T+1 sits at
	// n, which no rank exceeds. MinLeaf is at least 1, so the minimum never
	// qualifies.
	n, t, minLeaf := len(idx), g.opt.Thresholds, g.opt.MinLeaf
	thr := g.thr[:0]
	at := n / (t + 1)
	for r, cum := int32(0), 0; cum < n; r++ {
		left := cum
		cum += int(g.count[r])
		g.count[r] = 0
		if at < cum {
			if left >= minLeaf && n-left >= minLeaf {
				g.nLeft[len(thr)] = left
				thr = append(thr, r)
			}
			c := (cum*(t+1) + n - 1) / n
			at = n * c / (t + 1)
		}
		g.below[r] = int32(len(thr))
	}
	g.thr = thr
	return thr
}

// nodeBlock is how many nodes one allocation of a grower's node block holds.
const nodeBlock = 64

// newNode returns a node carved from the grower's current block, so a tree
// costs an allocation per nodeBlock nodes rather than one per node.
func (g *grower) newNode(n node) *node {
	if len(g.nodes) == cap(g.nodes) {
		g.nodes = make([]node, 0, nodeBlock)
	}
	g.nodes = append(g.nodes, n)
	return &g.nodes[len(g.nodes)-1]
}

// partition reorders idx stably into the rows ranked below r on feature f,
// then the rest, and returns the two halves.
func (g *grower) partition(idx []int, f int, r int32) (li, ri []int) {
	rank := g.cols.rank[f]
	nl, nr := 0, 0
	for _, i := range idx {
		if rank[i] < r {
			idx[nl] = i
			nl++
		} else {
			g.buf[nr] = i
			nr++
		}
	}
	copy(idx[nl:], g.buf[:nr])
	return idx[:nl], idx[nl:]
}

// bagged fits nTrees trees (default 20) over n rows of p features, each on
// its own deterministic bootstrap resample — row indices, so no row is
// copied — with sqrt(p) feature subsampling per split: the standard
// random-forest recipe, stdlib-only and reproducible. opt carries its
// defaults; fit may reorder idx but not keep it.
func bagged[T any](n, p, nTrees int, opt TreeOptions, fit func(idx []int, opt TreeOptions) T) []T {
	if nTrees <= 0 {
		nTrees = 20
	}
	if opt.MaxFeatures <= 0 {
		opt.MaxFeatures = int(math.Sqrt(float64(p))) + 1
	}
	trees := make([]T, nTrees)
	idx := make([]int, n)
	for t := range trees {
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
