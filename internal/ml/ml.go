// Package ml implements the linear-models analysis of §IV-D:
// L2-regularized logistic regression used as the classification surrogate,
// feature standardization, and the weight-normalized coefficient magnitudes
// that become the influence heatmaps of Figs. 2–4. (The paper's first
// attempt, an ordinary least-squares fit whose poor R² motivated the
// reformulation, is not reproduced.)
//
// A product that meets a sum is written float64(x*y): the explicit
// conversion rounds it, so no architecture fuses it into a multiply-add
// (arm64 would) and every fit gives the same bits on every GOARCH.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Standardizer rescales features to zero mean and unit variance, fitted on
// a training matrix. Constant columns are left centred but unscaled: their
// Mean is the constant itself and their Std is 1, so they standardise to 0.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column statistics of X. It rejects a NaN or
// an infinity, which would make every statistic and coefficient NaN.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if err := checkDesign(x); err != nil {
		return nil, err
	}
	cols := len(x[0])
	s := &Standardizer{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += float64(d * d)
		}
	}
	for j := range s.Std {
		if constantColumn(x, j) {
			// Summed, n copies of a non-integer average to a neighbour of
			// it (1,000 × 0.1 gives 0.09999999999999859), the deviations
			// are not 0, and the column would standardise to ≈ 1: a second
			// intercept. Take the constant itself.
			s.Mean[j], s.Std[j] = x[0][j], 1
			continue
		}
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1 // variation below float64 resolution: centre only
		}
	}
	return s, nil
}

// checkDesign rejects what every fit in the package rejects: an empty design
// matrix, a ragged one, and a NaN or an infinity, which would make every
// statistic, coefficient and split comparison meaningless.
func checkDesign(x [][]float64) error {
	if len(x) == 0 {
		return errors.New("ml: empty design matrix")
	}
	for i, row := range x {
		if len(row) != len(x[0]) {
			return errors.New("ml: ragged design matrix")
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: non-finite value in design matrix (row %d, column %d)", i, j)
			}
		}
	}
	return nil
}

// constantColumn reports whether every value of column j equals the first.
func constantColumn(x [][]float64, j int) bool {
	for _, row := range x[1:] {
		if row[j] != x[0][j] {
			return false
		}
	}
	return true
}

// LogisticModel is a fitted binary classifier over standardized features.
type LogisticModel struct {
	Intercept float64
	Coef      []float64
	Scaler    *Standardizer
}

// LogisticOptions tunes the gradient-ascent fit.
type LogisticOptions struct {
	Epochs int     // full-batch gradient steps (default 300)
	LR     float64 // learning rate (default 0.5)
	L2     float64 // ridge penalty (default 1e-4)
}

// FitLogistic trains an L2-regularized logistic regression with full-batch
// gradient ascent on standardized features. Labels are booleans ("optimal"
// vs "sub-optimal" in the study).
func FitLogistic(x [][]float64, y []bool, opt LogisticOptions) (*LogisticModel, error) {
	return fitLogistic(x, y, opt, useLanes)
}

// fitLogistic is FitLogistic on the lane kernel where lanes is set and the
// design's width fits it, on the portable kernel elsewhere. Both give the
// same bits.
func fitLogistic(x [][]float64, y []bool, opt LogisticOptions, lanes bool) (*LogisticModel, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, errors.New("ml: bad training data")
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 300
	}
	if opt.LR <= 0 {
		opt.LR = 0.5
	}
	if opt.L2 < 0 {
		opt.L2 = 0
	} else if opt.L2 == 0 {
		opt.L2 = 1e-4
	}
	scaler, err := FitStandardizer(x)
	if err != nil {
		return nil, err
	}
	d := newFitData(x, y, scaler, lanes)
	n := float64(len(x))
	w := make([]float64, d.p)
	b := 0.0
	gw := make([]float64, d.p)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		clear(gw)
		gb := d.epoch(w, b, gw)
		b += opt.LR * gb / n
		for j := range w {
			w[j] += float64(opt.LR * (gw[j]/n - float64(opt.L2*w[j])))
		}
	}
	return &LogisticModel{Intercept: b, Coef: w, Scaler: scaler}, nil
}

// fitData is a fit's standardised rows and 0/1 labels, built once per fit in
// the layout its epoch kernel reads; the epochs allocate nothing.
type fitData struct {
	xs     []float64 // row i is xs[i*stride:][:p]
	ts     []float64
	p      int
	stride int // p, or p rounded up to a multiple of 4 for the lane kernel
	// lanes selects the lane kernel, which also reads panel: each 4-row
	// block's columns in turn, a column's four values side by side.
	lanes bool
	panel []float64
}

func newFitData(x [][]float64, y []bool, sc *Standardizer, lanes bool) fitData {
	rows, p := len(x), len(sc.Mean)
	d := fitData{ts: make([]float64, rows), p: p, stride: p, lanes: lanes && p >= 1 && p <= maxLaneWidth}
	if d.lanes {
		d.stride = (p + 3) &^ 3
	}
	d.xs = make([]float64, rows*d.stride)
	for i, row := range x {
		r := d.xs[i*d.stride:][:p]
		for j, v := range row {
			r[j] = (v - sc.Mean[j]) / sc.Std[j]
		}
		if y[i] {
			d.ts[i] = 1
		}
	}
	if d.lanes {
		d.panel = make([]float64, rows/4*4*p)
		for i := 0; i+4 <= rows; i += 4 {
			blk := d.panel[i*p:][:4*p]
			for l := 0; l < 4; l++ {
				for j, v := range d.xs[(i+l)*d.stride:][:p] {
					blk[4*j+l] = v
				}
			}
		}
	}
	return d
}

// epoch adds one epoch's weight gradient to gw and returns its intercept
// gradient, for the model (w, b).
func (d *fitData) epoch(w []float64, b float64, gw []float64) float64 {
	if d.lanes {
		return d.laneEpoch(w, b, gw)
	}
	return d.rowEpoch(0, len(d.ts), w, b, 0, gw)
}

// rowEpoch is the portable kernel over rows [lo, hi): it adds their terms to
// gw and returns gb plus theirs. Products are converted to float64 so that
// no compiler fuses them into the sums, which would round differently.
func (d *fitData) rowEpoch(lo, hi int, w []float64, b, gb float64, gw []float64) float64 {
	p, s, xs, ts := d.p, d.stride, d.xs, d.ts
	w, gw = w[:p], gw[:p]
	i := lo
	// Four rows at a time: their dot products are independent, so they
	// overlap, while every sum — each z, gb and each gw[j] — still adds
	// the same terms in row order as the one-row tail below.
	for ; i+4 <= hi; i += 4 {
		// Each slice is resliced to [:p] so its length is provably that
		// of w and gw, and the inner loops carry no bounds checks.
		blk := xs[i*s:]
		r0, r1, r2, r3 := blk[:p], blk[s:][:p], blk[2*s:][:p], blk[3*s:][:p]
		t := ts[i:][:4]
		z0, z1, z2, z3 := b, b, b, b
		for j, wj := range w {
			z0 += float64(wj * r0[j])
			z1 += float64(wj * r1[j])
			z2 += float64(wj * r2[j])
			z3 += float64(wj * r3[j])
		}
		// The four exponentials first: the calls leave the divisions
		// of sigmoidOf free to overlap.
		a0 := math.Exp(-math.Abs(z0))
		a1 := math.Exp(-math.Abs(z1))
		a2 := math.Exp(-math.Abs(z2))
		a3 := math.Exp(-math.Abs(z3))
		e0 := t[0] - sigmoidOf(z0, a0)
		e1 := t[1] - sigmoidOf(z1, a1)
		e2 := t[2] - sigmoidOf(z2, a2)
		e3 := t[3] - sigmoidOf(z3, a3)
		gb += e0
		gb += e1
		gb += e2
		gb += e3
		for j, g := range gw {
			g += float64(e0 * r0[j])
			g += float64(e1 * r1[j])
			g += float64(e2 * r2[j])
			g += float64(e3 * r3[j])
			gw[j] = g
		}
	}
	for ; i < hi; i++ {
		r := xs[i*s:][:p]
		z := b
		for j, wj := range w {
			z += float64(wj * r[j])
		}
		e := ts[i] - sigmoid(z)
		gb += e
		for j := range gw {
			gw[j] += float64(e * r[j])
		}
	}
	return gb
}

// sigmoid is 1/(1+e^-z) without overflow.
func sigmoid(z float64) float64 { return sigmoidOf(z, math.Exp(-math.Abs(z))) }

// sigmoidOf is sigmoid(z) given a = exp(-|z|). exp(-|z|) is exactly exp(-z)
// for z ≥ 0 and exp(z) below, so this is 1/(1+exp(-z)) or exp(z)/(1+exp(z))
// to the bit. Unlike sigmoid it is small enough to inline, which the fit
// kernel relies on.
func sigmoidOf(z, a float64) float64 {
	// The numerator is a where z's sign bit is set and 1 elsewhere, picked
	// by a mask: the compiler turns an if on a float into a branch, which
	// mispredicts whenever the sign of z does. z = -0 takes a = exp(0) = 1,
	// which is the 1 that z ≥ 0 would take.
	neg := -(math.Float64bits(z) >> 63)
	num := math.Float64frombits(math.Float64bits(a)&neg | math.Float64bits(1)&^neg)
	return num / (1 + a)
}

// Prob returns P(optimal | row) for a raw (unstandardized) feature row.
func (m *LogisticModel) Prob(row []float64) float64 {
	z := m.Intercept
	for j, v := range row {
		z += m.Coef[j] * (v - m.Scaler.Mean[j]) / m.Scaler.Std[j]
	}
	return sigmoid(z)
}

// Accuracy is the 0.5-threshold classification accuracy on (x, y).
func (m *LogisticModel) Accuracy(x [][]float64, y []bool) float64 {
	if len(x) == 0 {
		return 0
	}
	hits := 0
	for i, row := range x {
		if (m.Prob(row) >= 0.5) == y[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(x))
}

// Influence returns the weight-normalized absolute coefficient magnitudes
// (§IV-D): each feature's share of the decision boundary, summing to 1.
// This is exactly what the heatmap cells of Figs. 2–4 display.
func (m *LogisticModel) Influence() []float64 {
	total := 0.0
	for _, c := range m.Coef {
		total += math.Abs(c)
	}
	out := make([]float64, len(m.Coef))
	if total == 0 {
		return out
	}
	for j, c := range m.Coef {
		out[j] = math.Abs(c) / total
	}
	return out
}
