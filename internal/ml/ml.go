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
	"slices"
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
	ms := make([]float64, 2*cols)
	s := &Standardizer{Mean: ms[:cols:cols], Std: ms[cols:]}
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

// LogisticOptions tunes the fit.
type LogisticOptions struct {
	L2 float64 // ridge penalty on the coefficients (0 takes the default 1e-4)
}

// maxPasses caps the passes over the rows one fit may take. The study's
// fits take 4–9; a fit that reaches the cap is an error, not a model.
const maxPasses = 100

// FitLogistic trains an L2-regularized logistic regression on standardized
// features to convergence. It maximises the mean log-likelihood minus
// (L2/2)‖w‖², the intercept unpenalised, by damped Newton's method (IRLS).
// Labels are booleans ("optimal" vs "sub-optimal" in the study). A negative
// penalty is refused.
func FitLogistic(x [][]float64, y []bool, opt LogisticOptions) (*LogisticModel, error) {
	return new(LogisticFitter).FitLogistic(x, y, opt)
}

// A LogisticFitter runs one fit after another on one block of scratch,
// grown to the largest fit so far: its first fit is FitLogistic's, and a
// later fit no larger allocates only its model. The zero value is ready to
// use; a fitter is not safe for concurrent use.
type LogisticFitter struct {
	block []float64
	d     fit
}

// FitLogistic is FitLogistic on the fitter's block. The model it returns
// shares nothing with the block.
func (lf *LogisticFitter) FitLogistic(x [][]float64, y []bool, opt LogisticOptions) (*LogisticModel, error) {
	m, _, err := lf.fit(x, y, opt, maxPasses)
	return m, err
}

// fit is FitLogistic with at most limit passes over the rows; it also
// returns the passes the fit took.
func (lf *LogisticFitter) fit(x [][]float64, y []bool, opt LogisticOptions, limit int) (*LogisticModel, int, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, 0, errors.New("ml: bad training data")
	}
	if !(opt.L2 >= 0) || math.IsInf(opt.L2, 1) {
		return nil, 0, fmt.Errorf("ml: L2 penalty %v, want a finite value ≥ 0", opt.L2)
	}
	if opt.L2 == 0 {
		opt.L2 = 1e-4
	}
	scaler, err := FitStandardizer(x)
	if err != nil {
		return nil, 0, err
	}
	d := lf.newFit(x, y, scaler, opt.L2)
	f, passes := d.pass(d.beta, d.g, d.h), 1
	for {
		if err := cholSolve(d.h, d.g, d.step, d.q); err != nil {
			return nil, passes, err
		}
		if max(-slices.Min(d.step), slices.Max(d.step)) < 1e-9 {
			break
		}
		// Halve the step while it lowers the objective by more than
		// rounding: near the optimum the objective's last bits are noise,
		// and a plain "fell" test would halve on it.
		for t := 1.0; ; t /= 2 {
			if passes == limit {
				return nil, passes, fmt.Errorf("ml: logistic fit did not converge in %d passes", limit)
			}
			for j, s := range d.step {
				d.cand[j] = d.beta[j] + float64(t*s)
			}
			fc := d.pass(d.cand, d.gc, d.hc)
			passes++
			if fc >= f-float64(1e-12*math.Abs(f)) {
				f = fc
				d.beta, d.cand, d.g, d.gc, d.h, d.hc = d.cand, d.beta, d.gc, d.g, d.hc, d.h
				break
			}
		}
	}
	for j, s := range d.step {
		d.beta[j] += s
	}
	return &LogisticModel{Intercept: d.beta[0], Coef: slices.Clone(d.beta[1:]), Scaler: scaler}, passes, nil
}

// fit is one fit's rows and iterates, carved from the fitter's block:
// nothing is allocated per pass. The coefficient vectors are (intercept, w).
type fit struct {
	q  int       // 1 + the number of features
	xs []float64 // row i is xs[i*q:][:q]: a 1, then the standardised features
	ts []float64 // the labels as 0 and 1
	l2 float64
	// beta is the current model, g and h its gradient and negated Hessian
	// (lower triangle of a row-major q×q); cand, gc and hc a candidate's.
	// step is the Newton step from beta.
	beta, g, h, cand, gc, hc, step []float64
}

func (lf *LogisticFitter) newFit(x [][]float64, y []bool, sc *Standardizer, l2 float64) *fit {
	rows, q := len(x), len(sc.Mean)+1
	need := rows*q + rows + 2*q*q + 5*q
	if cap(lf.block) < need {
		lf.block = make([]float64, need)
	}
	block := lf.block[:need]
	clear(block)
	d := &lf.d
	*d = fit{q: q, l2: l2}
	carve := func(n int) []float64 {
		s := block[:n:n]
		block = block[n:]
		return s
	}
	d.xs, d.ts = carve(rows*q), carve(rows)
	d.h, d.hc = carve(q*q), carve(q*q)
	d.beta, d.g, d.cand, d.gc, d.step = carve(q), carve(q), carve(q), carve(q), carve(q)
	for i, row := range x {
		r := d.xs[i*q:][:q]
		r[0] = 1
		for j, v := range row {
			r[j+1] = (v - sc.Mean[j]) / sc.Std[j]
		}
		if y[i] {
			d.ts[i] = 1
		}
	}
	return d
}

// pass walks the rows once at the model beta: it returns the objective and
// writes its gradient to g and the lower triangle of its negated Hessian,
// mean σ(z)σ(-z)·x·xᵀ plus the penalty, to h. Rows go in fours, so each
// Hessian cell is loaded and stored once per four rows; the four dot
// products are independent chains. A cell takes its four products as
// (h + pair01) + pair23, the roundings of two pairs in turn, so the sums are
// those of a walk by pairs to the bit. The last n mod 4 rows go by pairs,
// an odd last row paired with itself at zero weight.
func (d *fit) pass(beta, g, h []float64) float64 {
	q, n := d.q, len(d.ts)
	beta, g = beta[:q], g[:q]
	clear(g)
	clear(h)
	ll := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := d.xs[i*q:][:q]
		r1 := d.xs[(i+1)*q:][:q]
		r2 := d.xs[(i+2)*q:][:q]
		r3 := d.xs[(i+3)*q:][:q]
		z0, z1, z2, z3 := 0.0, 0.0, 0.0, 0.0
		for j, b := range beta {
			z0 += float64(b * r0[j])
			z1 += float64(b * r1[j])
			z2 += float64(b * r2[j])
			z3 += float64(b * r3[j])
		}
		l0, e0, w0 := zTerms(z0, d.ts[i])
		l1, e1, w1 := zTerms(z1, d.ts[i+1])
		l2, e2, w2 := zTerms(z2, d.ts[i+2])
		l3, e3, w3 := zTerms(z3, d.ts[i+3])
		ll = (ll + (l0 + l1)) + (l2 + l3)
		for j := range g {
			g[j] = (g[j] + (float64(e0*r0[j]) + float64(e1*r1[j]))) + (float64(e2*r2[j]) + float64(e3*r3[j]))
			u0, u1, u2, u3 := float64(w0*r0[j]), float64(w1*r1[j]), float64(w2*r2[j]), float64(w3*r3[j])
			hj := h[j*q:][:j+1]
			x0, x1, x2, x3 := r0[:len(hj)], r1[:len(hj)], r2[:len(hj)], r3[:len(hj)]
			for k := range hj {
				hj[k] = (hj[k] + (float64(u0*x0[k]) + float64(u1*x1[k]))) + (float64(u2*x2[k]) + float64(u3*x3[k]))
			}
		}
	}
	for ; i < n; i += 2 {
		r0 := d.xs[i*q:][:q]
		l0, e0, w0 := rowTerms(r0, d.ts[i], beta)
		r1, l1, e1, w1 := r0, 0.0, 0.0, 0.0
		if i+1 < n {
			r1 = d.xs[(i+1)*q:][:q]
			l1, e1, w1 = rowTerms(r1, d.ts[i+1], beta)
		}
		ll += l0 + l1
		for j := range g {
			g[j] += float64(e0*r0[j]) + float64(e1*r1[j])
			u0, u1 := float64(w0*r0[j]), float64(w1*r1[j])
			hj := h[j*q:][:j+1]
			x0, x1 := r0[:len(hj)], r1[:len(hj)]
			for k := range hj {
				hj[k] += float64(u0*x0[k]) + float64(u1*x1[k])
			}
		}
	}
	pen := 0.0
	for j := range g {
		for k := range j + 1 {
			h[j*q+k] /= float64(n)
		}
		g[j] /= float64(n)
		if j > 0 { // the intercept is unpenalised
			g[j] -= float64(d.l2 * beta[j])
			h[j*q+j] += d.l2
			pen += float64(beta[j] * beta[j])
		}
	}
	return ll/float64(n) - float64(d.l2/2*pen)
}

// rowTerms returns the log-likelihood of the row r with label t at beta, its
// residual t − σ(z) and its Hessian weight σ(z)σ(-z).
func rowTerms(r []float64, t float64, beta []float64) (ll, e, wt float64) {
	z := 0.0
	for j, v := range r {
		z += float64(beta[j] * v)
	}
	return zTerms(z, t)
}

// zTerms is rowTerms given the row's z = beta·r.
func zTerms(z, t float64) (ll, e, wt float64) {
	a := math.Exp(-math.Abs(z))
	c := 1 + a
	// log σ(z) if t else log σ(-z), through a = e^-|z| in both; the weight
	// a/(1+a)² without 1-σ's cancellation.
	return float64(t*z) - max(z, 0) - math.Log1p(a), t - sigmoidOf(z, a), a / (c * c)
}

// cholSolve solves h·x = g for the symmetric positive definite q×q matrix
// whose lower triangle h holds, overwriting h with its Cholesky factor. A
// feature that is 0 in every row has a zero gradient component and zeros off
// h's diagonal in its row and column, and its component of x comes out
// exactly 0.
func cholSolve(h, g, x []float64, q int) error {
	for j := range q {
		for k := range j + 1 {
			s := h[j*q+k]
			for m := range k {
				s -= float64(h[j*q+m] * h[k*q+m])
			}
			if k < j {
				h[j*q+k] = s / h[k*q+k]
			} else if s > 0 {
				h[j*q+j] = math.Sqrt(s)
			} else {
				return errors.New("ml: logistic fit: Hessian not positive definite")
			}
		}
	}
	for j := range q {
		s := g[j]
		for m := range j {
			s -= float64(h[j*q+m] * x[m])
		}
		x[j] = s / h[j*q+j]
	}
	for j := q - 1; j >= 0; j-- {
		s := x[j]
		for m := j + 1; m < q; m++ {
			s -= float64(h[m*q+j] * x[m])
		}
		x[j] = s / h[j*q+j]
	}
	return nil
}

// sigmoid is 1/(1+e^-z) without overflow.
func sigmoid(z float64) float64 { return sigmoidOf(z, math.Exp(-math.Abs(z))) }

// sigmoidOf is sigmoid(z) given a = exp(-|z|). exp(-|z|) is exactly exp(-z)
// for z ≥ 0 and exp(z) below, so this is 1/(1+exp(-z)) or exp(z)/(1+exp(z))
// to the bit. Unlike sigmoid it is small enough to inline into the fit's
// pass.
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
