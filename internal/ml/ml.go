// Package ml implements the linear-models analysis of §IV-D:
// L2-regularized logistic regression used as the classification surrogate,
// feature standardization, and the weight-normalized coefficient magnitudes
// that become the influence heatmaps of Figs. 2–4. (The paper's first
// attempt, an ordinary least-squares fit whose poor R² motivated the
// reformulation, is not reproduced.)
package ml

import (
	"errors"
	"math"
)

// Standardizer rescales features to zero mean and unit variance, fitted on
// a training matrix. Constant columns are left centred but unscaled.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-column statistics of X.
func FitStandardizer(x [][]float64) (*Standardizer, error) {
	if len(x) == 0 {
		return nil, errors.New("ml: empty design matrix")
	}
	cols := len(x[0])
	s := &Standardizer{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for _, row := range x {
		if len(row) != cols {
			return nil, errors.New("ml: ragged design matrix")
		}
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
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1 // constant column: centre only
		}
	}
	return s, nil
}

// Apply returns a standardized copy of X.
func (s *Standardizer) Apply(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(row))
		for j, v := range row {
			r[j] = (v - s.Mean[j]) / s.Std[j]
		}
		out[i] = r
	}
	return out
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
	xs := scaler.Apply(x)
	p := len(xs[0])
	n := float64(len(xs))
	w := make([]float64, p)
	b := 0.0
	gw := make([]float64, p)
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i, row := range xs {
			z := b
			for j, v := range row {
				z += w[j] * v
			}
			pr := sigmoid(z)
			t := 0.0
			if y[i] {
				t = 1
			}
			e := t - pr
			gb += e
			for j, v := range row {
				gw[j] += e * v
			}
		}
		b += opt.LR * gb / n
		for j := range w {
			w[j] += opt.LR * (gw[j]/n - opt.L2*w[j])
		}
	}
	return &LogisticModel{Intercept: b, Coef: w, Scaler: scaler}, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
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
