package stats

import (
	"errors"
	"math/rand"
)

// SobolResult holds variance-based sensitivity indices for a discrete
// factor space, one pair per input variable.
//
// First[i] (the first-order index S_i) is the fraction of response variance
// explained by variable i alone; Total[i] (the total-order index ST_i) adds
// every interaction involving i. Monte Carlo estimates can stray slightly
// outside [0, 1] — small negative values mean "indistinguishable from
// zero", and callers ranking variables should compare, not clamp.
type SobolResult struct {
	First []float64 // S_i, main-effect share per variable
	Total []float64 // ST_i, main effect + interactions per variable

	Mean     float64 // response mean over the pooled base samples
	Variance float64 // response variance over the pooled base samples
	Evals    int     // response evaluations performed: n × (k + 2)
}

// Sobol estimates first-order and total-order Sobol indices over a discrete
// configuration space with the Saltelli sampling scheme: two independent
// n×k base matrices A and B of uniformly drawn level assignments, plus the
// k column-swapped hybrids AB_i (A with column i taken from B). The
// estimators are Saltelli et al. (2010) for S_i,
//
//	S_i  = (1/n) Σ_j f(B)_j · (f(AB_i)_j − f(A)_j)  /  V
//
// and Jansen (1999) for ST_i,
//
//	ST_i = (1/2n) Σ_j (f(A)_j − f(AB_i)_j)²  /  V
//
// with V the variance of the pooled f(A), f(B) sample — the currently
// recommended pairing for both accuracy and cost.
//
// levels[i] is the domain size of variable i (≥ 1); f maps a full level
// assignment (one index per variable, 0 ≤ idx[i] < levels[i]) to the
// response and must not retain the slice it is handed. n is the number of
// base samples; the run is deterministic for a given seed. A constant
// response (zero variance) yields all-zero indices — the degenerate case,
// not an error.
func Sobol(levels []int, f func(idx []int) float64, n int, seed int64) (SobolResult, error) {
	k := len(levels)
	if k == 0 {
		return SobolResult{}, errors.New("stats: Sobol needs at least one variable")
	}
	for i, l := range levels {
		if l < 1 {
			return SobolResult{}, errors.New("stats: Sobol variable has an empty domain")
		}
		_ = i
	}
	if n < 2 {
		return SobolResult{}, errors.New("stats: Sobol needs at least 2 base samples")
	}

	rng := rand.New(rand.NewSource(seed))
	draw := func() []int {
		row := make([]int, k)
		for i, l := range levels {
			row[i] = rng.Intn(l)
		}
		return row
	}
	a := make([][]int, n)
	b := make([][]int, n)
	for j := 0; j < n; j++ {
		a[j], b[j] = draw(), draw()
	}

	buf := make([]int, k)
	eval := func(row []int) float64 {
		copy(buf, row)
		return f(buf)
	}
	fa := make([]float64, n)
	fb := make([]float64, n)
	for j := 0; j < n; j++ {
		fa[j], fb[j] = eval(a[j]), eval(b[j])
	}

	// Pooled moments over both base matrices.
	mean, m2 := 0.0, 0.0
	for j := 0; j < n; j++ {
		mean += fa[j] + fb[j]
	}
	mean /= float64(2 * n)
	for j := 0; j < n; j++ {
		da, db := fa[j]-mean, fb[j]-mean
		m2 += float64(da*da) + float64(db*db)
	}
	variance := m2 / float64(2*n)

	res := SobolResult{
		First: make([]float64, k),
		Total: make([]float64, k),
		Mean:  mean, Variance: variance,
		Evals: n * (k + 2),
	}
	if variance <= 0 {
		return res, nil // constant response: nothing to attribute
	}

	for i := 0; i < k; i++ {
		var first, total float64
		for j := 0; j < n; j++ {
			copy(buf, a[j])
			buf[i] = b[j][i]
			fab := f(buf)
			first += float64(fb[j] * (fab - fa[j]))
			d := fa[j] - fab
			total += float64(d * d)
		}
		res.First[i] = first / (float64(n) * variance)
		res.Total[i] = total / (2 * float64(n) * variance)
	}
	return res, nil
}
