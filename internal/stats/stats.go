// Package stats provides the statistical machinery of §IV-C and the
// figures: descriptive statistics, the Wilcoxon signed-rank test used to
// assess run-to-run consistency (Table III), and violin-plot density
// summaries (Figs. 1, 5–7).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	// Inlined with a power-of-two length, the division is a product.
	return float64(s / float64(len(xs)))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile of the ascending, non-empty sample sorted.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Describe summarizes a sample.
type Description struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
	Q1, Q3           float64
}

// Describe computes the summary statistics of xs. It sorts one copy of xs
// and reads the five quantiles from it.
func Describe(xs []float64) Description {
	d := Description{N: len(xs), Mean: Mean(xs), Std: StdDev(xs)}
	if len(xs) == 0 {
		return d
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d.Min, d.Median, d.Max = quantileSorted(sorted, 0), quantileSorted(sorted, 0.5), quantileSorted(sorted, 1)
	d.Q1, d.Q3 = quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.75)
	return d
}

// WilcoxonResult is the outcome of a Wilcoxon signed-rank test.
type WilcoxonResult struct {
	// Statistic is the sum of ranks of the positive differences (the
	// convention scipy uses with the "wilcox" zero-handling is dropped
	// zeros; we report W+ like the paper's tooling).
	Statistic float64
	// PValue is the two-sided p-value under the large-sample normal
	// approximation with tie and continuity corrections.
	PValue float64
	// N is the number of non-zero differences actually ranked.
	N int
}

// ErrDegenerate is returned when fewer than two non-zero differences exist;
// the runs are then indistinguishable at any significance level.
var ErrDegenerate = errors.New("stats: all paired differences are zero")

// Wilcoxon performs the two-sided Wilcoxon signed-rank test on paired
// observations a[i], b[i] (§IV-C uses it on repeated runtime measurements
// of identical configurations). Zero differences are dropped, tied
// absolute differences share average ranks, and the normal approximation
// includes the tie variance correction — adequate for the thousands of
// pairs per architecture in the study.
func Wilcoxon(a, b []float64) (WilcoxonResult, error) {
	if len(a) != len(b) {
		return WilcoxonResult{}, errors.New("stats: paired samples differ in length")
	}
	type diff struct{ abs, sign float64 }
	ds := make([]diff, 0, len(a))
	for i := range a {
		d := a[i] - b[i]
		if d == 0 {
			continue
		}
		s := 1.0
		if d < 0 {
			s = -1.0
		}
		ds = append(ds, diff{math.Abs(d), s})
	}
	n := len(ds)
	if n < 2 {
		return WilcoxonResult{N: n}, ErrDegenerate
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].abs < ds[j].abs })
	// Average ranks over ties; accumulate tie correction term Σ(t³−t).
	ranks := make([]float64, n)
	tieTerm := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && ds[j].abs == ds[i].abs {
			j++
		}
		avg := float64(i+1+j) / 2 // mean of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		t := float64(j - i)
		tieTerm += float64(t*t*t) - t
		i = j
	}
	wPlus := 0.0
	for i, d := range ds {
		if d.sign > 0 {
			wPlus += ranks[i]
		}
	}
	nf := float64(n)
	mean := float64(nf * (nf + 1) / 4)
	variance := nf*(nf+1)*(2*nf+1)/24 - tieTerm/48
	if variance <= 0 {
		return WilcoxonResult{Statistic: wPlus, N: n}, ErrDegenerate
	}
	// Continuity correction toward the mean.
	z := (wPlus - mean)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(variance)
	p := 2 * normalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return WilcoxonResult{Statistic: wPlus, PValue: p, N: n}, nil
}

// normalSF is the standard normal survival function 1 - Φ(x).
func normalSF(x float64) float64 {
	return float64(0.5 * math.Erfc(x/math.Sqrt2))
}

// Violin summarizes a distribution for violin plotting: a kernel density
// estimate evaluated on a uniform grid plus the quartile marks the paper's
// violins draw.
type Violin struct {
	Grid    []float64 // evaluation points, min..max
	Density []float64 // KDE value at each grid point
	Desc    Description
}

// ViolinOf builds a Gaussian-kernel density summary with Silverman's
// bandwidth over `points` grid points.
func ViolinOf(xs []float64, points int) Violin {
	d := Describe(xs)
	if len(xs) == 0 || points < 2 {
		return Violin{Desc: d}
	}
	// Silverman's rule of thumb; fall back to a small positive width for
	// degenerate samples so the density stays finite.
	iqr := d.Q3 - d.Q1
	sigma := d.Std
	if iqr/1.34 < sigma && iqr > 0 {
		sigma = iqr / 1.34
	}
	h := 0.9 * sigma * math.Pow(float64(len(xs)), -0.2)
	if h <= 0 {
		h = math.Max(1e-9, float64(math.Abs(d.Mean)*0.01)+1e-9)
	}
	v := Violin{Grid: make([]float64, points), Density: make([]float64, points), Desc: d}
	span := d.Max - d.Min
	if span == 0 {
		span = h * 6
	}
	lo := d.Min - float64(0.05*span)
	step := (span * 1.1) / float64(points-1)
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	for i := 0; i < points; i++ {
		g := lo + float64(float64(i)*step)
		v.Grid[i] = g
		dens := 0.0
		for _, x := range xs {
			u := (g - x) / h
			dens += math.Exp(-0.5 * u * u)
		}
		v.Density[i] = dens * norm
	}
	return v
}

// ranks assigns average ranks (1-based) to xs, resolving ties with the
// mid-rank convention, as Spearman's rho requires.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// Spearman returns the Spearman rank correlation coefficient between a and
// b: the Pearson correlation of their rank vectors, with average ranks for
// ties. It is the calibration metric comparing the analytic model against
// measured kernel runtimes — rank agreement is what matters for tuning,
// since the tuner only ever asks "which configuration is faster".
// Returns NaN for fewer than two points or when either input is constant.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	ra, rb := ranks(a), ranks(b)
	ma, mb := Mean(ra), Mean(rb)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va == 0 || vb == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(va*vb)
}
