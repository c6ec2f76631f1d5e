package stats

import "math"

// Welford is a zero-allocation streaming accumulator for mean, variance,
// and derived noise statistics (CoV, confidence-interval half-width). It
// implements Welford's online algorithm, which is numerically stable for
// long series of closely spaced runtimes — the exact shape adaptive
// measurement produces. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations folded in so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running arithmetic mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n-1 denominator; 0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CoV returns the coefficient of variation: sample standard deviation
// divided by the mean (0 for n < 2 or a non-positive mean).
func (w *Welford) CoV() float64 {
	if w.n < 2 || w.mean <= 0 {
		return 0
	}
	return w.StdDev() / w.mean
}

// CIHalfWidth returns the half-width of the two-sided Student-t confidence
// interval for the mean at the given confidence level (e.g. 0.95). It is
// 0 for n < 2, where no interval is defined.
func (w *Welford) CIHalfWidth(confidence float64) float64 {
	if w.n < 2 {
		return 0
	}
	t := TQuantile(0.5+confidence/2, w.n-1)
	return t * w.StdDev() / math.Sqrt(float64(w.n))
}

// CIRel returns the CI half-width relative to the mean — the dimensionless
// precision figure the adaptive stopping rule targets (0 for n < 2 or a
// non-positive mean).
func (w *Welford) CIRel(confidence float64) float64 {
	if w.n < 2 || w.mean <= 0 {
		return 0
	}
	return w.CIHalfWidth(confidence) / w.mean
}

// TQuantile returns the p-th quantile of Student's t distribution with df
// degrees of freedom. df=1 and df=2 use exact closed forms; df >= 3 starts
// from a Cornish-Fisher expansion in the normal quantile and Newton-refines
// against the exact integer-df CDF (Abramowitz & Stegun 26.7.3/4), so the
// result is accurate to near machine precision for every df the adaptive
// loop can produce. Returns NaN for df < 1 or p outside (0, 1).
func TQuantile(p float64, df int) float64 {
	if df < 1 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		d := p - 0.5
		return 2 * d * math.Sqrt(2/(4*p*(1-p)))
	}
	// Cornish-Fisher expansion as the Newton starting point.
	z := math.Sqrt2 * math.Erfinv(2*p-1)
	v := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	t := z +
		(z3+z)/(4*v) +
		(5*z5+16*z3+3*z)/(96*v*v) +
		(3*z7+19*z5+17*z3-15*z)/(384*v*v*v)
	// Newton iterations against the exact CDF; the pdf is the derivative.
	for i := 0; i < 8; i++ {
		diff := tCDF(t, df) - p
		d := tPDF(t, df)
		if d == 0 {
			break
		}
		step := diff / d
		t -= step
		if math.Abs(step) <= 1e-12*(1+math.Abs(t)) {
			break
		}
	}
	return t
}

// tCDF is the exact Student-t CDF for integer df (A&S 26.7.3 for odd df,
// 26.7.4 for even df).
func tCDF(t float64, df int) float64 {
	theta := math.Atan2(t, math.Sqrt(float64(df)))
	sin, cos := math.Sin(theta), math.Cos(theta)
	cos2 := cos * cos
	var a float64
	if df%2 == 1 {
		// A = 2/pi * (theta + sin*(cos + 2/3 cos^3 + ... )).
		sum, term := 0.0, cos
		for j := 3; j <= df-2; j += 2 {
			term *= float64(j-1) / float64(j) * cos2
			sum += term
		}
		if df >= 3 {
			sum += cos
		}
		a = 2 / math.Pi * (theta + sin*sum)
	} else {
		// A = sin*(1 + 1/2 cos^2 + 3/8 cos^4 + ... ).
		sum, term := 1.0, 1.0
		for j := 2; j <= df-2; j += 2 {
			term *= float64(j-1) / float64(j) * cos2
			sum += term
		}
		a = sin * sum
	}
	return 0.5 + a/2
}

// tPDF is the Student-t density for integer df.
func tPDF(t float64, df int) float64 {
	v := float64(df)
	c := math.Gamma((v+1)/2) / (math.Sqrt(v*math.Pi) * math.Gamma(v/2))
	return c * math.Pow(1+t*t/v, -(v+1)/2)
}
