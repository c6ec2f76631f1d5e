package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPass is the logistic fit's pass as it was before rows went in fours,
// frozen as the oracle: rows in pairs, each Hessian cell loaded and stored
// once per two rows, an odd last row paired with itself at zero weight.
func refPass(d *fit, beta, g, h []float64) float64 {
	q, n := d.q, len(d.ts)
	beta, g = beta[:q], g[:q]
	clear(g)
	clear(h)
	ll := 0.0
	for i := 0; i < n; i += 2 {
		r0 := d.xs[i*q:][:q]
		l0, e0, w0 := refRowTerms(r0, d.ts[i], beta)
		r1, l1, e1, w1 := r0, 0.0, 0.0, 0.0
		if i+1 < n {
			r1 = d.xs[(i+1)*q:][:q]
			l1, e1, w1 = refRowTerms(r1, d.ts[i+1], beta)
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
		if j > 0 {
			g[j] -= float64(d.l2 * beta[j])
			h[j*q+j] += d.l2
			pen += float64(beta[j] * beta[j])
		}
	}
	return ll/float64(n) - float64(d.l2/2*pen)
}

func refRowTerms(r []float64, t float64, beta []float64) (ll, e, wt float64) {
	z := 0.0
	for j, v := range r {
		z += float64(beta[j] * v)
	}
	a := math.Exp(-math.Abs(z))
	c := 1 + a
	return float64(t*z) - max(z, 0) - math.Log1p(a), t - sigmoidOf(z, a), a / (c * c)
}

// sameBits reports whether a and b hold the same float64s bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPassMatchesPairReference holds the four-row pass to the frozen pair
// pass bit for bit: objective, gradient and Hessian, for every row count
// from 1 to 13 (each n mod 4, with and without the odd row), on seeded
// designs at seeded models.
func TestPassMatchesPairReference(t *testing.T) {
	for n := 1; n <= 13; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			x, y := design(n, seed)
			sc, err := FitStandardizer(x)
			if err != nil {
				t.Fatal(err)
			}
			var lf LogisticFitter
			d := lf.newFit(x, y, sc, 1e-4)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				beta := make([]float64, d.q)
				for j := range beta {
					beta[j] = float64(rng.NormFloat64() * float64(trial+1))
				}
				g, h := make([]float64, d.q), make([]float64, d.q*d.q)
				gr, hr := make([]float64, d.q), make([]float64, d.q*d.q)
				f, fr := d.pass(beta, g, h), refPass(d, beta, gr, hr)
				if math.Float64bits(f) != math.Float64bits(fr) || !sameBits(g, gr) || !sameBits(h, hr) {
					t.Fatalf("n %d seed %d trial %d: pass (%v, %v, %v), pair pass (%v, %v, %v)", n, seed, trial, f, g, h, fr, gr, hr)
				}
			}
		}
	}
}

// A fitter reused across fits of different sizes gives each the model a
// fresh FitLogistic gives, and a later fit leaves an earlier model as it
// was: no model shares the fitter's block.
func TestLogisticFitterReuse(t *testing.T) {
	var lf LogisticFitter
	var models []*LogisticModel
	var want []*LogisticModel
	for _, n := range []int{800, 300, 1200, 301} {
		x, y := design(n, int64(n))
		m, err := lf.FitLogistic(x, y, LogisticOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := FitLogistic(x, y, LogisticOptions{})
		if err != nil {
			t.Fatal(err)
		}
		models, want = append(models, m), append(want, fresh)
	}
	for i, m := range models {
		w := want[i]
		if math.Float64bits(m.Intercept) != math.Float64bits(w.Intercept) || !sameBits(m.Coef, w.Coef) ||
			!sameBits(m.Scaler.Mean, w.Scaler.Mean) || !sameBits(m.Scaler.Std, w.Scaler.Std) {
			t.Errorf("fit %d on a reused fitter: %+v, a fresh fit %+v", i, m, w)
		}
	}
}
