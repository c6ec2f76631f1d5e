package apps

import (
	"math"
	"sort"

	"omptune/openmp"
)

// xsInput is XSBench's sorted unionized energy grid and its per-nuclide
// cross-section tables.
type xsInput struct {
	grid []float64
	xs   [][]float64
}

// xsNuclides is how many nuclides XSBench's tables hold.
const xsNuclides = 12

var xsInputs = input[xsInput]{build: func(scale float64) xsInput {
	nGrid := scaleDim(6000, scale, 1.0)
	grid := make([]float64, nGrid)
	rng := newLCG(31)
	for i := range grid {
		grid[i] = rng.float64()
	}
	sort.Float64s(grid)
	xs := make([][]float64, xsNuclides)
	for n := range xs {
		xs[n] = make([]float64, nGrid)
		for i := range xs[n] {
			xs[n][i] = rng.float64()
		}
	}
	return xsInput{grid, xs}
}}

// kernelXSBench performs continuous-energy macroscopic cross-section
// lookups: binary search into a unionized energy grid followed by gathers
// from per-nuclide tables — XSBench's random-access, cache-hostile pattern.
func kernelXSBench(scale float64) func(*openmp.Runtime) float64 {
	const lookups = 20000
	in := xsInputs.get(scale)
	grid, xs := in.grid, in.xs
	nGrid := len(grid)
	lookup := func(l int) float64 {
		r := newLCG(uint64(l) * 1099511628211)
		e := r.float64()
		lo, hi := 0, nGrid-1
		for lo < hi {
			mid := (lo + hi) / 2
			if grid[mid] < e {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		macro := 0.0
		for n := 0; n < xsNuclides; n++ {
			macro += xs[n][lo] * (1 + float64(n)*0.01)
		}
		return macro
	}
	return func(rt *openmp.Runtime) float64 { return rt.ParallelReduceSum(lookups, lookup) }
}

// rsInput is RSBench's pole table, real and imaginary parts.
type rsInput struct{ re, im []float64 }

var rsInputs = input[rsInput]{build: func(scale float64) rsInput {
	nPoles := scaleDim(800, scale, 1.0)
	re := make([]float64, nPoles)
	im := make([]float64, nPoles)
	rng := newLCG(37)
	for i := range re {
		re[i] = rng.float64()
		im[i] = 0.01 + rng.float64()*0.1
	}
	return rsInput{re, im}
}}

// kernelRSBench performs multipole resonance cross-section reconstruction:
// for each lookup, evaluate a window of complex poles (heavier arithmetic
// per lookup than XSBench, lighter memory pressure).
func kernelRSBench(scale float64) func(*openmp.Runtime) float64 {
	const lookups, window = 8000, 16
	in := rsInputs.get(scale)
	polesRe, polesIm := in.re, in.im
	nPoles := len(polesRe)
	lookup := func(l int) float64 {
		r := newLCG(uint64(l)*48271 + 1)
		e := r.float64()
		start := r.intn(nPoles - window)
		sigRe, sigIm := 0.0, 0.0
		for p := start; p < start+window; p++ {
			// sigma += 1 / (E - pole) in complex arithmetic.
			dr := e - polesRe[p]
			di := -polesIm[p]
			den := dr*dr + di*di
			sigRe += dr / den
			sigIm += -di / den
		}
		return math.Sqrt(sigRe*sigRe + sigIm*sigIm)
	}
	return func(rt *openmp.Runtime) float64 { return rt.ParallelReduceSum(lookups, lookup) }
}

// su3Input is SU3Bench's two lattices of SU(3) matrices, A and B.
type su3Input struct{ aRe, aIm, bRe, bIm []float64 }

// su3Elems are the complex elements of a 3x3 matrix.
const su3Elems = 9

var su3Inputs = input[su3Input]{build: func(scale float64) su3Input {
	n := scaleDim(4000, scale, 1.0) * su3Elems
	in := su3Input{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	rng := newLCG(41)
	for i := range in.aRe {
		in.aRe[i], in.aIm[i] = rng.float64()-0.5, rng.float64()-0.5
		in.bRe[i], in.bIm[i] = rng.float64()-0.5, rng.float64()-0.5
	}
	return in
}}

// kernelSU3 is the mult_su3_nn kernel: C = A*B over a lattice of 3x3
// complex SU(3) matrices, a perfectly balanced streaming workload. Every
// site writes all of its elements of C.
func kernelSU3(scale float64) func(*openmp.Runtime) float64 {
	in := su3Inputs.get(scale)
	aRe, aIm, bRe, bIm := in.aRe, in.aIm, in.bRe, in.bIm
	sites := len(aRe) / su3Elems
	cRe := make([]float64, len(aRe))
	cIm := make([]float64, len(aRe))
	site := func(s int) {
		base := s * su3Elems
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				sumRe, sumIm := 0.0, 0.0
				for k := 0; k < 3; k++ {
					ar, ai := aRe[base+i*3+k], aIm[base+i*3+k]
					br, bi := bRe[base+k*3+j], bIm[base+k*3+j]
					sumRe += ar*br - ai*bi
					sumIm += ar*bi + ai*br
				}
				cRe[base+i*3+j] = sumRe
				cIm[base+i*3+j] = sumIm
			}
		}
	}
	return func(rt *openmp.Runtime) float64 {
		rt.ParallelFor(sites, site)
		return checksum(cRe) + checksum(cIm)
	}
}

// luleshInputs holds LULESH's initial element energies.
var luleshInputs = input[[]float64]{build: func(scale float64) []float64 { // energy
	n := scaleDim(16, scale, 1.0/3)
	e := make([]float64, n*n*n)
	rng := newLCG(43)
	for i := range e {
		rng.float64() // an initial pressure: the first step overwrites every one unread
		e[i] = 1 + rng.float64()
	}
	return e
}}

// kernelLULESH approximates one coarse pass of explicit shock
// hydrodynamics on a 3-D hex mesh: per-timestep element loops for stress
// and force, a nodal update loop, and a courant-condition minimum
// reduction — LULESH's many-short-regions pattern.
func kernelLULESH(scale float64) func(*openmp.Runtime) float64 {
	in := luleshInputs.get(scale)
	elems := len(in)
	e := make([]float64, elems)
	p := make([]float64, elems)   // pressure
	v := make([]float64, elems)   // relative volume
	vel := make([]float64, elems) // nodal speed proxy
	var dt, newDt float64
	// Element stress and q (artificial viscosity) update.
	stress := func(i int) {
		q := 0.1 * vel[i] * vel[i]
		p[i] = 0.6*e[i]/v[i] + q
	}
	// Nodal force/acceleration/velocity update (neighbour gather).
	force := func(i int) {
		left := i - 1
		if left < 0 {
			left = 0
		}
		f := p[left] - p[i]
		vel[i] += dt * f
	}
	// Element volume and energy update.
	update := func(i int) {
		v[i] = math.Max(0.2, v[i]-dt*vel[i]*0.1)
		e[i] = math.Max(1e-9, e[i]-dt*p[i]*vel[i]*0.05)
	}
	// Courant timestep reduction.
	courant := func(th *openmp.Thread) {
		local := math.Inf(1)
		th.ForNowait(elems, func(i int) {
			c := math.Sqrt(1.4 * p[i] / math.Max(v[i], 1e-9))
			if d := 0.1 / math.Max(c, 1e-9); d < local {
				local = d
			}
		})
		g := th.ReduceMin(local)
		th.Master(func() { newDt = g })
	}
	energy := func(i int) float64 { return e[i] }
	return func(rt *openmp.Runtime) float64 {
		copy(e, in)
		clear(p)
		for i := range v {
			v[i] = 1.0
		}
		clear(vel)
		dt = 1e-3
		energyTrace := 0.0
		for step := 0; step < 12; step++ {
			rt.ParallelFor(elems, stress)
			rt.ParallelFor(elems, force)
			rt.ParallelFor(elems, update)
			rt.Parallel(courant)
			dt = math.Min(1e-3, math.Max(1e-6, newDt))
			energyTrace += e[elems/2]
		}
		total := rt.ParallelReduceSum(elems, energy)
		return total + energyTrace
	}
}
