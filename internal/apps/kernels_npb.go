package apps

import (
	"math"

	"omptune/openmp"
)

// blockDim is NPB BT's block size: the five conserved variables of the
// compressible Navier-Stokes equations (density, three momenta, energy).
const blockDim = 5

// bmat is a dense blockDim x blockDim matrix stored row-major.
type bmat [blockDim * blockDim]float64

// bvec is one block of the solution vector.
type bvec [blockDim]float64

// luSolve solves A x = b in place by Gaussian elimination with partial
// pivoting, overwriting b with x. A is destroyed.
func (a *bmat) luSolve(b *bvec) {
	for col := 0; col < blockDim; col++ {
		piv := col
		for r := col + 1; r < blockDim; r++ {
			if math.Abs(a[r*blockDim+col]) > math.Abs(a[piv*blockDim+col]) {
				piv = r
			}
		}
		if piv != col {
			for c := 0; c < blockDim; c++ {
				a[col*blockDim+c], a[piv*blockDim+c] = a[piv*blockDim+c], a[col*blockDim+c]
			}
			b[col], b[piv] = b[piv], b[col]
		}
		d := a[col*blockDim+col]
		for r := col + 1; r < blockDim; r++ {
			f := a[r*blockDim+col] / d
			for c := col; c < blockDim; c++ {
				a[r*blockDim+c] -= f * a[col*blockDim+c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := blockDim - 1; r >= 0; r-- {
		v := b[r]
		for c := r + 1; c < blockDim; c++ {
			v -= a[r*blockDim+c] * b[c]
		}
		b[r] = v / a[r*blockDim+r]
	}
}

// luSolveMat solves A X = B for a full block, overwriting B with X.
func (a *bmat) luSolveMat(bm *bmat) {
	// Column-by-column via luSolve on copies of A.
	for c := 0; c < blockDim; c++ {
		var rhs bvec
		for r := 0; r < blockDim; r++ {
			rhs[r] = bm[r*blockDim+c]
		}
		ac := *a
		ac.luSolve(&rhs)
		for r := 0; r < blockDim; r++ {
			bm[r*blockDim+c] = rhs[r]
		}
	}
}

// matMul computes dst = x * y.
func matMul(dst, x, y *bmat) {
	for i := 0; i < blockDim; i++ {
		for j := 0; j < blockDim; j++ {
			s := 0.0
			for k := 0; k < blockDim; k++ {
				s += x[i*blockDim+k] * y[k*blockDim+j]
			}
			dst[i*blockDim+j] = s
		}
	}
}

// matVec computes dst = m * v.
func matVec(dst *bvec, m *bmat, v *bvec) {
	for i := 0; i < blockDim; i++ {
		s := 0.0
		for k := 0; k < blockDim; k++ {
			s += m[i*blockDim+k] * v[k]
		}
		dst[i] = s
	}
}

// btBlocks are the coefficient blocks of one position along a line.
type btBlocks struct{ a, b, c bmat }

// btCoefficients builds the diagonally dominant off-diagonal (A, C) and
// diagonal (B) blocks used along every line; position-dependent mixing
// keeps the five variables coupled, like BT's flux Jacobians.
func btCoefficients(pos int) (a, b, c bmat) {
	for i := 0; i < blockDim; i++ {
		for j := 0; j < blockDim; j++ {
			couple := 0.05 * math.Sin(float64(pos+i*3+j))
			a[i*blockDim+j] = couple - 0.02
			c[i*blockDim+j] = -couple - 0.02
			b[i*blockDim+j] = 0.1 * couple
		}
		a[i*blockDim+i] += -0.2
		c[i*blockDim+i] += -0.2
		b[i*blockDim+i] = 2.0 // dominance: |B| >> |A|+|C|
	}
	return
}

// btCoefficientTable is the blocks of positions 0 to n-1.
func btCoefficientTable(n int) []btBlocks {
	t := make([]btBlocks, n)
	for i := range t {
		t[i].a, t[i].b, t[i].c = btCoefficients(i)
	}
	return t
}

// solveBlockLine runs the block-Thomas algorithm on one grid line, whose
// blocks coef holds position by position: forward elimination with per-cell
// 5x5 LU solves, then back substitution. cp is scratch for the eliminated
// upper blocks, one per cell of the line.
func solveBlockLine(line []bvec, coef []btBlocks, cp []bmat) {
	m := len(line)
	// Cell 0.
	b0, c0 := coef[0].b, coef[0].c
	cp[0] = c0
	b0p := b0
	b0p.luSolveMat(&cp[0])
	bb := b0
	bb.luSolve(&line[0])
	for i := 1; i < m; i++ {
		ai, bi, ci := coef[i].a, coef[i].b, coef[i].c
		// w = B_i - A_i * Cp_{i-1}
		var ac bmat
		matMul(&ac, &ai, &cp[i-1])
		w := bi
		for k := range w {
			w[k] -= ac[k]
		}
		// Cp_i = w^{-1} C_i
		cp[i] = ci
		wc := w
		wc.luSolveMat(&cp[i])
		// rhs_i = w^{-1} (rhs_i - A_i rhs_{i-1})
		var av bvec
		matVec(&av, &ai, &line[i-1])
		for k := range line[i] {
			line[i][k] -= av[k]
		}
		wr := w
		wr.luSolve(&line[i])
	}
	for i := m - 2; i >= 0; i-- {
		var cv bvec
		matVec(&cv, &cp[i], &line[i+1])
		for k := range line[i] {
			line[i][k] -= cv[k]
		}
	}
}

// btInputs holds BT's initial grid of 5-component cells.
var btInputs = input[[]bvec]{build: func(scale float64) []bvec {
	n := scaleDim(10, scale, 1.0/3)
	u := make([]bvec, n*n*n)
	for i := range u {
		for c := 0; c < blockDim; c++ {
			u[i][c] = math.Sin(float64((i*blockDim+c)%251) * 0.1)
		}
	}
	return u
}}

// btCoef holds the coefficient blocks along BT's lines, which depend on the
// position alone.
var btCoef = input[[]btBlocks]{build: func(scale float64) []btBlocks { return btCoefficientTable(scaleDim(10, scale, 1.0/3)) }}

// kernelBT is a block-tridiagonal ADI solver with NPB BT's structure:
// alternating-direction implicit sweeps over a 3-D grid of 5-component
// cells, each sweep solving independent 5x5 block-tridiagonal systems
// along one dimension with the block Thomas algorithm, parallelized over
// lines.
func kernelBT(scale float64) func(*openmp.Runtime) float64 {
	n := scaleDim(10, scale, 1.0/3)
	in := btInputs.get(scale)
	coef := btCoef.get(scale)
	u := make([]bvec, len(in))
	idx := func(i, j, k int) int { return (i*n+j)*n + k }
	// Each team thread solves its lines in its own stretch of the call's
	// scratch: the line's n cells and its n eliminated upper blocks.
	var lines []bvec
	var cps []bmat
	// sweep solves the n*n lines along one dimension, parallel over lines;
	// cell(l, i) is the index in u of cell i of line l.
	var cell func(l, i int) int
	sweep := func(th *openmp.Thread) {
		t := th.ID()
		line, cp := lines[t*n:(t+1)*n], cps[t*n:(t+1)*n]
		th.For(n*n, func(l int) {
			for i := range line {
				line[i] = u[cell(l, i)]
			}
			solveBlockLine(line, coef, cp)
			for i := range line {
				u[cell(l, i)] = line[i]
			}
		})
	}
	cellX := func(jk, i int) int { return idx(i, jk/n, jk%n) } // one line per (j,k)
	cellY := func(ik, j int) int { return idx(ik/n, j, ik%n) }
	cellZ := func(ij, k int) int { return ij*n + k } // contiguous lines
	flat := make([]float64, 0, len(u)*blockDim)
	return func(rt *openmp.Runtime) float64 {
		copy(u, in)
		if need := rt.NumThreads() * n; len(lines) < need {
			lines, cps = make([]bvec, need), make([]bmat, need)
		}
		// Each dimension's sweep is its own region, as NPB BT's x_solve,
		// y_solve and z_solve are.
		for step := 0; step < 2; step++ {
			cell = cellX
			rt.Parallel(sweep)
			cell = cellY
			rt.Parallel(sweep)
			cell = cellZ
			rt.Parallel(sweep)
		}
		flat = flat[:0]
		for i := range u {
			flat = append(flat, u[i][:]...)
		}
		return checksum(flat)
	}
}

// cgInputs holds CG's right-hand side.
var cgInputs = input[[]float64]{build: func(scale float64) []float64 {
	n := scaleDim(900, scale, 1.0)
	b := make([]float64, n)
	rng := newLCG(7)
	for i := range b {
		b[i] = rng.float64()
	}
	return b
}}

// kernelCG runs conjugate-gradient iterations on a deterministic sparse
// symmetric positive-definite band matrix, the computation pattern of NPB
// CG: sparse matrix-vector products plus two inner-product reductions per
// iteration.
func kernelCG(scale float64) func(*openmp.Runtime) float64 {
	n := scaleDim(900, scale, 1.0)
	const band = 6
	// A = I*4 + symmetric band with decaying off-diagonals.
	var src, dst, da, db []float64
	product := func(i int) {
		s := 4.0 * src[i]
		for d := 1; d <= band; d++ {
			w := 1.0 / float64(d*d+1)
			if i-d >= 0 {
				s -= w * src[i-d]
			}
			if i+d < n {
				s -= w * src[i+d]
			}
		}
		dst[i] = s
	}
	term := func(i int) float64 { return da[i] * db[i] }
	bvec := cgInputs.get(scale)
	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)
	var alpha, beta float64
	step := func(i int) {
		x[i] += alpha * p[i]
		r[i] -= alpha * q[i]
	}
	direction := func(i int) { p[i] = r[i] + beta*p[i] }
	return func(rt *openmp.Runtime) float64 {
		matvec := func(to, from []float64) {
			dst, src = to, from
			rt.ParallelFor(n, product)
		}
		dot := func(a, b []float64) float64 {
			da, db = a, b
			return rt.ParallelReduceSum(n, term)
		}
		clear(x)
		copy(r, bvec)
		copy(p, bvec)
		rho := dot(r, r)
		for iter := 0; iter < 15; iter++ {
			matvec(q, p)
			alpha = rho / dot(p, q)
			rt.ParallelFor(n, step)
			rhoNew := dot(r, r)
			beta = rhoNew / rho
			rho = rhoNew
			rt.ParallelFor(n, direction)
		}
		return math.Sqrt(rho) + checksum(x)
	}
}

// kernelEP is the NPB embarrassingly-parallel kernel: generate pairs of
// uniform deviates, apply the Marsaglia polar acceptance test, and reduce
// the accepted Gaussian sums and annulus counts across the team.
func kernelEP(scale float64) func(*openmp.Runtime) float64 {
	pairs := scaleDim(60000, scale, 1.0)
	var sx, sy, accepted float64
	region := func(th *openmp.Thread) {
		var lx, ly, lacc float64
		th.ForNowait(pairs, func(i int) {
			rng := newLCG(uint64(i) + 1)
			x := 2*rng.float64() - 1
			y := 2*rng.float64() - 1
			t := x*x + y*y
			if t <= 1 && t > 0 {
				f := math.Sqrt(-2 * math.Log(t) / t)
				lx += x * f
				ly += y * f
				lacc++
			}
		})
		gx := th.ReduceSum(lx)
		gy := th.ReduceSum(ly)
		ga := th.ReduceSum(lacc)
		th.Master(func() { sx, sy, accepted = gx, gy, ga })
	}
	return func(rt *openmp.Runtime) float64 {
		rt.Parallel(region)
		return sx + sy + accepted
	}
}

// ftInputs holds FT's initial field, which the inverse transform must
// reproduce.
var ftInputs = input[[]float64]{build: func(scale float64) []float64 {
	n := 16 // 1 << logn, as kernelFT sizes it
	if scale > 1.5 {
		n = 32
	}
	total := n * n * n
	orig := make([]float64, total)
	for i := range orig {
		orig[i] = math.Cos(float64(i%113) * 0.37)
	}
	return orig
}}

// kernelFT performs a forward and inverse 3-D FFT (radix-2, iterative) with
// the line transforms of each dimension parallelized, like NPB FT's
// pencil decomposition. The checksum includes the round-trip error so a
// broken schedule or reduction shows up numerically.
func kernelFT(scale float64) func(*openmp.Runtime) float64 {
	logn := 4
	if scale > 1.5 {
		logn = 5
	}
	n := 1 << logn
	total := n * n * n
	orig := ftInputs.get(scale)
	re := make([]float64, total)
	im := make([]float64, total)
	fft1d := func(re, im []float64, stride int, inverse bool) {
		m := n
		// Bit-reversal permutation.
		for i, j := 0, 0; i < m; i++ {
			if i < j {
				re[i*stride], re[j*stride] = re[j*stride], re[i*stride]
				im[i*stride], im[j*stride] = im[j*stride], im[i*stride]
			}
			bit := m >> 1
			for ; j&bit != 0; bit >>= 1 {
				j ^= bit
			}
			j ^= bit
		}
		sign := -1.0
		if inverse {
			sign = 1.0
		}
		for length := 2; length <= m; length <<= 1 {
			ang := sign * 2 * math.Pi / float64(length)
			wr, wi := math.Cos(ang), math.Sin(ang)
			for start := 0; start < m; start += length {
				cr, ci := 1.0, 0.0
				for k := 0; k < length/2; k++ {
					i0 := (start + k) * stride
					i1 := (start + k + length/2) * stride
					tr := re[i1]*cr - im[i1]*ci
					ti := re[i1]*ci + im[i1]*cr
					re[i1], im[i1] = re[i0]-tr, im[i0]-ti
					re[i0], im[i0] = re[i0]+tr, im[i0]+ti
					cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
				}
			}
		}
		if inverse {
			inv := 1 / float64(m)
			for i := 0; i < m; i++ {
				re[i*stride] *= inv
				im[i*stride] *= inv
			}
		}
	}
	var inverse bool
	lineZ := func(l int) { fft1d(re[l*n:], im[l*n:], 1, inverse) }
	lineY := func(l int) {
		i, k := l/n, l%n
		off := i*n*n + k
		fft1d(re[off:], im[off:], n, inverse)
	}
	lineX := func(l int) { fft1d(re[l:], im[l:], n*n, inverse) }
	return func(rt *openmp.Runtime) float64 {
		copy(re, orig)
		clear(im)
		pass := func(inv bool) {
			// Transform along z (contiguous), then y, then x.
			inverse = inv
			rt.ParallelFor(n*n, lineZ)
			rt.ParallelFor(n*n, lineY)
			rt.ParallelFor(n*n, lineX)
		}
		pass(false)
		spectral := checksum(re[:n*n])
		pass(true)
		maxErr := 0.0
		for i := range re {
			if e := math.Abs(re[i] - orig[i]); e > maxErr {
				maxErr = e
			}
		}
		return spectral + maxErr
	}
}

// luInputs holds LU's right-hand side.
var luInputs = input[[]float64]{build: func(scale float64) []float64 {
	n := scaleDim(96, scale, 0.5)
	rhs := make([]float64, n*n)
	rng := newLCG(11)
	for i := range rhs {
		rhs[i] = rng.float64()
	}
	return rhs
}}

// kernelLU performs SSOR-style forward and backward relaxation sweeps over
// a 2-D grid (NPB LU's computation pattern), parallelized over rows within
// each wavefront-free Jacobi-style sweep.
func kernelLU(scale float64) func(*openmp.Runtime) float64 {
	n := scaleDim(96, scale, 0.5)
	rhs := luInputs.get(scale)
	u := make([]float64, n*n)
	const omega = 1.2
	next := make([]float64, n*n)
	// Forward (lower-triangular flavoured) relaxation: cross-row terms
	// read the previous sweep's values so rows are independent; in-row
	// terms use this sweep's values computed by the same thread.
	forward := func(i int) {
		for j := 0; j < n; j++ {
			s := rhs[i*n+j]
			if i > 0 {
				s += 0.25 * u[(i-1)*n+j]
			}
			if j > 0 {
				s += 0.25 * next[i*n+j-1]
			}
			next[i*n+j] = (1-omega)*u[i*n+j] + omega*s/1.5
		}
	}
	// Backward (upper-triangular flavoured) relaxation.
	backward := func(ri int) {
		i := n - 1 - ri
		for j := n - 1; j >= 0; j-- {
			s := rhs[i*n+j]
			if i < n-1 {
				s += 0.25 * u[(i+1)*n+j]
			}
			if j < n-1 {
				s += 0.25 * next[i*n+j+1]
			}
			next[i*n+j] = (1-omega)*u[i*n+j] + omega*s/1.5
		}
	}
	square := func(i int) float64 { return u[i] * u[i] }
	return func(rt *openmp.Runtime) float64 {
		clear(u)
		clear(next)
		for sweep := 0; sweep < 8; sweep++ {
			rt.ParallelFor(n, forward)
			u, next = next, u
			rt.ParallelFor(n, backward)
			u, next = next, u
		}
		norm := rt.ParallelReduceSum(n*n, square)
		return math.Sqrt(norm / float64(n*n))
	}
}

// mgInputs holds MG's right-hand side on the finest grid.
var mgInputs = input[[]float64]{build: func(scale float64) []float64 {
	n := 16 // 1 << logn, as kernelMG sizes it
	if scale > 1.5 {
		n = 32
	}
	f := make([]float64, n*n*n)
	rng := newLCG(13)
	for i := range f {
		f[i] = rng.float64() - 0.5
	}
	return f
}}

// kernelMG runs multigrid V-cycles on a 3-D Poisson problem: parallel
// Jacobi smoothing, residual computation, restriction and prolongation at
// each level — NPB MG's bandwidth-bound stencil pattern.
func kernelMG(scale float64) func(*openmp.Runtime) float64 {
	logn := 4
	if scale > 1.5 {
		logn = 5
	}
	n := 1 << logn
	// A grid holds one level, its smoothing and the bodies of its loops: the
	// residual, the restriction of its residual onto the next coarser level
	// and the prolongation of that level's correction onto this one.
	type grid struct {
		n                           int
		u, f, r, t                  []float64
		smooth                      func(rt *openmp.Runtime)
		residual, restrict, prolong func(i int)
	}
	mk := func(n int, f []float64) *grid {
		return &grid{n: n, u: make([]float64, n*n*n), f: f,
			r: make([]float64, n*n*n), t: make([]float64, n*n*n)}
	}
	// Only the coarser levels' f are written below, so the finest level
	// reads the shared right-hand side in place.
	top := mk(n, mgInputs.get(scale))
	levels := []*grid{top}
	for m := n / 2; m >= 4; m /= 2 {
		levels = append(levels, mk(m, make([]float64, m*m*m)))
	}
	at := func(g *grid, i, j, k int) int { return (i*g.n+j)*g.n + k }
	for l, g := range levels {
		// Jacobi smoothing into a scratch array keeps the stencil
		// deterministic under any schedule or thread count.
		m := g.n
		smoothT := func(ii int) {
			i := ii + 1
			for j := 1; j < m-1; j++ {
				for k := 1; k < m-1; k++ {
					g.t[at(g, i, j, k)] = (g.u[at(g, i-1, j, k)] + g.u[at(g, i+1, j, k)] +
						g.u[at(g, i, j-1, k)] + g.u[at(g, i, j+1, k)] +
						g.u[at(g, i, j, k-1)] + g.u[at(g, i, j, k+1)] +
						g.f[at(g, i, j, k)]) / 6
				}
			}
		}
		smoothU := func(ii int) {
			i := ii + 1
			for j := 1; j < m-1; j++ {
				for k := 1; k < m-1; k++ {
					g.u[at(g, i, j, k)] = g.t[at(g, i, j, k)]
				}
			}
		}
		g.smooth = func(rt *openmp.Runtime) {
			rt.ParallelFor(m-2, smoothT)
			rt.ParallelFor(m-2, smoothU)
		}
		g.residual = func(ii int) {
			i := ii + 1
			for j := 1; j < m-1; j++ {
				for k := 1; k < m-1; k++ {
					g.r[at(g, i, j, k)] = g.f[at(g, i, j, k)] -
						(6*g.u[at(g, i, j, k)] - g.u[at(g, i-1, j, k)] - g.u[at(g, i+1, j, k)] -
							g.u[at(g, i, j-1, k)] - g.u[at(g, i, j+1, k)] -
							g.u[at(g, i, j, k-1)] - g.u[at(g, i, j, k+1)])
				}
			}
		}
		if l+1 == len(levels) {
			break
		}
		coarse := levels[l+1]
		cm := coarse.n
		g.restrict = func(i int) {
			for j := 0; j < cm; j++ {
				for k := 0; k < cm; k++ {
					coarse.f[at(coarse, i, j, k)] = g.r[at(g, min2(2*i, g.n-1), min2(2*j, g.n-1), min2(2*k, g.n-1))]
					coarse.u[at(coarse, i, j, k)] = 0
				}
			}
		}
		g.prolong = func(i int) {
			for j := 0; j < g.n; j++ {
				for k := 0; k < g.n; k++ {
					g.u[at(g, i, j, k)] += coarse.u[at(coarse, min2(i/2, coarse.n-1), min2(j/2, coarse.n-1), min2(k/2, coarse.n-1))]
				}
			}
		}
	}
	square := func(i int) float64 { return top.r[i] * top.r[i] }
	return func(rt *openmp.Runtime) float64 {
		for l, g := range levels {
			clear(g.u)
			clear(g.r)
			clear(g.t)
			if l > 0 {
				clear(g.f)
			}
		}
		residual := func(g *grid) { rt.ParallelFor(g.n-2, g.residual) }
		for cycle := 0; cycle < 2; cycle++ {
			for l := 0; l < len(levels)-1; l++ {
				g := levels[l]
				g.smooth(rt)
				residual(g)
				rt.ParallelFor(levels[l+1].n, g.restrict)
			}
			levels[len(levels)-1].smooth(rt)
			for l := len(levels) - 1; l > 0; l-- {
				g := levels[l-1]
				rt.ParallelFor(g.n, g.prolong)
				g.smooth(rt)
			}
		}
		residual(top)
		norm := rt.ParallelReduceSum(len(top.r), square)
		return math.Sqrt(norm / float64(len(top.r)))
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
