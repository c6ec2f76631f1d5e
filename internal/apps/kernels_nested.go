package apps

// Runtime-only kernels: the two this repo adds beyond the paper's fifteen to
// exercise the runtime's nested teams (OMP_NUM_THREADS per-level lists,
// OMP_MAX_ACTIVE_LEVELS, OMP_THREAD_LIMIT). They have no model profile and
// are kept apart from the study's applications (see runtimeOnly).

import (
	"slices"
	"sync/atomic"

	"omptune/openmp"
)

// luNestBlock is the side of LUNest's blocks.
const luNestBlock = 8

// luNestInputs holds LUNest's matrix before factorization.
var luNestInputs = input[[]float64]{build: func(scale float64) []float64 {
	n := scaleDim(6, scale, 0.5) * luNestBlock
	rng := newLCG(41)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.float64() - 0.5
		}
		a[i*n+i] += float64(n) // diagonally dominant: no pivoting needed
	}
	return a
}}

// kernelLUNest is a blocked right-looking LU factorization whose trailing-
// submatrix update is a depth-2 nested region: the outer team workshares
// over row blocks and every thread forks an inner region worksharing the
// rows of its block. Each matrix element is updated by a fixed sequence of
// operations independent of scheduling, so the checksum is deterministic.
func kernelLUNest(rt *openmp.Runtime, scale float64) float64 {
	const block = luNestBlock
	nb := scaleDim(6, scale, 0.5) // blocks per side
	n := nb * block
	a := slices.Clone(luNestInputs.get(scale))
	for k := 0; k < n; k++ {
		piv := a[k*n+k]
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= piv
		}
		rows := n - (k + 1)
		if rows <= 0 {
			continue
		}
		nBlocks := (rows + block - 1) / block
		rt.Parallel(func(th *openmp.Thread) {
			th.For(nBlocks, func(b int) {
				lo := k + 1 + b*block
				hi := lo + block
				if hi > n {
					hi = n
				}
				th.Parallel(func(ith *openmp.Thread) {
					ith.For(hi-lo, func(r int) {
						i := lo + r
						lik := a[i*n+k]
						for j := k + 1; j < n; j++ {
							a[i*n+j] -= lik * a[k*n+j]
						}
					})
				})
			})
		})
	}
	return checksum(a)
}

// kernelTreeNest descends a binary task tree and, at each leaf, forks an
// inner worksharing region — the recursive-tasking-plus-nested-loops shape
// that makes OMP_THREAD_LIMIT and OMP_MAX_ACTIVE_LEVELS bite. The leaf sums
// are integers accumulated atomically, so the result is exact and
// independent of task scheduling and inner-team widths.
func kernelTreeNest(rt *openmp.Runtime, scale float64) float64 {
	depth := 4
	if scale > 1.5 {
		depth = 5
	}
	leafN := scaleDim(256, scale, 1.0)
	var total atomic.Int64
	var rec func(th *openmp.Thread, node uint64, d int)
	rec = func(th *openmp.Thread, node uint64, d int) {
		if d == 0 {
			th.Parallel(func(ith *openmp.Thread) {
				local := int64(0)
				ith.ForNowait(leafN, func(i int) {
					x := node*2862933555777941757 + uint64(i)*3037000493
					x ^= x >> 29
					local += int64(x % 1000)
				})
				total.Add(local) // precedes the inner region's end barrier
			})
			return
		}
		th.Task(func(c *openmp.Thread) { rec(c, node*2+1, d-1) })
		th.Task(func(c *openmp.Thread) { rec(c, node*2+2, d-1) })
		th.TaskWait()
	}
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() { rec(th, 1, depth) })
	})
	return float64(total.Load())
}

// runtimeOnly holds the kernels of this file. They have no model profile and
// are no part of the study: ByName refuses them, and KernelByName finds them
// for a run on the openmp runtime.
var runtimeOnly = []*App{
	{Name: "LUNest", Suite: NPB, VariesInput: true, Kernel: kernelLUNest},
	{Name: "TreeNest", Suite: BOTS, VariesInput: true, Kernel: kernelTreeNest},
}

// RuntimeOnly returns the runtime-only kernels: KernelByName finds them,
// ByName refuses them.
func RuntimeOnly() []*App { return slices.Clone(runtimeOnly) }
