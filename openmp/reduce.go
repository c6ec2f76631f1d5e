package openmp

import (
	"math"
	"math/bits"
)

// ReduceSum combines each thread's local value by addition and returns the
// team-wide sum to every thread. Like an OpenMP reduction clause it is a
// collective: every team thread must call it. The combining strategy is the
// configured ReductionMethod (KMP_FORCE_REDUCTION) or, when unset, the
// runtime heuristic.
func (th *Thread) ReduceSum(local float64) float64 {
	return th.reduce(local, 0, func(a, b float64) float64 { return a + b })
}

// ReduceMin combines by minimum.
func (th *Thread) ReduceMin(local float64) float64 {
	return th.reduce(local, math.Inf(1), math.Min)
}

// treeBuffer allocates a team's tree-reduction buffer: two halves of one
// padded, align-aligned stride per thread, so that at or above the
// cache-line size threads never share a line. Teams whose reductions take
// another method (or none: a one-thread team) get nil.
func treeBuffer(o Options, n int) []float64 {
	if n < 2 || o.Reduction.Resolve(n) != ReductionTree {
		return nil
	}
	return AlignedFloat64s(2*n*padStride(o.AlignAlloc), o.AlignAlloc)
}

// reduce costs one barrier under every method, as libomp's __kmpc_reduce
// (gather and combine) and __kmpc_end_reduce (release) do.
func (th *Thread) reduce(local, identity float64, op func(a, b float64) float64) float64 {
	n := th.team.n
	if n == 1 {
		// Special code path: no synchronization needed (§III-6).
		return local
	}
	method := th.team.rt.opts.Reduction.Resolve(n)
	if method == ReductionTree {
		// Each thread publishes its value into the half of the team buffer
		// this reduction owns, passes the barrier, and folds all n values
		// itself in the fixed pairwise order, so every thread gets the same
		// bits. The halves alternate per reduction: a thread two reductions
		// ahead has passed the barrier of the one in between, which no
		// teammate reaches before it is done reading this half.
		stride := padStride(th.team.rt.opts.AlignAlloc)
		off := int(th.reductions&1) * n * stride
		th.reductions++
		buf := th.team.tree[off : off+n*stride]
		buf[th.id*stride] = local
		th.Barrier()
		return treeFold(buf, stride, n, 0, 1<<bits.Len(uint(n-1)), op)
	}
	// Atomic and critical fold into the slot word, which holds bits(acc) XOR
	// bits(identity) so that the zero word a construct starts from reads as
	// the identity. The slot stays claimed until all n threads release it,
	// so each reads the result after the barrier and releases at once.
	slot := th.enter()
	id := math.Float64bits(identity)
	fold := func(w uint64) uint64 {
		return math.Float64bits(op(math.Float64frombits(w^id), local)) ^ id
	}
	if method == ReductionCritical {
		slot.mu.Lock()
		slot.word.Store(fold(slot.word.Load()))
		slot.mu.Unlock()
	} else {
		for old := slot.word.Load(); !slot.word.CompareAndSwap(old, fold(old)); old = slot.word.Load() {
		}
	}
	th.Barrier()
	out := math.Float64frombits(slot.word.Load() ^ id)
	slot.release(n, nil)
	return out
}

// treeFold combines the values of threads [i, i+w) of the n published in
// buf, the right half into the left at every level:
// fold(i, w) = op(fold(i, w/2), fold(i+w/2, w/2)), a half starting at or past
// n being empty. w is a power of two.
func treeFold(buf []float64, stride, n, i, w int, op func(a, b float64) float64) float64 {
	if w == 1 {
		return buf[i*stride]
	}
	w >>= 1
	acc := treeFold(buf, stride, n, i, w, op)
	if i+w >= n {
		return acc
	}
	return op(acc, treeFold(buf, stride, n, i+w, w, op))
}
