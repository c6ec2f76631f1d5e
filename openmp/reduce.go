package openmp

import "math"

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

// treeBuffer allocates a team's tree-reduction buffer: one padded,
// align-aligned stride per thread, so that at or above the cache-line size
// threads never share a line. Teams whose reductions take another method
// (or none: a one-thread team) get nil.
func treeBuffer(o Options, n int) []float64 {
	if n < 2 || o.Reduction.Resolve(n) != ReductionTree {
		return nil
	}
	return AlignedFloat64s(n*padStride(o.AlignAlloc), o.AlignAlloc)
}

func (th *Thread) reduce(local, identity float64, op func(a, b float64) float64) float64 {
	n := th.team.n
	if n == 1 {
		// Special code path: no synchronization needed (§III-6).
		return local
	}
	method := th.team.rt.opts.Reduction.Resolve(n)
	if method == ReductionTree {
		// Pairwise in log2 rounds over the team's buffer.
		buf, stride := th.team.tree, padStride(th.team.rt.opts.AlignAlloc)
		buf[th.id*stride] = local
		th.Barrier()
		for step := 1; step < n; step <<= 1 {
			if th.id%(2*step) == 0 && th.id+step < n {
				a := &buf[th.id*stride]
				*a = op(*a, buf[(th.id+step)*stride])
			}
			th.Barrier()
		}
		out := buf[0]
		th.Barrier() // all threads read before the next reduction writes
		return out
	}
	// Atomic and critical fold into the slot word, which holds bits(acc) XOR
	// bits(identity) so that the zero word a construct starts from reads as
	// the identity.
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
	th.Barrier() // all threads read before the slot is released
	slot.release(n)
	return out
}
