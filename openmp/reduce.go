package openmp

import (
	"math"
	"sync"
	"sync/atomic"
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

// atomicCell is a CAS-combined accumulator, the "atomic" reduction method.
type atomicCell struct {
	bits atomic.Uint64
}

func (c *atomicCell) fold(v float64, op func(a, b float64) float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(op(math.Float64frombits(old), v))
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// critCell is a lock-combined accumulator, the "critical" reduction method.
type critCell struct {
	mu  sync.Mutex
	val float64
}

// treeCell holds padded per-thread slots combined pairwise in log2 rounds,
// the "tree" reduction method. The slot stride honours KMP_ALIGN_ALLOC so
// that, at or above the cache-line size, threads never share a line.
type treeCell struct {
	slots  []float64
	stride int
}

func (th *Thread) reduce(local, identity float64, op func(a, b float64) float64) float64 {
	n := th.team.n
	method := th.team.rt.opts.effectiveReduction(n)
	if n == 1 {
		// Special code path: no synchronization needed (§III-6).
		th.nextSeq()
		return local
	}
	seq := th.nextSeq()
	switch method {
	case ReductionAtomic:
		st, h := th.team.instance(seq, func() any {
			c := new(atomicCell)
			c.bits.Store(math.Float64bits(identity))
			return c
		})
		cell := st.(*atomicCell)
		cell.fold(local, op)
		th.Barrier()
		out := math.Float64frombits(cell.bits.Load())
		th.Barrier() // all threads read before the instance is released
		th.team.release(h, seq)
		return out

	case ReductionCritical:
		st, h := th.team.instance(seq, func() any { return &critCell{val: identity} })
		cell := st.(*critCell)
		cell.mu.Lock()
		cell.val = op(cell.val, local)
		cell.mu.Unlock()
		th.Barrier()
		out := cell.val
		th.Barrier()
		th.team.release(h, seq)
		return out

	default: // ReductionTree
		align := th.team.rt.opts.AlignAlloc
		st, h := th.team.instance(seq, func() any {
			stride := padStride(align)
			return &treeCell{slots: AlignedFloat64s(n*stride, align), stride: stride}
		})
		cell := st.(*treeCell)
		cell.slots[th.id*cell.stride] = local
		th.Barrier()
		for step := 1; step < n; step <<= 1 {
			if th.id%(2*step) == 0 && th.id+step < n {
				a := &cell.slots[th.id*cell.stride]
				*a = op(*a, cell.slots[(th.id+step)*cell.stride])
			}
			th.Barrier()
		}
		out := cell.slots[0]
		th.Barrier()
		th.team.release(h, seq)
		return out
	}
}
