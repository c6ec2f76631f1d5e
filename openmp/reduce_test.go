package openmp

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func reduceOpts(n int, method ReductionMethod) Options {
	o := DefaultOptions()
	o.NumThreads = n
	o.BlocktimeMS = 0
	o.Reduction = method
	return o
}

func TestReduceSumAllMethods(t *testing.T) {
	methods := []ReductionMethod{ReductionDefault, ReductionTree, ReductionCritical, ReductionAtomic}
	for _, m := range methods {
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			rt := testRuntime(t, reduceOpts(n, m))
			var results []float64
			mu := make(chan struct{}, 1)
			mu <- struct{}{}
			rt.Parallel(func(th *Thread) {
				v := th.ReduceSum(float64(th.ID() + 1))
				<-mu
				results = append(results, v)
				mu <- struct{}{}
			})
			want := float64(n*(n+1)) / 2
			if len(results) != n {
				t.Fatalf("%s n=%d: %d results, want %d", m, n, len(results), n)
			}
			for _, r := range results {
				if r != want {
					t.Errorf("%s n=%d: ReduceSum = %v on some thread, want %v", m, n, r, want)
				}
			}
		}
	}
}

// TestReduceMaxMin checks the non-additive combiner, ReduceMin, under every
// method, and both combiners on identity edge inputs, to the bit: atomic and
// critical reductions fold into a slot word that starts as the identity, so
// they must match a serial fold seeded with it. The tree combines the threads'
// values alone, so a sum of −0.0s stays −0.0 there.
func TestReduceMaxMin(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name     string
		min      bool // ReduceMin, else ReduceSum
		identity float64
		in       [4]float64
	}{
		{"min", true, inf, [4]float64{-15, -5, 5, 15}},
		{"min of +Inf", true, inf, [4]float64{inf, inf, inf, inf}},
		{"sum of -0", false, 0, [4]float64{negZero, negZero, negZero, negZero}},
	}
	for _, m := range []ReductionMethod{ReductionTree, ReductionCritical, ReductionAtomic} {
		rt := testRuntime(t, reduceOpts(4, m))
		for _, c := range cases {
			op := func(a, b float64) float64 { return a + b }
			if c.min {
				op = math.Min
			}
			want := c.identity
			if m == ReductionTree {
				want = c.in[0]
				for _, v := range c.in[1:] {
					want = op(want, v)
				}
			} else {
				for _, v := range c.in {
					want = op(want, v)
				}
			}
			var got float64
			rt.Parallel(func(th *Thread) {
				v := c.in[th.ID()]
				if c.min {
					v = th.ReduceMin(v)
				} else {
					v = th.ReduceSum(v)
				}
				th.Master(func() { got = v })
			})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, %s: got %v (%#x), want %v (%#x)", m, c.name,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestReduceRepeatedConstructs runs each method for more than twice the
// ring's length of rounds in one region, so the atomic and critical
// reductions reuse every slot (and the tree its team buffer) again and again.
func TestReduceRepeatedConstructs(t *testing.T) {
	const rounds = 2*constructRingSize + 20
	for _, m := range []ReductionMethod{ReductionTree, ReductionCritical, ReductionAtomic} {
		rt := testRuntime(t, reduceOpts(4, m))
		rt.Parallel(func(th *Thread) {
			for round := 1; round <= rounds; round++ {
				got := th.ReduceSum(float64(round))
				if want := float64(4 * round); got != want {
					t.Errorf("%s round %d: sum = %v, want %v", m, round, got, want)
				}
			}
		})
	}
}

func TestReduceSingleThreadShortCircuits(t *testing.T) {
	rt := testRuntime(t, reduceOpts(1, ReductionAtomic))
	rt.Parallel(func(th *Thread) {
		if got := th.ReduceSum(42); got != 42 {
			t.Errorf("1-thread ReduceSum = %v, want 42", got)
		}
	})
}

func TestReduceHeuristicMatchesForcedResults(t *testing.T) {
	// The heuristic (critical for 2-4 threads, tree beyond) must agree
	// numerically with every forced method for integer-valued inputs.
	for _, n := range []int{2, 4, 6} {
		want := float64(n * (n - 1) / 2)
		for _, m := range []ReductionMethod{ReductionDefault, ReductionTree, ReductionCritical, ReductionAtomic} {
			rt := testRuntime(t, reduceOpts(n, m))
			var got float64
			rt.Parallel(func(th *Thread) {
				v := th.ReduceSum(float64(th.ID()))
				th.Master(func() { got = v })
			})
			if got != want {
				t.Errorf("n=%d method=%s: %v, want %v", n, m, got, want)
			}
		}
	}
}

func TestReducePropertySumsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	rt := testRuntime(t, reduceOpts(4, ReductionTree))
	f := func(vals [4]int16) bool {
		var got float64
		rt.Parallel(func(th *Thread) {
			v := th.ReduceSum(float64(vals[th.ID()]))
			th.Master(func() { got = v })
		})
		want := 0.0
		for _, v := range vals {
			want += float64(v)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReduceMixedWithLoops(t *testing.T) {
	// A realistic CG-style pattern: worksharing loop accumulating a local
	// partial, then a team reduction.
	rt := testRuntime(t, reduceOpts(4, ReductionTree))
	const n = 1000
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 7)
	}
	var dot float64
	rt.Parallel(func(th *Thread) {
		local := 0.0
		th.ForNowait(n, func(i int) { local += x[i] * x[i] })
		v := th.ReduceSum(local)
		th.Master(func() { dot = v })
	})
	want := 0.0
	for _, v := range x {
		want += v * v
	}
	if math.Abs(dot-want) > 1e-9 {
		t.Errorf("dot = %v, want %v", dot, want)
	}
}

// TestTreeReductionSlotsAreAligned: the team's tree buffer starts on a
// KMP_ALIGN_ALLOC boundary and its per-thread stride spans at least that
// many bytes, so no two threads' slots share an aligned block.
func TestTreeReductionSlotsAreAligned(t *testing.T) {
	for _, align := range []int{64, 128, 256, 512} {
		o := reduceOpts(4, ReductionTree)
		o.AlignAlloc = align
		rt := testRuntime(t, o)
		var got float64
		rt.Parallel(func(th *Thread) {
			v := th.ReduceSum(1)
			th.Master(func() { got = v })
		})
		if got != 4 {
			t.Errorf("align=%d: sum = %v, want 4", align, got)
		}
		if a := Alignment(unsafe.Pointer(&rt.hot.tree[0])); a < align {
			t.Errorf("align=%d: tree buffer is %d-byte aligned", align, a)
		}
		if stride := padStride(align); stride*8 < align {
			t.Errorf("align=%d: stride %d float64s spans fewer bytes", align, stride)
		}
	}
}

// logRoundTree is a frozen copy of the tree reduction as it ran before it
// became one barrier: in round step, each thread id with id%(2*step) == 0
// folds slot id+step into its own slot, then the team passes a barrier; the
// result is slot 0. The rounds are serialized here: within one round the
// folding threads write disjoint slots and read none that another writes.
func logRoundTree(vals []float64, op func(a, b float64) float64) float64 {
	buf := append([]float64(nil), vals...)
	for step := 1; step < len(buf); step <<= 1 {
		for id := 0; id+step < len(buf); id += 2 * step {
			buf[id] = op(buf[id], buf[id+step])
		}
	}
	return buf[0]
}

// TestReduceTreeMatchesLogRounds holds every thread's tree reduction to the
// log-round oracle, bit for bit. The sums are 2^53 and then ones: a left fold
// drops every one (each 2^53 + 1 ties to even), while the pairwise order adds
// them in pairs first, so from n = 4 the two orders differ and the oracle
// pins the pairwise one. The minima cover both signed zeros and infinities.
func TestReduceTreeMatchesLogRounds(t *testing.T) {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	const maxN = 13
	sums := make([]float64, maxN)
	for i := range sums {
		sums[i] = 1
	}
	sums[0] = 1 << 53
	zeros := []float64{inf, 0, negZero, 0, inf, 3, negZero, 0, inf, 0, 2.5, negZero, 0}
	infs := []float64{inf, 4, inf, -inf, 0, negZero, inf, -2, -inf, inf, 1, 0, negZero}
	add := func(a, b float64) float64 { return a + b }
	cases := []struct {
		name string
		min  bool
		vals []float64
	}{
		{"sum", false, sums},
		{"min of signed zeros", true, zeros},
		{"min of infinities", true, infs},
	}
	for _, n := range []int{2, 3, 4, 5, 7, 8, 13} {
		rt := testRuntime(t, reduceOpts(n, ReductionTree))
		for _, c := range cases {
			vals := c.vals[:n]
			op := add
			if c.min {
				op = math.Min
			}
			want := logRoundTree(vals, op)
			if !c.min && n >= 4 {
				left := vals[0]
				for _, v := range vals[1:] {
					left += v
				}
				if left == want {
					t.Fatalf("n=%d: left fold %v equals the pairwise fold; the sums do not tell the orders apart", n, left)
				}
			}
			got := make([]float64, n)
			rt.Parallel(func(th *Thread) {
				v := vals[th.ID()]
				if c.min {
					got[th.ID()] = th.ReduceMin(v)
				} else {
					got[th.ID()] = th.ReduceSum(v)
				}
			})
			for id, g := range got {
				if math.Float64bits(g) != math.Float64bits(want) {
					t.Errorf("n=%d %s: thread %d got %v (%#x), want %v (%#x)", n, c.name, id,
						g, math.Float64bits(g), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestReduceOneBarrier pins what a reduction costs: one barrier under every
// method, as libomp's __kmpc_reduce/__kmpc_end_reduce pair pays. A region of
// k reductions passes k+1 barriers per thread (the end-of-region one too),
// and each barrier is one BarrierWait observation per team thread.
func TestReduceOneBarrier(t *testing.T) {
	const k = 5
	for _, m := range []ReductionMethod{ReductionTree, ReductionAtomic, ReductionCritical} {
		for _, n := range []int{2, 3, 4} {
			rt := testRuntime(t, reduceOpts(n, m))
			var waits countingObserver
			rt.SetMetrics(&Metrics{BarrierWait: &waits})
			rt.Parallel(func(th *Thread) {
				for r := 0; r < k; r++ {
					th.ReduceSum(1)
				}
			})
			want := uint64(n * (k + 1))
			if got := waitCount(&waits, want); got != want {
				t.Errorf("%s n=%d: %d barrier waits for %d reductions, want %d (%d per thread)",
					m, n, got, k, want, k+1)
			}
			rt.SetMetrics(nil)
		}
	}
}

// TestReduceBufferReuse runs back-to-back reductions with one thread held
// back between them, so its teammates enter the next reduction (and, for the
// tree, write the other half of its buffer) while it is still reading the
// last one. Every thread's value in every round must be that round's: a
// thread reading a half a teammate already overwrote, or a slot already
// zeroed, sees another round's value.
func TestReduceBufferReuse(t *testing.T) {
	const regions, rounds = 20, 6
	for _, m := range []ReductionMethod{ReductionTree, ReductionAtomic, ReductionCritical} {
		for _, n := range []int{2, 3, 4, 5} {
			rt := testRuntime(t, reduceOpts(n, m))
			for reg := 0; reg < regions; reg++ {
				late := reg % n
				rt.Parallel(func(th *Thread) {
					id := float64(th.ID())
					for r := 0; r < rounds; r++ {
						if th.ID() == late {
							for i := 0; i < 20; i++ {
								runtime.Gosched()
							}
						}
						base := float64(100 * (reg*rounds + r))
						var got, want float64
						if r%2 == 0 {
							got, want = th.ReduceSum(base+id), float64(n)*base+float64(n*(n-1)/2)
						} else {
							got, want = th.ReduceMin(base-id), base-float64(n-1)
						}
						if got != want {
							t.Errorf("%s n=%d region %d round %d: thread %d got %v, want %v",
								m, n, reg, r, th.ID(), got, want)
						}
					}
				})
			}
		}
	}
}
