package openmp

import (
	"math"
	"testing"
	"testing/quick"
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
// method.
func TestReduceMaxMin(t *testing.T) {
	for _, m := range []ReductionMethod{ReductionTree, ReductionCritical, ReductionAtomic} {
		rt := testRuntime(t, reduceOpts(4, m))
		var gotMin float64
		rt.Parallel(func(th *Thread) {
			mn := th.ReduceMin(float64(th.ID()*10 - 15)) // -15, -5, 5, 15
			th.Master(func() { gotMin = mn })
		})
		if gotMin != -15 {
			t.Errorf("%s: min = %v, want -15", m, gotMin)
		}
	}
}

func TestReduceRepeatedConstructs(t *testing.T) {
	rt := testRuntime(t, reduceOpts(4, ReductionTree))
	rt.Parallel(func(th *Thread) {
		for round := 1; round <= 20; round++ {
			got := th.ReduceSum(float64(round))
			if want := float64(4 * round); got != want {
				t.Errorf("round %d: sum = %v, want %v", round, got, want)
			}
		}
	})
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
	}
}
