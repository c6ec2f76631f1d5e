package obs

import (
	"math/rand"
	"testing"
	"time"
)

func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	// Every probed value must land in a bucket whose bounds contain it.
	probe := []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1<<20 - 1, 1 << 20, 1<<62 - 1, 1 << 62, 1<<63 - 1}
	for _, v := range probe {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		if v < lo || (v >= hi && hi > lo) {
			t.Errorf("value %d not in bucket %d bounds [%d, %d)", v, i, lo, hi)
		}
	}
	// Buckets tile the value space: bucket i's hi is bucket i+1's lo.
	for i := 0; i < histBuckets-1; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between buckets %d and %d: hi=%d lo=%d", i, i+1, hi, lo)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// The log-linear scheme promises ≤ 1/16 relative bucket width above the
	// linear range.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		v := rng.Int63()
		lo, hi := bucketBounds(bucketIndex(v))
		if lo >= histSubBuckets {
			width := hi - lo
			if float64(width) > float64(lo)/float64(histSubBuckets)+1 {
				t.Fatalf("bucket [%d,%d) width %d exceeds 1/%d of lo", lo, hi, width, histSubBuckets)
			}
		}
	}
}

func TestQuantileSmall(t *testing.T) {
	h := NewHistogram()
	for _, ms := range []int{1, 2, 3, 4, 100} {
		h.Observe(time.Duration(ms) * time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Count; got != 5 {
		t.Fatalf("count = %d", got)
	}
	// p50 of {1,2,3,4,100}ms is the rank-3 value: 3ms within bucket error.
	p50 := s.Quantile(0.5)
	if p50 < 2800*time.Microsecond || p50 > 3300*time.Microsecond {
		t.Errorf("p50 = %v, want ≈3ms", p50)
	}
	// p99 lands on the 100ms outlier.
	p99 := s.Quantile(0.99)
	if p99 < 90*time.Millisecond || p99 > 110*time.Millisecond {
		t.Errorf("p99 = %v, want ≈100ms", p99)
	}
	if q0 := s.Quantile(0); q0 > 2*time.Millisecond {
		t.Errorf("q0 = %v, want ≈1ms", q0)
	}
	if q1 := s.Quantile(1); q1 < 90*time.Millisecond {
		t.Errorf("q1 = %v, want ≈100ms", q1)
	}
}

// TestQuantileProperty checks, against many random datasets, that every
// histogram quantile is within one bucket's relative error of the exact
// sample quantile.
func TestQuantileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]int64, n)
		h := NewHistogram()
		for i := range vals {
			// Mix magnitudes: ns to minutes.
			v := rng.Int63n(int64(time.Minute))>>uint(rng.Intn(30)) + 1
			vals[i] = v
			h.Observe(time.Duration(v))
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got := int64(s.Quantile(q))
			exact := exactQuantile(vals, q)
			tol := exact/histSubBuckets + 2 // one bucket width + interpolation slack
			if got < exact-tol || got > exact+tol {
				t.Errorf("trial %d n=%d q=%v: got %d, exact %d (tol %d)", trial, n, q, got, exact, tol)
			}
		}
	}
}

// exactQuantile computes the ceil-rank quantile on a copy of vals.
func exactQuantile(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	for i := 1; i < len(s); i++ { // insertion sort; n ≤ 500
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	rank := int(float64(len(s)) * q)
	if float64(rank) < float64(len(s))*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func TestObserveNegativeClampsAndEmpty(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Counts[0] != 1 {
		t.Errorf("negative observation not clamped to 0: %+v", s)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean not 0")
	}
}

// TestObserveZeroAlloc pins the allocation-free Observe contract the openmp
// hot path depends on.
func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); avg != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", avg)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
