package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket scheme: log-linear, HDR-histogram style. Durations are
// recorded in integer nanoseconds; each power-of-two octave is split into
// histSubBuckets linear sub-buckets, so the recorded value of any
// observation is known to within 1/histSubBuckets ≈ 6.25% relative error
// while the whole int64 nanosecond range (1 ns to ~292 years) fits in 960
// fixed buckets. Values below histSubBuckets ns are exact (bucket width 1).
//
// Index math: v < S maps to bucket v; otherwise, with e = floor(log2 v),
// bucket = (e-b)·S + (v >> (e-b)), where S = 2^b. The scaled value
// v >> (e-b) lies in [S, 2S), so consecutive octaves tile the index space
// contiguously and bucket bounds land exactly on octave boundaries — which
// is what lets the Prometheus encoder emit power-of-two `le` bounds with
// exact cumulative counts.
const (
	histSubBucketBits = 4
	histSubBuckets    = 1 << histSubBucketBits // 16 linear sub-buckets per octave
	// histBuckets covers every non-negative int64: the top value
	// (1<<62 ≤ v ≤ MaxInt64) lands in bucket histBuckets-1.
	histBuckets = (63 - histSubBucketBits + 1) * histSubBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v) ≥ histSubBucketBits
	shift := e - histSubBucketBits
	return shift*histSubBuckets + int(v>>uint(shift))
}

// bucketBounds returns the value range [lo, hi) covered by bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i) + 1
	}
	g := i/histSubBuckets - 1        // octave group: width 2^g
	u := int64(i - g*histSubBuckets) // scaled value in [S, 2S)
	return u << uint(g), (u + 1) << uint(g)
}

// Histogram is a latency distribution with allocation-free, lock-free
// Observe: one bucket-index computation and three atomic adds. It is safe
// for any number of concurrent observers; snapshots may be taken
// concurrently and are consistent enough for monitoring (counts, sum and
// buckets are read without a global lock, so a snapshot racing an Observe
// can be off by the in-flight observation).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram. Registry.Histogram is the usual
// constructor; standalone histograms (e.g. omprun's per-rep percentiles)
// are fine too.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero. It never
// allocates and never blocks — it is called from the openmp runtime's
// region-dispatch hot path.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram state for quantile extraction or merging.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Counts: make([]uint64, histBuckets),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, queryable for
// quantiles.
type HistogramSnapshot struct {
	Counts []uint64 // len histBuckets
	Count  uint64
	Sum    int64 // nanoseconds
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the recorded
// distribution, interpolated linearly within the containing bucket. The
// result is exact to within one bucket width (≤ ~6.25% relative error).
// An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target rank in [1, Count]: the smallest rank whose cumulative share
	// is ≥ q (the "nearest rank with interpolation" definition).
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			frac := float64(target-cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	// Unreachable when Counts and Count agree; be defensive for merged
	// snapshots built by hand.
	return 0
}

// Mean returns the arithmetic mean of the recorded durations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}
