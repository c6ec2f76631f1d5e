package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the driver's arguments.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scratch  string // directory for the CSV, checkpoint and trace files
}

// run carries one benchmark run: the seeded generator, the check counters,
// the metrics recorded so far and, on a traced run, the span recorder.
type run struct {
	opt options
	sz  sizes
	rng *rng
	rec *recorder // nil on an untraced run
	out io.Writer // human-readable report (stdout)
	log io.Writer // check failures and progress (stderr)

	threads   int // T = min(nproc, 2): team size of the openmp workloads
	attempted int
	failed    int
	metrics   map[string]*metric
	pair      []float64 // host.pair_ratio samples
}

// metric is one reported value together with the samples it was taken from.
type metric struct {
	value   float64
	samples []float64
}

// check counts one verified operation; a failure is logged, counted in
// `failed` and turns the exit code non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(r.log, "CHECK FAILED: "+format+"\n", args...)
		}
	}
}

// set records a metric. samples are the per-round values the reported value
// summarises (nil when the value is a single measurement or a count).
func (r *run) set(name string, value float64, samples []float64) {
	if _, dup := r.metrics[name]; dup || !metricNames[name] {
		panic("benchmark: metric set twice or not in the metric tables: " + name)
	}
	if len(samples) == 0 {
		samples = []float64{value}
	}
	r.metrics[name] = &metric{value: value, samples: samples}
}

// endSetup closes the set-up phase: setup_s is process start to the first
// timed operation, which follows this call.
func (r *run) endSetup() {
	r.set("setup_s", time.Since(processStart).Seconds(), nil)
}

// cell runs fn as one timed cell inside a span and returns its wall time
// and the heap allocations it made. The heap is collected first so every
// cell starts from the same GC state; the collection and the two MemStats
// reads sit in their own "quiesce" span, outside the timed interval.
func (r *run) cell(layer, name string, fn func()) (time.Duration, uint64) {
	q := r.rec.begin("benchmark", "quiesce")
	runtime.GC()
	r.rec.end(q)
	before := r.mallocs()
	d := r.timed(layer, name, fn)
	return d, r.mallocs() - before
}

// timed runs fn inside a span and returns its wall time, without touching
// the collector: for cells too short to be worth a collection each.
func (r *run) timed(layer, name string, fn func()) time.Duration {
	id := r.rec.begin(layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.rec.end(id)
	return d
}

// mallocs reads the cumulative count of heap allocations, in a "quiesce"
// span of its own: ReadMemStats stops the world.
func (r *run) mallocs() uint64 {
	q := r.rec.begin("benchmark", "quiesce")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.rec.end(q)
	return ms.Mallocs
}

// ---- host probes -------------------------------------------------------

// spinIters is the fixed length of the pair probe's ALU loop: about 10 ms
// on the box this benchmark was sized on.
const spinIters = 4_600_000

var spinSink uint64

func spin() {
	x := uint64(88172645463325252)
	for i := 0; i < spinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
}

// samplePair records one host.pair_ratio sample: the spin loop on two
// goroutines at once ÷ on one (1.0 = the second vCPU was fully there, 2.0 =
// it was not there at all). It annotates the regime a run saw and never
// corrects a number. Called between timed cells only.
func (r *run) samplePair() {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	t0 := time.Now()
	spin()
	one := time.Since(t0)
	done := make(chan struct{})
	t0 = time.Now()
	go func() { spin(); close(done) }()
	spin()
	<-done
	two := time.Since(t0)
	r.pair = append(r.pair, float64(two)/float64(one))
}

func loadAvg1() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(b))[0]
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// ---- seeded generator --------------------------------------------------

// rng is splitmix64: the benchmark's own generator, so that the inputs a
// seed gives do not depend on the Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

func (g *rng) float() float64 { return float64(g.next()>>11) / (1 << 53) }

// perm returns a seeded permutation of 0..n-1.
func (g *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ---- statistics --------------------------------------------------------

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the driver computes spreads with. Fewer than two values have none.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sumOfCellMedians turns repeated rounds into one time: rounds[i][j] is
// cell j's duration in round i; each cell is reported as its median over
// the rounds and the cells are summed. A burst of host
// noise that hits different cells in different rounds then drops out, where
// the median of whole-round totals would keep it.
func sumOfCellMedians(rounds [][]time.Duration) float64 {
	total := 0.0
	col := make([]float64, len(rounds))
	for j := range rounds[0] {
		for i := range rounds {
			col[i] = rounds[i][j].Seconds()
		}
		total += median(col)
	}
	return total
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// relClose reports |a-b| <= tol*max(|a|,|b|), treating two zeros as equal.
func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
