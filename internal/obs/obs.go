// Package obs is the live-observability layer of the study engine: a
// dependency-free metrics registry (atomic counters, scrape-time gauges and
// log-linear latency histograms), a Prometheus text-format exposition
// encoder, and an embedded HTTP monitor that serves /metrics, /healthz and
// the JSON payloads under /api/ while a campaign runs.
//
// The paper's 240k-sample campaigns run for days; Cui et al. (PAPERS.md)
// show that run-to-run variability — not just the median — decides whether
// a tuning verdict is trustworthy. The registry therefore treats latency as
// a distribution, not a mean: Histogram.Observe is allocation-free on the
// hot path (it is called from the openmp runtime's region dispatch), and
// snapshots expose arbitrary quantiles.
//
// Instruments are identified by a metric name plus an optional fixed label
// set, exactly as in the Prometheus data model. Registering the same
// (name, labels) twice returns the same instrument, so independent layers
// can share a registry without coordinating ownership.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// metricType discriminates the exposition TYPE of a family.
type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value (events since process start).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// instrument is one registered metric: an instrument value plus its label
// pairs. Exactly one of the value fields is set, matching the family type.
type instrument struct {
	labels    []string // k1, v1, k2, v2, sorted by key
	labelKey  string   // canonical serialization, the dedup key
	counter   *Counter
	gaugeFunc func() float64
	hist      *Histogram
}

// family is every instrument sharing a metric name (and therefore a type
// and help string).
type family struct {
	name string
	help string
	typ  metricType

	mu    sync.Mutex
	insts map[string]*instrument
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; create one with NewRegistry.
// All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or returns the existing) counter with the given name,
// help text and label pairs (k1, v1, k2, v2, ...). It panics on malformed
// names/labels or if the name is already registered with a different type —
// metric identity mistakes are programmer errors, as in expvar.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	inst := r.register(name, help, typeCounter, labels, func() *instrument {
		return &instrument{counter: &Counter{}}
	})
	return inst.counter
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time
// (for derived values like elapsed seconds). fn must be safe to call
// concurrently with everything else. Re-registering replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	inst := r.register(name, help, typeGauge, labels, func() *instrument {
		return &instrument{gaugeFunc: fn} // never visible without its function
	})
	fam := r.family(name)
	fam.mu.Lock()
	inst.gaugeFunc = fn
	fam.mu.Unlock()
}

// Histogram registers (or returns the existing) latency histogram.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	inst := r.register(name, help, typeHistogram, labels, func() *instrument {
		return &instrument{hist: NewHistogram()}
	})
	return inst.hist
}

func (r *Registry) family(name string) *family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.families[name]
}

// register resolves (name, labels) to its instrument, creating family and
// instrument as needed.
func (r *Registry) register(name, help string, typ metricType, labels []string, mk func() *instrument) *instrument {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	canon, key := canonicalLabels(labels)

	r.mu.Lock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ, insts: make(map[string]*instrument)}
		r.families[name] = fam
	}
	r.mu.Unlock()

	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if inst := fam.insts[key]; inst != nil {
		return inst
	}
	inst := mk()
	inst.labels, inst.labelKey = canon, key
	fam.insts[key] = inst
	return inst
}

// canonicalLabels validates k/v pairs, sorts them by key and returns the
// sorted pairs plus their canonical serialization.
func canonicalLabels(labels []string) ([]string, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q (want k1, v1, k2, v2, ...)", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validLabelName(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	canon := make([]string, 0, len(labels))
	key := ""
	for i, p := range pairs {
		if i > 0 && pairs[i-1].k == p.k {
			panic(fmt.Sprintf("obs: duplicate label name %q", p.k))
		}
		canon = append(canon, p.k, p.v)
		key += p.k + "\x00" + p.v + "\x00"
	}
	return canon, key
}

// validMetricName implements the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName implements [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// sortedFamilies snapshots the family list in name order, for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedInstruments snapshots a family's instruments in label order.
func (f *family) sortedInstruments() []*instrument {
	f.mu.Lock()
	insts := make([]*instrument, 0, len(f.insts))
	for _, in := range f.insts {
		insts = append(insts, in)
	}
	f.mu.Unlock()
	sort.Slice(insts, func(i, j int) bool { return insts[i].labelKey < insts[j].labelKey })
	return insts
}
