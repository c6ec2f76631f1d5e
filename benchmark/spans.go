package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// boundary. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a pass
	Pass   int    `json:"pass"`   // index of the root span this one belongs to
}

// recorder keeps spans in memory until the run ends. Every workload drives
// the layers from one goroutine, so a stack of open spans is enough; a nil
// recorder (untraced run) records nothing.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	pass  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), pass: -1} }

func (rc *recorder) begin(layer, name string) int {
	if rc == nil {
		return -1
	}
	parent := -1
	if n := len(rc.open); n > 0 {
		parent = rc.open[n-1]
	} else {
		rc.pass++
	}
	rc.spans = append(rc.spans, span{
		Name: name, Layer: layer, Parent: parent, Pass: rc.pass,
		Start: int64(time.Since(rc.t0)), End: -1,
	})
	id := len(rc.spans) - 1
	rc.open = append(rc.open, id)
	return id
}

func (rc *recorder) end(id int) {
	if rc == nil {
		return
	}
	n := len(rc.open)
	if n == 0 || rc.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %d closed out of order", id))
	}
	rc.open = rc.open[:n-1]
	rc.spans[id].End = int64(time.Since(rc.t0))
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus what its children cover.
func (rc *recorder) selfTimes() []int64 {
	self := make([]int64, len(rc.spans))
	for i, s := range rc.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// selfSeconds sums the self time of the spans keep selects.
func (rc *recorder) selfSeconds(keep func(span) bool) float64 {
	self := rc.selfTimes()
	var ns int64
	for i, s := range rc.spans {
		if keep(s) {
			ns += self[i]
		}
	}
	return float64(ns) / 1e9
}

// validate fails the run if a span was left open, or if in some pass (a
// root span named "pass...") the self times of the spans inside it do not
// sum to the pass wall within 1 %: the pass span's own self time is harness
// code between the calls, so this bounds what the trace leaves unattributed.
func (rc *recorder) validate(r *run) {
	r.check(len(rc.open) == 0, "trace: %d spans left open", len(rc.open))
	if len(rc.open) > 0 {
		return
	}
	self := rc.selfTimes()
	for i, s := range rc.spans {
		if s.Parent != -1 || !strings.HasPrefix(s.Name, "pass") {
			continue
		}
		layers := s.dur() - self[i]
		r.check(float64(self[i]) <= 0.01*float64(s.dur()),
			"trace: pass %d (%s): layer self times sum to %d ns of a %d ns wall", s.Pass, s.Name, layers, s.dur())
	}
}

// wallSeconds is the total duration of the root spans.
func (rc *recorder) wallSeconds() float64 {
	var ns int64
	for _, s := range rc.spans {
		if s.Parent == -1 {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// spanCostSeconds measures what one begin/end pair costs, on a scratch
// recorder, for trace_overhead_share.
func spanCostSeconds() float64 {
	const n = 100_000
	rc := newRecorder()
	rc.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rc.end(rc.begin("benchmark", "cost"))
	}
	return time.Since(t0).Seconds() / n
}

// write dumps the spans as JSON under dir.
func (rc *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(rc.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
