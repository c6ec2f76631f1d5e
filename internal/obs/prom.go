package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4): the registry renders
// every family as
//
//	# HELP name help
//	# TYPE name counter|gauge|histogram
//	name{label="v",...} value
//
// Families are emitted in name order and instruments in label order, so the
// output is deterministic for a given registry state (the golden test in
// prom_test.go pins the format). Histograms are emitted in the standard
// cumulative form: `le`-labelled buckets, `_sum` and `_count` series, with
// values converted from the internal nanosecond buckets to seconds — the
// Prometheus base unit for time.

// expoLe holds the exposition bucket boundaries in nanoseconds: every
// second power of two from 64 ns to ~4.6 min, a 17-bound ladder that spans
// task-run latencies (tens of ns) up to per-setting evaluation latencies
// (minutes). The fine log-linear buckets align exactly with octave
// boundaries, so cumulative counts at these bounds are exact, not
// approximated.
var expoLe = func() []int64 {
	var out []int64
	for e := 6; e <= 38; e += 2 {
		out = append(out, int64(1)<<uint(e))
	}
	return out
}()

// WritePrometheus renders the registry in Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, fam := range r.sortedFamilies() {
		if fam.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, inst := range fam.sortedInstruments() {
			writeInstrument(bw, fam, inst)
		}
	}
	return bw.Flush()
}

func writeInstrument(w *bufio.Writer, fam *family, inst *instrument) {
	switch fam.typ {
	case typeCounter:
		writeSample(w, fam.name, inst.labels, "", "", formatUint(inst.counter.Value()))
	case typeGauge:
		fam.mu.Lock() // GaugeFunc may be replacing the function
		fn := inst.gaugeFunc
		fam.mu.Unlock()
		writeSample(w, fam.name, inst.labels, "", "", formatFloat(fn()))
	case typeHistogram:
		s := inst.hist.Snapshot()
		var cum uint64
		next := 0 // fine-bucket cursor; fine buckets are cumulative-scanned once
		for _, bound := range expoLe {
			for next < len(s.Counts) {
				_, hi := bucketBounds(next)
				if hi > bound {
					break
				}
				cum += s.Counts[next]
				next++
			}
			le := formatFloat(float64(bound) / 1e9)
			writeSample(w, fam.name+"_bucket", inst.labels, "le", le, formatUint(cum))
		}
		writeSample(w, fam.name+"_bucket", inst.labels, "le", "+Inf", formatUint(s.Count))
		writeSample(w, fam.name+"_sum", inst.labels, "", "", formatFloat(float64(s.Sum)/1e9))
		writeSample(w, fam.name+"_count", inst.labels, "", "", formatUint(s.Count))
	}
}

// writeSample emits one series line, merging an optional extra label (the
// histogram `le`) into the instrument's label set.
func writeSample(w *bufio.Writer, name string, labels []string, extraK, extraV, value string) {
	w.WriteString(name)
	if len(labels) > 0 || extraK != "" {
		w.WriteByte('{')
		sep := false
		for i := 0; i < len(labels); i += 2 {
			if sep {
				w.WriteByte(',')
			}
			sep = true
			fmt.Fprintf(w, "%s=%q", labels[i], labels[i+1])
		}
		if extraK != "" {
			if sep {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%s=%q", extraK, extraV)
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// escapeHelp escapes backslash and newline in HELP text per the format.
// Label values need no helper: Go %q quoting matches the format's
// backslash, quote and newline escaping rules.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// formatFloat renders floats the shortest-round-trip way ('g'), which the
// exposition format accepts.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
