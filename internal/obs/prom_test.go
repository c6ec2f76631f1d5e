package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func promString(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func containsLine(s, line string) bool {
	return strings.Contains("\n"+s, "\n"+line)
}

// TestGoldenExposition pins the full text exposition of a small registry:
// family ordering, HELP/TYPE lines, label rendering, and the cumulative
// histogram encoding with exact counts at the power-of-two bounds.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("omptune_eval_seconds", "per-setting evaluation latency")
	h.Observe(100 * time.Microsecond)
	h.Observe(10 * time.Millisecond)
	r.Counter("omptune_samples_total", "samples evaluated", "arch", "a64fx").Add(3)
	r.Counter("omptune_samples_total", "samples evaluated", "arch", "milan").Add(1)
	r.GaugeFunc("omptune_workers", "worker goroutines", func() float64 { return 4 })

	const want = `# HELP omptune_eval_seconds per-setting evaluation latency
# TYPE omptune_eval_seconds histogram
omptune_eval_seconds_bucket{le="6.4e-08"} 0
omptune_eval_seconds_bucket{le="2.56e-07"} 0
omptune_eval_seconds_bucket{le="1.024e-06"} 0
omptune_eval_seconds_bucket{le="4.096e-06"} 0
omptune_eval_seconds_bucket{le="1.6384e-05"} 0
omptune_eval_seconds_bucket{le="6.5536e-05"} 0
omptune_eval_seconds_bucket{le="0.000262144"} 1
omptune_eval_seconds_bucket{le="0.001048576"} 1
omptune_eval_seconds_bucket{le="0.004194304"} 1
omptune_eval_seconds_bucket{le="0.016777216"} 2
omptune_eval_seconds_bucket{le="0.067108864"} 2
omptune_eval_seconds_bucket{le="0.268435456"} 2
omptune_eval_seconds_bucket{le="1.073741824"} 2
omptune_eval_seconds_bucket{le="4.294967296"} 2
omptune_eval_seconds_bucket{le="17.179869184"} 2
omptune_eval_seconds_bucket{le="68.719476736"} 2
omptune_eval_seconds_bucket{le="274.877906944"} 2
omptune_eval_seconds_bucket{le="+Inf"} 2
omptune_eval_seconds_sum 0.0101
omptune_eval_seconds_count 2
# HELP omptune_samples_total samples evaluated
# TYPE omptune_samples_total counter
omptune_samples_total{arch="a64fx"} 3
omptune_samples_total{arch="milan"} 1
# HELP omptune_workers worker goroutines
# TYPE omptune_workers gauge
omptune_workers 4
`
	if got := promString(t, r); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("omptune_esc_total", "line1\nline2 back\\slash", "app", `quo"te\n`).Inc()
	got := promString(t, r)
	if !containsLine(got, `# HELP omptune_esc_total line1\nline2 back\\slash`) {
		t.Errorf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `omptune_esc_total{app="quo\"te\\n"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
}

func TestHistogramCumulativeMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("omptune_mono_seconds", "")
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	var prev uint64
	for _, line := range strings.Split(promString(t, r), "\n") {
		if !strings.HasPrefix(line, "omptune_mono_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("cumulative count decreased: %q after %d", line, prev)
		}
		prev = v
	}
	if prev != 1000 {
		t.Fatalf("+Inf bucket = %d, want 1000", prev)
	}
}
