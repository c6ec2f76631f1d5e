package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// The smoke test checks structure only: every named metric present once
// with its unit, finite and (end-to-end) positive, operations counted, the
// last stdout line well-formed JSON, BENCHMARK.json in step with the metric
// tables. It runs reduced sizes and asserts no timing.

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runReduced(t *testing.T, workload string, trace string, sz sizes) (resultLine, int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(stderr.String())
		}
	})
	code := realMain([]string{"-scratch", t.TempDir(), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace},
		&stdout, &stderr, sz)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s: last stdout line is not the result object: %v\n%s\n%s", workload, err, stdout.String(), stderr.String())
	}
	return res, code, stdout.String()
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			res, code, out := runReduced(t, w, mode.trace, reducedSizes())
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, correct=%v, %d of %d operations failed", w, mode.trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%s: %d metrics reported, want %d", w, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w, mode.trace, d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w, d.name, m.Unit, d.unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (mode.trace == "0" && m.Value == 0) {
					t.Errorf("%s: metric %s = %v", w, d.name, m.Value)
				}
				if strings.Count(out, "\n"+d.name+" ") != 1 {
					t.Errorf("%s trace=%s: metric %s printed %d times", w, mode.trace, d.name, strings.Count(out, "\n"+d.name+" "))
				}
			}
			if !strings.Contains(out, "\nhost nproc=") {
				t.Errorf("%s trace=%s: no host line", w, mode.trace)
			}
		}
	}
}

// A wrong pin must fail the run: non-zero exit, failed > 0, correct false.
func TestWrongPinFailsTheRun(t *testing.T) {
	sz := reducedSizes()
	sz.pins = &pinTable{kernelChecksum: map[string]float64{"BT": 42}}
	res, code, _ := runReduced(t, "measured_kernels", "0", sz)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("measured_kernels with a wrong pin: exit %d, correct=%v, failed=%d", code, res.Correct, res.Failed)
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, d)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}
