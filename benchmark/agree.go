package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAgree applies the driver's acceptance rule to the benchmark itself:
// two back-to-back sets of n untraced runs per workload, every run with a
// seed of its own, then per (metric, workload) each set's median and
// IQR ÷ median and how much worse the second median is. A pair passes when
// both spreads are within the metric's bound (setup_s is exempt from the
// spread rule) and the second median is not worse than the first by more
// than the bound. Each run is a fresh process of this binary. With
// --workload only that workload is run.
func runAgree(n int, opt options, stdout, stderr io.Writer) int {
	names := workloadNames
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "omptune-bench:", err)
		return 1
	}
	// values[set][workload][metric] are the n runs' values.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, w := range names {
				seed := opt.seed + uint64(set*n+i)
				metrics, host, err := runOnce(exe, opt, w, seed)
				if err != nil {
					fmt.Fprintf(stderr, "omptune-bench: set %d run %d of %s (seed %d): %v\n", set+1, i+1, w, seed, err)
					return 1
				}
				fmt.Fprintf(stderr, "set %d run %2d %-17s seed %-3d", set+1, i+1, w, seed)
				for _, d := range endToEnd {
					fmt.Fprintf(stderr, " %s=%.6g", d.name, metrics[d.name])
				}
				fmt.Fprintf(stderr, " | %s\n", host)
				if values[set][w] == nil {
					values[set][w] = map[string][]float64{}
				}
				for name, v := range metrics {
					values[set][w][name] = append(values[set][w][name], v)
				}
			}
		}
	}

	fmt.Fprintf(stdout, "| workload | metric | bound | set 1 median | set 1 IQR/med | set 2 median | set 2 IQR/med | set 2 worse by | verdict |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range names {
		for _, d := range endToEnd {
			a, b := values[0][w][d.name], values[1][w][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			ok := worse <= d.bound && (d.name == "setup_s" || (sa <= d.bound && sb <= d.bound))
			verdict := "ok"
			if !ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.2f | %.6g | %.3f | %.6g | %.3f | %+.3f | %s |\n",
				w, d.name, d.bound, ma, sa, mb, sb, worse, verdict)
		}
	}
	fmt.Fprintf(stdout, "\n%d of %d (metric, workload) pairs outside the rule; %d runs per set\n", failed, len(names)*len(endToEnd), n)
	if failed > 0 {
		return 1
	}
	return 0
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// runOnce runs one untraced benchmark process and returns the metrics of
// its result line and its host line.
func runOnce(exe string, opt options, workload string, seed uint64) (map[string]float64, string, error) {
	cmd := exec.Command(exe, "-scratch", opt.scratch, "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(opt.seconds), "--trace", "0")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%w: %s", err, strings.TrimSpace(errOut.String()))
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		return nil, "", fmt.Errorf("result line: %w", err)
	}
	if !result.Correct {
		return nil, "", fmt.Errorf("run reported correct=false")
	}
	metrics := map[string]float64{}
	for name, m := range result.Metrics {
		metrics[name] = m.Value
	}
	host := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "host ") {
			host = l
		}
	}
	return metrics, host, nil
}
