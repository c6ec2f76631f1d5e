// Command omptune-bench is the repository's benchmark: four closed-loop,
// single-process workloads that time calls into the public functions of
// omptune, its internal packages and the openmp runtime from outside, check
// what those calls return, and print every metric by name. README.md in
// this directory defines the metrics and explains the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// processStart approximates process start for setup_s: package variables
// initialise before anything else the program does.
var processStart = time.Now()

// commit is stamped by run.sh (-ldflags -X) for the host line.
var commit = "unknown"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, fullSizes()))
}

func realMain(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("omptune-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag, agree int
	fs.StringVar(&opt.workload, "workload", "", "one of paper_pipeline, search_tune, measured_kernels, runtime_overheads")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the benchmark's input generator")
	fs.IntVar(&opt.seconds, "seconds", 20, "run length; selects pass counts from a fixed table")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&opt.scratch, "scratch", "", "directory for scratch and trace files (run.sh passes the build directory)")
	fs.IntVar(&agree, "agree", 0, "run two back-to-back sets of N runs per workload and apply the driver's acceptance rule")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.scratch == "" {
		fmt.Fprintln(stderr, "omptune-bench: -scratch is required (start the benchmark through run.sh)")
		return 2
	}
	if agree > 0 {
		return runAgree(agree, opt, stdout, stderr)
	}
	workload, ok := workloads[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "omptune-bench: unknown workload %q (valid: %v)\n", opt.workload, workloadNames)
		return 2
	}
	opt.trace = traceFlag != 0

	r := &run{
		opt: opt, sz: sz.forSeconds(opt.seconds, opt.trace), rng: newRNG(opt.seed),
		out: stdout, log: stderr,
		threads: min(runtime.NumCPU(), 2),
		metrics: map[string]*metric{},
	}
	if opt.trace {
		r.rec = newRecorder()
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "omptune-bench:", err)
		return 1
	}
	gomaxprocs, err := workload(r)
	if err != nil {
		fmt.Fprintln(stderr, "omptune-bench:", err)
		return 1
	}
	return r.report(gomaxprocs)
}

// workloads maps a name to its implementation, which returns the
// GOMAXPROCS value it ran under.
var workloads = map[string]func(*run) (int, error){
	"paper_pipeline":    paperPipeline,
	"search_tune":       searchTune,
	"measured_kernels":  measuredKernels,
	"runtime_overheads": runtimeOverheads,
}

// report finishes a run: trace validation and dump, the every-workload
// metrics, the printed table, the host line and the result line.
func (r *run) report(gomaxprocs int) int {
	// End-to-end values always come from untraced runs: a traced run
	// measures them too but reports only the per-layer table.
	defs := endToEnd
	if r.opt.trace {
		defs = perLayer
		r.rec.validate(r)
		path, err := r.rec.write(r.opt.scratch, r.opt.workload, r.opt.seed)
		r.check(err == nil, "trace: writing spans: %v", err)
		wall := r.rec.wallSeconds()
		r.set("trace_overhead_share", float64(len(r.rec.spans))*spanCostSeconds()/wall, nil)
		r.set("process.peak_rss_mb", peakRSSMB(), nil)
		r.set("host.pair_ratio", median(r.pair), r.pair)
		fmt.Fprintf(r.out, "trace %d spans over %.3f s written to %s\n", len(r.rec.spans), wall, path)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}

	fmt.Fprintf(r.out, "%-40s %-6s %14s %14s %14s %14s %4s\n", "metric", "unit", "value", "median", "q1", "q3", "n")
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			// A per-layer metric of a layer this workload leaves idle.
			r.check(r.opt.trace, "metric %s was not measured", d.name)
			m = &metric{samples: []float64{0}}
		}
		finite := !math.IsNaN(m.value) && !math.IsInf(m.value, 0)
		r.check(finite && (r.opt.trace || m.value > 0), "metric %s = %v", d.name, m.value)
		if !finite {
			m.value = 0
		}
		q1, q3 := quartiles(m.samples)
		fmt.Fprintf(r.out, "%-40s %-6s %14.6g %14.6g %14.6g %14.6g %4d\n",
			d.name, d.unit, m.value, median(m.samples), q1, q3, len(m.samples))
		result.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	fmt.Fprintf(r.out, "host nproc=%d gomaxprocs=%d T=%d go=%s load1=%s commit=%s pair_ratio=%.3f\n",
		runtime.NumCPU(), gomaxprocs, r.threads, runtime.Version(), loadAvg1(), commit, median(r.pair))

	result.Attempted, result.Failed = r.attempted, r.failed
	result.Correct = r.failed == 0
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(r.log, "omptune-bench:", err)
		return 1
	}
	fmt.Fprintf(r.out, "%s\n", line)
	if r.failed > 0 {
		return 1
	}
	return 0
}
