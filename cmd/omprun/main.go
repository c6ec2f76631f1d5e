// Command omprun executes one benchmark application's functional kernel on
// the goroutine-based OpenMP-style runtime, configured exactly as a user
// would configure libomp: through OMP_*/KMP_* environment entries. It
// reports the kernel checksum, wall time, and the runtime activity counters
// (sleeps, wakeups, steals), which make the effect of KMP_LIBRARY and
// KMP_BLOCKTIME directly observable.
//
// Usage:
//
//	omprun -app Nqueens [-scale 1.0] [-set "OMP_NUM_THREADS=4,KMP_LIBRARY=turnaround"]
//	       [-warmup 1] [-reps 4] [-json]
//	       [-adaptive] [-target-cov 0.02] [-target-ci 0] [-min-reps 2] [-max-reps 16]
//	       [-rep-budget 0s]
//	       [-trace out.json] [-trace-summary] [-trace-summary-json] [-trace-buf N]
//	       [-profile] [-profile-json out.json] [-profile-folded out.folded]
//	omprun -list
//
// Real environment variables are honoured too; -set entries override them.
//
// Timing uses the same harness as the measured sweep backend (-backend
// measured in ompsweep): -warmup untimed runs, then -reps timed repetitions
// on the same runtime, so the hot team is reused across repetitions exactly
// like a §IV-C campaign measurement. -json emits the series as one JSON
// object for scripting, including p50/p90/p99 per-rep duration percentiles
// from the monitor's log-linear latency histogram.
//
// -adaptive replaces the fixed -reps count with the variability-targeted
// stopping rule of the measured sweep backend: repetitions continue until
// the running CoV drops under -target-cov and the relative 95% CI half-width
// under -target-ci (whichever targets are set; -adaptive alone defaults to
// -target-cov 0.02), bounded by -min-reps/-max-reps and the optional
// -rep-budget wall-clock budget. The report then carries the stop reason and
// the final noise estimates alongside the timings.
//
// -trace enables the runtime's OMPT-style event tracing for the timed
// repetitions and writes a Chrome trace-event JSON file loadable at
// ui.perfetto.dev (or chrome://tracing). -trace-summary prints the derived
// per-region metrics (barrier wait share, arrival imbalance, steal rate,
// chunk histogram) to stderr; it implies tracing even without an output
// file. -trace-summary-json emits the same summary as one JSON object on
// stderr (durations in integer nanoseconds) for scripted consumers — the
// command's own tests parse it instead of the human table. -trace-buf sizes the
// per-thread event rings, at most trace.MaxBufferSize (2^24) events each; a
// larger size is an error. Every thread of every team is traced, nested
// teams first forked during the timed repetitions included.
//
// -profile enables the streaming per-region efficiency profiler for the
// timed repetitions (warmup runs stay unprofiled) and prints the POP-style
// per-region table — parallel efficiency, load balance, barrier-wait and
// scheduling-overhead shares, steal rate — to stderr. -profile-json writes
// the full report to a file; -profile-folded writes folded stacks
// (region;leaf weight lines) ready for flamegraph.pl or speedscope. Any of
// the three flags enables profiling; tracing and profiling compose.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"omptune/internal/apps"
	"omptune/internal/measure"
	"omptune/internal/numflag"
	"omptune/internal/obs"
	"omptune/openmp"
	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// runReport is the -json output shape.
type runReport struct {
	App         string    `json:"app"`
	Scale       float64   `json:"scale"`
	Runtime     string    `json:"runtime"`
	Warmup      int       `json:"warmup"`
	Reps        int       `json:"reps"`
	RuntimesSec []float64 `json:"runtimes_sec"`
	MeanSec     float64   `json:"mean_sec"`
	MinSec      float64   `json:"min_sec"`
	// Per-rep duration percentiles from the monitor's log-linear histogram
	// (≤ ~6.25% relative error) — stable summary numbers for scripted
	// comparisons across runs with many repetitions.
	P50Sec   float64        `json:"p50_sec"`
	P90Sec   float64        `json:"p90_sec"`
	P99Sec   float64        `json:"p99_sec"`
	Checksum float64        `json:"checksum"`
	Stats    openmp.Stats   `json:"stats"`
	RepStats []openmp.Stats `json:"rep_stats,omitempty"`
	// Series noise provenance: why the series stopped ("fixed" for a plain
	// -reps run), the final coefficient of variation, and the relative 95%
	// CI half-width of the mean.
	StopReason string  `json:"stop_reason,omitempty"`
	CoV        float64 `json:"cov"`
	CIRel      float64 `json:"ci_rel"`
}

func main() {
	numflag.Exit("omprun", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: everything main used to print goes to
// stdout/stderr and every failure comes back as an error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("omprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName   = fs.String("app", "", "application to run (see -list)")
		scale     = numflag.Var(fs, "scale", 1.0, "> 0", "input scale relative to the self-test size")
		setFlag   = fs.String("set", "", "comma-separated KEY=VALUE overrides")
		list      = fs.Bool("list", false, "list the available applications and runtime-only kernels")
		warmup    = numflag.Var(fs, "warmup", 0, ">= 0", "untimed warmup runs before the timed repetitions")
		reps      = numflag.Var(fs, "reps", 1, ">= 1", "timed repetitions (the runtime is reused across them)")
		jsonOut   = fs.Bool("json", false, "emit the measurement series as JSON on stdout")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the timed runs to this file")
		traceSum  = fs.Bool("trace-summary", false, "print derived per-region trace metrics to stderr (implies tracing)")
		traceSumJ = fs.Bool("trace-summary-json", false, "print the trace summary as JSON on stderr (implies tracing)")
		traceBuf  = numflag.Var(fs, "trace-buf", trace.DefaultBufferSize, fmt.Sprintf("in [1, %d]", trace.MaxBufferSize), "per-thread trace ring capacity in events")
		profSum   = fs.Bool("profile", false, "print the per-region efficiency profile to stderr (implies profiling)")
		profJSON  = fs.String("profile-json", "", "write the per-region efficiency profile as JSON to this file")
		profFold  = fs.String("profile-folded", "", "write the profile as folded stacks (flamegraph.pl input) to this file")
		adaptive  = fs.Bool("adaptive", false, "repeat until the noise targets are met instead of a fixed -reps count")
		targetCoV = numflag.Var(fs, "target-cov", 0.0, ">= 0", "adaptive: stop when the running CoV drops under this (0 = off; 0.02 when -adaptive is set with no target)")
		targetCI  = numflag.Var(fs, "target-ci", 0.0, ">= 0", "adaptive: stop when the relative 95% CI half-width drops under this (0 = off)")
		minReps   = numflag.Var(fs, "min-reps", 2, ">= 2", "adaptive: repetitions before the stopping rule may fire")
		maxReps   = numflag.Var(fs, "max-reps", 16, ">= 2", "adaptive: repetition ceiling, at least -min-reps")
		repBudget = numflag.Var(fs, "rep-budget", time.Duration(0), ">= 0", "adaptive: wall-clock budget for the timed series (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxReps < *minReps {
		return fmt.Errorf("-max-reps %d: want >= -min-reps %d", *maxReps, *minReps)
	}

	if *list {
		for _, a := range append(apps.All(), apps.RuntimeOnly()...) {
			style := "thread-count sweep"
			switch {
			case a.Profile == nil:
				style = "runtime only (no model profile, not in the study)"
			case a.VariesInput:
				style = "input-size sweep"
			}
			fmt.Fprintf(stdout, "%-10s %-6s %s\n", a.Name, a.Suite, style)
		}
		return nil
	}
	if *appName == "" {
		fs.Usage()
		return errors.New("-app is required (see -list)")
	}
	app, err := apps.KernelByName(*appName)
	if err != nil {
		return fmt.Errorf("-app: %w", err)
	}
	pol := measure.Adaptive{
		TargetCoV: *targetCoV, TargetCIRel: *targetCI,
		MinReps: *minReps, MaxReps: *maxReps, MaxTime: *repBudget,
	}
	if *adaptive && !pol.Enabled() {
		pol.TargetCoV = 0.02 // bare -adaptive: a sensible default noise target
	}

	environ := append(os.Environ(), splitSetFlag(*setFlag)...)
	opts, err := openmp.OptionsFromEnviron(environ)
	if err != nil {
		return err
	}
	rt, err := openmp.New(opts)
	if err != nil {
		return err
	}
	defer rt.Close()

	if !*jsonOut {
		fmt.Fprintf(stdout, "running %s (scale %.2f) on %s\n", app.Name, *scale, rt)
	}

	tracing := *traceOut != "" || *traceSum || *traceSumJ
	profiling := *profSum || *profJSON != "" || *profFold != ""
	// The instruments attach after the warmup runs, so they cover the timed
	// repetitions only — the same runs the reported times come from.
	var observe func() error
	if tracing || profiling {
		observe = func() error {
			if tracing {
				if err := rt.StartTrace(*traceBuf); err != nil {
					return err
				}
			}
			if profiling {
				return rt.StartProfile()
			}
			return nil
		}
	}
	series, err := measure.RunObserved(rt, app.Kernel, *scale, *warmup, *reps, pol, observe)
	if err != nil {
		return err
	}
	if tracing {
		if err := emitTrace(stderr, rt.StopTrace(), *traceOut, *traceSum, *traceSumJ); err != nil {
			return err
		}
	}
	if profiling {
		if err := emitProfile(stderr, rt.StopProfile(), *profSum, *profJSON, *profFold); err != nil {
			return err
		}
	}

	mean, min := 0.0, series.Runtimes[0]
	hist := obs.NewHistogram()
	for _, t := range series.Runtimes {
		mean += t
		if t < min {
			min = t
		}
		hist.Observe(time.Duration(t * float64(time.Second)))
	}
	mean /= float64(len(series.Runtimes))
	snap := hist.Snapshot()

	if *jsonOut {
		rep := runReport{
			App: app.Name, Scale: *scale, Runtime: rt.String(),
			Warmup: series.Warmup, Reps: len(series.Runtimes),
			RuntimesSec: series.Runtimes, MeanSec: mean, MinSec: min,
			P50Sec:   snap.Quantile(0.50).Seconds(),
			P90Sec:   snap.Quantile(0.90).Seconds(),
			P99Sec:   snap.Quantile(0.99).Seconds(),
			Checksum: series.Checksum, Stats: series.Stats,
			RepStats:   series.RepStats,
			StopReason: series.StopReason, CoV: series.CoV, CIRel: series.CIRel,
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	st := series.Stats
	fmt.Fprintf(stdout, "checksum   %.10g\n", series.Checksum)
	if len(series.Runtimes) == 1 {
		fmt.Fprintf(stdout, "wall time  %s\n", secondsDuration(series.Runtimes[0]))
	} else {
		for i, t := range series.Runtimes {
			fmt.Fprintf(stdout, "rep %-2d     %s\n", i, secondsDuration(t))
		}
		fmt.Fprintf(stdout, "mean       %s (min %s over %d reps, %d warmup)\n",
			secondsDuration(mean), secondsDuration(min), len(series.Runtimes), series.Warmup)
		fmt.Fprintf(stdout, "p50/p90/p99  %s / %s / %s\n",
			snap.Quantile(0.50).Round(time.Microsecond),
			snap.Quantile(0.90).Round(time.Microsecond),
			snap.Quantile(0.99).Round(time.Microsecond))
		fmt.Fprintf(stdout, "noise      cov %.2f%%, 95%% ci ±%.2f%% (stop: %s)\n",
			series.CoV*100, series.CIRel*100, series.StopReason)
	}
	fmt.Fprintf(stdout, "regions    %d\n", st.Regions)
	fmt.Fprintf(stdout, "chunks     %d\n", st.Chunks)
	fmt.Fprintf(stdout, "tasks      %d (stolen %d)\n", st.TasksRun, st.TasksStolen)
	fmt.Fprintf(stdout, "sleeps     %d, wakeups %d\n", st.Sleeps, st.Wakeups)
	return nil
}

// emitProfile renders the per-region efficiency profile: the fixed-width
// table on stderr (like -trace-summary), the full report as JSON, and/or
// folded stacks ready for flamegraph.pl / speedscope.
func emitProfile(stderr io.Writer, rep *profile.Report, table bool, jsonPath, foldedPath string) error {
	if table {
		fmt.Fprint(stderr, rep.String())
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("profile json: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "profile: %d region rows written to %s\n", len(rep.Regions), jsonPath)
	}
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			return err
		}
		if err := rep.WriteFolded(f); err != nil {
			f.Close()
			return fmt.Errorf("profile folded: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "profile: folded stacks written to %s (feed to flamegraph.pl)\n", foldedPath)
	}
	return nil
}

// emitTrace renders the collected trace: a self-validated Chrome JSON file
// when path is set, and the derived per-region summary on stderr when
// summary (text) or summaryJSON is set.
func emitTrace(stderr io.Writer, data trace.Data, path string, summary, summaryJSON bool) error {
	if path != "" {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, data); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		// Validate shape and timestamp monotonicity before the file lands;
		// strict span pairing only holds when no events were dropped.
		if _, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes()), data.Dropped == 0); err != nil {
			return fmt.Errorf("trace self-validation: %w", err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d events written to %s (load at ui.perfetto.dev)\n",
			len(data.Events), path)
		if data.Dropped > 0 {
			fmt.Fprintf(stderr, "trace: %d events dropped (raise -trace-buf)\n", data.Dropped)
		}
	}
	if summary || summaryJSON {
		s := trace.Summarize(data)
		if summary {
			fmt.Fprint(stderr, s.String())
		}
		if summaryJSON {
			if err := s.WriteJSON(stderr); err != nil {
				return fmt.Errorf("trace summary json: %w", err)
			}
		}
	}
	return nil
}

// splitSetFlag splits the -set value into KEY=VALUE entries. Commas are the
// entry separator, but a segment without '=' belongs to the previous entry's
// value — so list-valued variables pass through unquoted:
//
//	-set "OMP_NUM_THREADS=4,2,OMP_MAX_ACTIVE_LEVELS=2"
//
// yields OMP_NUM_THREADS=4,2 and OMP_MAX_ACTIVE_LEVELS=2.
func splitSetFlag(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, seg := range strings.Split(s, ",") {
		if !strings.Contains(seg, "=") && len(out) > 0 {
			out[len(out)-1] += "," + strings.TrimSpace(seg)
			continue
		}
		out = append(out, strings.TrimSpace(seg))
	}
	return out
}

func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
