// Command ompsweep runs the data-collection campaign of §IV and writes the
// resulting tabular dataset as CSV — the reproduction of the study's
// 240,000-sample open dataset.
//
// Usage:
//
//	ompsweep [-arch a64fx,skylake,milan] [-apps CG,Nqueens] [-frac 0.26]
//	         [-backend model|measured] [-measure-reps n] [-measure-warmup n]
//	         [-adaptive-cov 0.02] [-adaptive-ci 0] [-adaptive-min 2]
//	         [-adaptive-max 16] [-adaptive-budget 0s]
//	         [-workers 8] [-checkpoint dir] [-o dataset.csv] [-progress]
//	         [-telemetry run.jsonl] [-heartbeat 30s]
//	         [-serve :8080] [-serve-linger 30s]
//
// Without flags it reproduces the full Table II dataset (~244k samples) on
// stdout. Settings are evaluated on a bounded worker pool (-workers, default
// one per CPU); the output is byte-identical regardless of the worker count.
// With -checkpoint, completed settings are journaled so an interrupted run
// (Ctrl-C finishes in-flight settings first) resumes where it left off when
// rerun with the same flags.
//
// -backend selects the measurement backend. The default, model, evaluates
// the calibrated analytic model and is deterministic. measured executes each
// application's functional kernel on a real openmp runtime built from the
// swept configuration, timing actual repetitions on this host; samples then
// carry "measured" in the CSV source column, and a checkpoint written under
// one backend refuses to resume under the other. Keep -frac tiny for
// measured campaigns — every sample is a real run.
//
// -adaptive-cov / -adaptive-ci enable adaptive measurement on the measured
// backend: instead of a fixed repetition count, each series repeats until
// its running CoV (and/or relative 95% CI half-width) drops under the
// target, within [-adaptive-min, -adaptive-max] repetitions and the optional
// -adaptive-budget per-series wall-clock budget. Quiet configurations stop
// early, noisy ones earn more repetitions, and every sample records its real
// repetition count, final CoV and CI in the CSV's reps/cov/ci provenance
// columns (ompanalyze -variability aggregates them).
//
// -telemetry appends a JSONL event log of the campaign (plan, per-setting
// completion carrying the error of any skipped rows, heartbeats with
// workers-busy and per-arch completion gauges, terminal done/error record) —
// followable with tail -f and jq while the sweep runs. -heartbeat sets the
// heartbeat period (default 30s).
//
// -serve starts the embedded live monitor on the given address while the
// campaign runs: /metrics is a Prometheus scrape endpoint, /api/status
// returns JSON campaign progress, /api/regions and /api/variability the
// measured runtime's region profile and series noise, /healthz answers ok.
// The bound address is printed to stderr (use :0 for an ephemeral port). With the measured backend the runtime's fork-join,
// barrier-wait and task-run latency histograms are included. -serve-linger
// keeps the monitor up after the campaign ends so the final state can still
// be scraped; Ctrl-C cuts the linger short.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/measure"
	"omptune/internal/numflag"
	"omptune/internal/obs"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

func main() {
	// A first Ctrl-C cancels the sweep between settings — in-flight settings
	// finish and checkpoint — a second one kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ompsweep:", err)
		os.Exit(1)
	}
}

// run is the testable command body: flag validation errors come back loud
// instead of os.Exiting, and cancelling ctx interrupts the campaign and cuts
// the -serve-linger short, so the tests can drive whole campaigns in process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ompsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		archList   = fs.String("arch", "", "comma-separated architectures (default: all)")
		appList    = fs.String("apps", "", "comma-separated applications (default: all per arch)")
		frac       = numflag.Var(fs, "frac", 0.0, "in [0, 1]", "fraction of the config space to sample (0 = Table II defaults, 1 = exhaustive)")
		out        = fs.String("o", "-", "output CSV path ('-' = stdout)")
		progress   = fs.Bool("progress", false, "print one line per completed setting to stderr")
		extended   = fs.Bool("extended", false, "include numa_domains places and six thread counts (future-work coverage)")
		shard      = fs.String("shard", "", "K/N: collect only the K-th of N application shards (merge CSVs afterwards)")
		workers    = numflag.Var(fs, "workers", runtime.NumCPU(), ">= 1", "concurrent setting batches")
		checkpoint = fs.String("checkpoint", "", "journal completed settings here; rerun with the same flags to resume")
		backend    = fs.String("backend", "model", "measurement backend: model (analytic, deterministic) or measured (real kernel execution)")
		mreps      = numflag.Var(fs, "measure-reps", sim.Reps, ">= 1", "measured backend: timed repetitions per configuration")
		mwarmup    = numflag.Var(fs, "measure-warmup", 1, ">= 1", "measured backend: untimed warmup runs per configuration")
		adCoV      = numflag.Var(fs, "adaptive-cov", 0.0, ">= 0", "measured backend: adaptive repetition CoV target (0 = fixed reps)")
		adCI       = numflag.Var(fs, "adaptive-ci", 0.0, ">= 0", "measured backend: adaptive relative 95% CI half-width target (0 = off)")
		adMin      = numflag.Var(fs, "adaptive-min", 2, ">= 2", "adaptive: repetitions before the stopping rule may fire")
		adMax      = numflag.Var(fs, "adaptive-max", 16, ">= 2", "adaptive: repetition ceiling, at least -adaptive-min")
		adBudget   = numflag.Var(fs, "adaptive-budget", time.Duration(0), ">= 0", "adaptive: wall-clock budget per series (0 = none)")
		telemetry  = fs.String("telemetry", "", "append a JSONL telemetry stream (plan/setting_done/heartbeat/done) to this file")
		heartbeat  = numflag.Var(fs, "heartbeat", 30*time.Second, "> 0", "telemetry heartbeat period")
		serve      = fs.String("serve", "", "serve the live monitor (/metrics, /api/status, /healthz) on this address, e.g. :8080 or 127.0.0.1:0")
		linger     = numflag.Var(fs, "serve-linger", time.Duration(0), ">= 0", "keep the monitor serving this long after the campaign ends (0 = shut down immediately)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *adMax < *adMin {
		return fmt.Errorf("-adaptive-max %d: want >= -adaptive-min %d", *adMax, *adMin)
	}

	// The monitor exists before the backend so the measured evaluator can be
	// built with the monitor's runtime-latency sinks attached.
	var mon *core.Monitor
	if *serve != "" {
		mon = core.NewMonitor()
	}
	ev, err := core.NewBackend(*backend, measure.Options{
		Warmup: *mwarmup, TimedReps: *mreps,
		Adaptive: measure.Adaptive{
			TargetCoV: *adCoV, TargetCIRel: *adCI,
			MinReps: *adMin, MaxReps: *adMax, MaxTime: *adBudget,
		},
	}, mon)
	if err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	if (*adCoV > 0 || *adCI > 0) && ev == nil {
		return fmt.Errorf("-adaptive-cov/-adaptive-ci need -backend measured (the model is deterministic)")
	}
	opt := core.SweepConfig{
		Workers:           *workers,
		CheckpointDir:     *checkpoint,
		Shard:             *shard,
		TelemetryLog:      *telemetry,
		TelemetryInterval: *heartbeat,
		Context:           ctx,
		Monitor:           mon,
		Backend:           ev,
	}
	if *archList != "" {
		for _, a := range strings.Split(*archList, ",") {
			arch := topology.Arch(strings.TrimSpace(a))
			if _, err := topology.Get(arch); err != nil {
				return fmt.Errorf("-arch: %w", err)
			}
			opt.Arches = append(opt.Arches, arch)
		}
	}
	if *appList != "" {
		for _, a := range strings.Split(*appList, ",") {
			app, err := apps.ByName(strings.TrimSpace(a))
			if err != nil {
				return fmt.Errorf("-apps: %w", err)
			}
			opt.Apps = append(opt.Apps, app.Name)
		}
	}
	if *shard != "" {
		kStr, nStr, ok := strings.Cut(*shard, "/")
		k, err1 := strconv.Atoi(kStr)
		n, err2 := strconv.Atoi(nStr)
		if !ok || err1 != nil || err2 != nil || n < 1 || k < 0 || k >= n {
			return fmt.Errorf("-shard wants K/N with 0 <= K < N, got %q", *shard)
		}
		// Shard by application: stable, disjoint, and merge-safe. The shard
		// spec is recorded in the checkpoint manifest, so resuming a
		// checkpoint dir written under a different -shard is rejected.
		pool := opt.Apps
		if pool == nil {
			for _, a := range apps.All() {
				pool = append(pool, a.Name)
			}
		}
		var mine []string
		for i, name := range pool {
			if i%n == k {
				mine = append(mine, name)
			}
		}
		if len(mine) == 0 {
			return fmt.Errorf("shard %s selects no applications", *shard)
		}
		opt.Apps = mine
	}
	if *frac > 0 {
		opt.Fraction = map[topology.Arch]float64{}
		for _, m := range topology.All() {
			opt.Fraction[m.Arch] = *frac
		}
	}
	if *progress {
		opt.OnProgress = func(ev core.Event) { fmt.Fprintln(stderr, ev.String()) }
	}
	opt.Extended = *extended

	var srv *obs.Server
	if mon != nil {
		srv = mon.Server()
		addr, err := srv.Start(*serve)
		if err != nil {
			return err
		}
		// The address line goes to stderr so a script or test can scrape the
		// bound port even with -serve :0.
		fmt.Fprintf(stderr, "ompsweep: monitor: serving on http://%s\n", addr)
	}

	ds, err := core.RunSweep(opt)
	if srv != nil {
		// The monitor keeps serving the terminal state for -serve-linger.
		srv.Linger(ctx, *linger)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			fmt.Fprintln(stderr, "ompsweep: interrupted; rerun with the same flags to resume from", *checkpoint)
		}
		return err
	}
	fmt.Fprintf(stderr, "ompsweep: collected %d samples\n", ds.Len())

	if *out == "-" {
		return ds.WriteCSV(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := ds.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
