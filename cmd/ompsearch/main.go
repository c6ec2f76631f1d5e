// Command ompsearch runs one budgeted search strategy over the
// configuration space — the Searcher-seam alternative to sweeping all of it
// with ompsweep. It picks a strategy, an evaluation/time budget and a
// measurement backend, and prints the best configuration found with its
// speedup over the default.
//
// Usage:
//
//	ompsearch -app Nqueens [-arch a64fx] [-setting LABEL]
//	          [-strategy greedy|restart|anneal|surrogate|random]
//	          [-budget 300] [-max-time 2m] [-seed 1]
//	          [-backend model|measured] [-measure-reps n] [-measure-warmup n]
//	          [-order var1,var2,...] [-json]
//	          [-telemetry search.jsonl] [-serve :8080] [-serve-linger 30s]
//
// -strategy selects the search: greedy is the paper's §VI coordinate
// descent, restart reruns it from random starts, anneal walks the config
// lattice under a cooling temperature, surrogate proposes
// expected-improvement candidates from a regression forest fitted on the
// samples so far, random is the uniform baseline. All strategies share a
// memoizing evaluation cache, so revisited configurations cost lookups, not
// backend evaluations.
//
// -budget caps evaluations (cache hits included); -max-time adds a
// wall-clock cap. -seed makes every stochastic choice reproducible: the same
// seed under the model backend returns an identical result.
//
// -telemetry appends per-evaluation JSONL records (search_plan, one
// search_step per evaluation, search_done or error) to the given file; feed
// it to `ompanalyze -searchreport` together with a sweep CSV to measure what
// fraction of the full sweep's best speedup the search recovered. -serve
// exposes the live monitor (/metrics, /api/status, /healthz) while the
// search runs, exactly like ompsweep -serve — including, with the measured
// backend, the runtime's fork-join, barrier-wait and task-run latency
// histograms.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/numflag"
	"omptune/internal/obs"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ompsearch:", err)
		os.Exit(1)
	}
}

// run is the testable command body: flag validation errors come back loud
// instead of os.Exiting, so the table-driven tests can assert on them.
// Cancelling ctx stops the search at the next evaluation and cuts the
// -serve-linger short.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ompsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		appName  = fs.String("app", "", "application to tune (required, e.g. Nqueens)")
		archName = fs.String("arch", "a64fx", "architecture model to tune on")
		setting  = fs.String("setting", "", "setting label (default: the app's middle setting)")
		strategy = fs.String("strategy", "surrogate", "search strategy: "+strings.Join(core.SearchStrategies(), "|"))
		budget   = numflag.Var(fs, "budget", 300, ">= 1", "evaluation budget (cache hits count)")
		maxTime  = numflag.Var(fs, "max-time", time.Duration(0), ">= 0", "wall-clock budget (0 = evaluations only)")
		seed     = fs.Uint64("seed", 1, "seed for every stochastic choice")
		order    = fs.String("order", "", "comma-separated variable order for the greedy descents (default: canonical)")
		backend  = fs.String("backend", "model", "measurement backend: model (analytic, deterministic) or measured (real kernel execution)")
		mreps    = numflag.Var(fs, "measure-reps", sim.Reps, ">= 1", "measured backend: timed repetitions per configuration")
		mwarmup  = numflag.Var(fs, "measure-warmup", 1, ">= 1", "measured backend: untimed warmup runs per configuration")
		jsonOut  = fs.Bool("json", false, "print the result as JSON instead of text")
		telem    = fs.String("telemetry", "", "append per-evaluation JSONL telemetry to this file")
		serve    = fs.String("serve", "", "serve the live monitor on this address, e.g. :8080 or 127.0.0.1:0")
		linger   = numflag.Var(fs, "serve-linger", time.Duration(0), ">= 0", "keep the monitor serving this long after the search ends (0 = shut down immediately)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	searcher, err := core.NewSearcher(*strategy)
	if err != nil {
		return fmt.Errorf("-strategy: %w", err)
	}
	if *appName == "" {
		return fmt.Errorf("-app is required (e.g. -app Nqueens)")
	}
	app, err := apps.ByName(*appName)
	if err != nil {
		return fmt.Errorf("-app: %w", err)
	}
	m, err := topology.Get(topology.Arch(*archName))
	if err != nil {
		return fmt.Errorf("-arch: %w", err)
	}
	set, err := app.Setting(m, *setting)
	if err != nil {
		return fmt.Errorf("-setting: %w", err)
	}
	varOrder, err := env.ParseNames(*order)
	if err != nil {
		return fmt.Errorf("-order: %w", err)
	}

	var mon *core.Monitor
	if *serve != "" {
		mon = core.NewMonitor()
	}
	ev, err := core.NewBackend(*backend, measure.Options{Warmup: *mwarmup, TimedReps: *mreps}, mon)
	if err != nil {
		return fmt.Errorf("-backend: %w", err)
	}

	var srv *obs.Server
	if mon != nil {
		srv = mon.Server()
		addr, err := srv.Start(*serve)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ompsearch: monitor: serving on http://%s\n", addr)
	}

	res, serr := searcher.Search(ctx, core.SearchSpec{
		Machine: m, App: app, Setting: set, Order: varOrder, Seed: *seed,
		Evaluator:    ev,
		Budget:       core.SearchBudget{MaxEvals: *budget, MaxTime: *maxTime},
		TelemetryLog: *telem,
		Monitor:      mon,
	})
	if srv != nil {
		srv.Linger(ctx, *linger)
	}
	if serr != nil {
		return serr
	}

	if *jsonOut {
		return writeJSON(stdout, m, app, set, *backend, *seed, res)
	}
	fmt.Fprintf(stdout, "search %s on %s@%s (%s, %s backend, seed %d): %.3fs -> %.3fs (%.3fx) in %d evaluations (%d cache hits)\n",
		res.Strategy, app.Name, m.Arch, set.Label, *backend, *seed,
		res.DefaultSeconds, res.BestSeconds, res.Speedup(), res.Evaluations, res.CacheHits)
	for _, st := range res.Trajectory {
		fmt.Fprintf(stdout, "  eval %-5d %-20s = %-14s -> %.3fs (%.3fx)\n",
			st.Eval, st.Variable, st.Value, st.Seconds, st.Speedup)
	}
	fmt.Fprintf(stdout, "  best: %s\n", res.Best)
	return nil
}

// searchJSON is the -json output document.
type searchJSON struct {
	Strategy       string     `json:"strategy"`
	Arch           string     `json:"arch"`
	App            string     `json:"app"`
	Setting        string     `json:"setting"`
	Backend        string     `json:"backend"`
	Seed           uint64     `json:"seed"`
	DefaultSeconds float64    `json:"default_seconds"`
	BestSeconds    float64    `json:"best_seconds"`
	Speedup        float64    `json:"speedup"`
	Evaluations    int        `json:"evaluations"`
	CacheHits      int        `json:"cache_hits"`
	BestConfig     string     `json:"best_config"`
	Trajectory     []stepJSON `json:"trajectory"`
}

type stepJSON struct {
	Eval     int     `json:"eval"`
	Variable string  `json:"variable"`
	Value    string  `json:"value"`
	Config   string  `json:"config"`
	Seconds  float64 `json:"seconds"`
	Speedup  float64 `json:"speedup"`
}

func writeJSON(w io.Writer, m *topology.Machine, app *apps.App, set sim.Setting, backend string, seed uint64, res core.SearchResult) error {
	doc := searchJSON{
		Strategy: res.Strategy, Arch: string(m.Arch), App: app.Name, Setting: set.Label,
		Backend: backend, Seed: seed,
		DefaultSeconds: res.DefaultSeconds, BestSeconds: res.BestSeconds,
		Speedup: res.Speedup(), Evaluations: res.Evaluations, CacheHits: res.CacheHits,
		BestConfig: res.Best.Key(),
	}
	for _, st := range res.Trajectory {
		doc.Trajectory = append(doc.Trajectory, stepJSON{
			Eval: st.Eval, Variable: st.Variable, Value: st.Value,
			Config: st.Config.Key(), Seconds: st.Seconds, Speedup: st.Speedup,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
