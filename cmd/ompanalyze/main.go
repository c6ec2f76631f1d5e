// Command ompanalyze runs individual analyses from §IV-D/§V over a
// collected dataset: the Wilcoxon consistency test, influence heatmaps,
// recommendation mining, the upshot summary and the worst-trend analysis.
//
// Usage:
//
//	ompanalyze -data dataset.csv [-upshot] [-worst]
//	           [-wilcoxon APP,SETTING] [-heatmap app|arch|apparch]
//	           [-recommend APP] [-tune APP@ARCH] [-backend model|measured]
//	           [-calibrate ARCH] [-searchreport search.jsonl]
//	           [-sobol [-sobol-samples N] [-sobol-json]]
//	           [-variability [-variability-json]]
//	ompanalyze -compare old.csv new.csv
//
// -sobol runs a variance-based (global) sensitivity analysis over the sweep
// dataset: per measurement setting it estimates first-order and total-order
// Sobol indices for each of the seven tuning variables with Saltelli
// sampling over the discrete configuration space, reporting how much of the
// runtime variance each variable owns alone (S) and including interactions
// (ST). Evaluations landing on configurations the sweep never measured fall
// back to the group mean and are counted as misses.
//
// -searchreport joins ompsearch JSONL telemetry against the full sweep in
// -data: per (arch, app, setting, strategy) it prints the evaluations spent
// (and the fraction of the space they are), the best speedup the search
// found, the full sweep's best speedup, and their ratio — the
// fraction-of-sweep-best metric the budgeted strategies are judged by.
//
// -variability is the noise observatory: it aggregates the dataset's
// per-series measurement provenance (the reps/cov/ci columns written by
// adaptive campaigns) into per-arch/app/setting noise distributions — CoV
// and CI quantiles, real-repetition histograms, and the measurement time the
// adaptive policy saved against the fixed-rep baseline. -variability-json
// emits the same report as one JSON object.
//
// -compare is the variability-aware regression gate: it pairs the two
// datasets per configuration, drops pairs whose repetition CoV exceeds
// -compare-cov (too noisy to compare), and tests each arch/app group with
// the Wilcoxon signed-rank test on the paired mean runtimes. Groups that are
// both statistically significant and slower by more than the practical
// floor are flagged, and the command exits nonzero — suitable as a CI gate
// between a stored baseline sweep and a fresh one. When both datasets carry
// series provenance, pairs are gated by their own recorded CI (-compare-ci)
// and weighted by their measured noise instead of the -compare-cov fallback.
//
// -backend selects the measurement backend for the evaluation-driven
// analyses (-tune, -random, -numa): model (the deterministic analytic
// model, default) or measured (real kernel execution on this host).
//
// -calibrate quantifies how well the two backends agree: both evaluate a
// small deterministic subspace of configurations on the given architecture,
// and the report prints per-application and per-variable Spearman rank
// correlation plus the median relative error in speedup-over-default units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"omptune"
	"omptune/internal/core"
	"omptune/internal/ml"
	"omptune/internal/report"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset CSV produced by ompsweep (default: collect now)")
		upshot    = flag.Bool("upshot", false, "print the Q1 upshot summary")
		worst     = flag.Bool("worst", false, "print the Q4 worst-trend analysis")
		wilcoxon  = flag.String("wilcoxon", "", "APP,SETTING: print the Table III consistency test")
		heatmap   = flag.String("heatmap", "", "grouping for the influence heatmap: app, arch or apparch")
		recommend = flag.String("recommend", "", "application to mine Table VII recommendations for")
		tune      = flag.String("tune", "", "APP@ARCH: run the guided coordinate-descent tuner")
		budget    = flag.Int("budget", 200, "evaluation budget for -tune and -random")
		random    = flag.String("random", "", "APP@ARCH: run the random-search baseline")
		compare   = flag.Bool("compare-models", false, "contrast linear vs random-forest surrogates (per arch)")
		transfer  = flag.String("transfer", "", "application for leave-one-architecture-out transfer analysis")
		numa      = flag.String("numa", "", "APP@ARCH: evaluate the deferred numa_domains placements")
		drill     = flag.String("drill", "", "APP@ARCH: hierarchical Fig3->Fig2->Fig4 drill-down with tuning advice")
		searchRep = flag.String("searchreport", "", "JSONL file from ompsearch -telemetry: report search quality vs the -data full sweep")
		sobol     = flag.Bool("sobol", false, "variance-based sensitivity: Sobol indices per tuning variable, per setting")
		sobolN    = flag.Int("sobol-samples", 256, "Saltelli base samples per group for -sobol")
		sobolSeed = flag.Int64("sobol-seed", 1, "sampling seed for -sobol")
		sobolJSON = flag.Bool("sobol-json", false, "emit the -sobol report as JSON instead of a table")
		backendFl = flag.String("backend", "model", "measurement backend for -tune/-random/-numa: model or measured")
		calibrate = flag.String("calibrate", "", "ARCH: compare the model against the measured backend over a small subspace")
		calApps   = flag.String("calibrate-apps", "", "comma-separated apps for -calibrate (default: all on the arch)")
		calCfgs   = flag.Int("calibrate-configs", 12, "configurations per app for -calibrate")
		mreps     = flag.Int("measure-reps", 0, "measured backend: timed repetitions per configuration (0 = one per sample slot)")
		mwarmup   = flag.Int("measure-warmup", 1, "measured backend: untimed warmup runs per configuration")
		compareTo = flag.String("compare", "", "OLD.csv: regression-gate against NEW.csv given as the positional argument; exits 1 on significant slowdowns")
		cmpAlpha  = flag.Float64("compare-alpha", 0, "-compare significance level (0 = 0.05)")
		cmpCoV    = flag.Float64("compare-cov", 0, "-compare noise gate: exclude pairs whose repetition CoV exceeds this (0 = 0.10)")
		cmpCI     = flag.Float64("compare-ci", 0, "-compare noise-aware gate: exclude provenance-carrying pairs whose recorded relative CI exceeds this (0 = 0.05)")
		cmpShift  = flag.Float64("compare-shift", 0, "-compare practical floor: flag only shifts beyond this fraction (0 = 0.02)")
		varTable  = flag.Bool("variability", false, "print the noise observatory of the -data dataset (per-group CoV/CI quantiles, reps saved)")
		varJSON   = flag.Bool("variability-json", false, "emit the -variability report as JSON")
	)
	flag.Parse()

	measureOpt := omptune.MeasureOptions{Warmup: *mwarmup, TimedReps: *mreps}
	var backend omptune.Evaluator // nil = the analytic model
	switch *backendFl {
	case "model":
	case "measured":
		backend = omptune.NewMeasuredEvaluator(measureOpt)
	default:
		fatal(fmt.Errorf("-backend %q: want model or measured", *backendFl))
	}

	var ds *omptune.Dataset
	load := func() *omptune.Dataset {
		if ds != nil {
			return ds
		}
		if *dataPath != "" {
			f, err := os.Open(*dataPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			var e error
			ds, e = omptune.ReadDatasetCSV(f)
			if e != nil {
				fatal(e)
			}
			return ds
		}
		fmt.Fprintln(os.Stderr, "ompanalyze: collecting the Table II dataset (pass -data to reuse one)...")
		var err error
		ds, err = omptune.Collect(omptune.CollectOptions{})
		if err != nil {
			fatal(err)
		}
		return ds
	}

	ran := false
	if *upshot {
		ran = true
		fmt.Println("== Q1: upshot potential ==")
		for _, u := range omptune.Upshot(load()) {
			fmt.Printf("%-8s best speedup %.3f-%.3f, median %.3f over %d settings\n",
				u.Arch, u.MinBest, u.MaxBest, u.MedianBest, u.Settings)
		}
	}
	if *worst {
		ran = true
		fmt.Println("== Q4: worst-performance trends ==")
		for i, t := range omptune.WorstTrends(load()) {
			if i >= 8 {
				break
			}
			fmt.Printf("%-20s = %-10s lift %.2fx among the slowest 5%%\n", t.Variable, t.Value, t.Lift)
		}
	}
	if *wilcoxon != "" {
		ran = true
		app, setting, ok := strings.Cut(*wilcoxon, ",")
		if !ok {
			fatal(fmt.Errorf("-wilcoxon wants APP,SETTING"))
		}
		for _, r := range omptune.WilcoxonTable(load(), strings.TrimSpace(app), strings.TrimSpace(setting)) {
			fmt.Printf("%-28s %-7s stat=%12.1f p=%.3g\n", r.Group, r.Pair, r.Statistic, r.PValue)
		}
	}
	if *heatmap != "" {
		ran = true
		var g = map[string]func() error{
			"app":     func() error { return report.Fig2(os.Stdout, load(), defaultML()) },
			"arch":    func() error { return report.Fig3(os.Stdout, load(), defaultML()) },
			"apparch": func() error { return report.Fig4(os.Stdout, load(), defaultML()) },
		}
		fn, ok := g[*heatmap]
		if !ok {
			fatal(fmt.Errorf("-heatmap wants app, arch or apparch"))
		}
		if err := fn(); err != nil {
			fatal(err)
		}
	}
	if *recommend != "" {
		ran = true
		if _, err := omptune.ApplicationByName(*recommend); err != nil {
			fatal(err)
		}
		for _, r := range omptune.Recommend(load(), *recommend) {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			fmt.Printf("%-8s %-8s %-20s %s (lift %.2f)\n",
				*recommend, arch, r.Variable, strings.Join(r.Values, "/"), r.Lift)
		}
	}
	if *tune != "" {
		ran = true
		appName, archName, ok := strings.Cut(*tune, "@")
		if !ok {
			fatal(fmt.Errorf("-tune wants APP@ARCH"))
		}
		app, err := omptune.ApplicationByName(appName)
		if err != nil {
			fatal(err)
		}
		m, err := omptune.MachineByName(archName)
		if err != nil {
			fatal(err)
		}
		set := app.Settings(m)[1] // the middle (default-size) setting
		res := omptune.Tune(backend, m, app, set, nil, *budget)
		fmt.Printf("tuned %s on %s (%s, %s backend): %.3fs -> %.3fs (%.3fx) in %d evaluations\n",
			appName, archName, set.Label, *backendFl, res.DefaultSeconds, res.BestSeconds, res.Speedup(), res.Evaluations)
		for _, s := range res.Trace {
			fmt.Printf("  %-20s = %-12s -> %.3fs\n", s.Variable, s.Value, s.Seconds)
		}
		fmt.Printf("  best: %s\n", res.Best)
	}
	if *random != "" {
		ran = true
		app, m := appArch(*random)
		set := app.Settings(m)[1]
		res := omptune.RandomSearch(backend, m, app, set, *budget, 1)
		fmt.Printf("random search %s on %s: %.3fx in %d evaluations (best: %s)\n",
			app.Name, m.Arch, res.Speedup(), res.Evaluations, res.Best)
	}
	if *compare {
		ran = true
		rows, err := omptune.CompareModels(load(), omptune.PerArch)
		if err != nil {
			fatal(err)
		}
		fmt.Println("== linear vs non-linear surrogate (per architecture) ==")
		for _, r := range rows {
			fmt.Printf("%-8s n=%-7d majority=%.3f logistic=%.3f forest=%.3f\n",
				r.Group, r.Samples, r.MajorityAcc, r.LogisticAcc, r.ForestAcc)
		}
	}
	if *transfer != "" {
		ran = true
		rows, err := omptune.Transfer(load(), *transfer)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== transfer analysis for %s (leave one architecture out) ==\n", *transfer)
		for _, r := range rows {
			verdict := "does NOT transfer"
			if r.Transfers {
				verdict = "transfers"
			}
			fmt.Printf("held out %-8s accuracy=%.3f majority=%.3f -> %s\n",
				r.HeldOut, r.Accuracy, r.Majority, verdict)
		}
	}
	if *numa != "" {
		ran = true
		app, m := appArch(*numa)
		set := app.Settings(m)[1]
		cfg, speedup := omptune.BestNUMAPlacement(backend, m, app, set)
		fmt.Printf("best numa_domains placement for %s on %s (%s): %.3fx with %s\n",
			app.Name, m.Arch, set.Label, speedup, cfg)
	}
	if *calibrate != "" {
		ran = true
		m, err := omptune.MachineByName(*calibrate)
		if err != nil {
			fatal(err)
		}
		var appNames []string
		if *calApps != "" {
			for _, a := range strings.Split(*calApps, ",") {
				name := strings.TrimSpace(a)
				if _, err := omptune.ApplicationByName(name); err != nil {
					fatal(err)
				}
				appNames = append(appNames, name)
			}
		}
		// The reference is always the model; the alternate is the measured
		// backend (reusing the one from -backend measured, so its cached
		// series are shared with any tuning run in the same invocation).
		alt := backend
		if alt == nil {
			alt = omptune.NewMeasuredEvaluator(measureOpt)
		}
		rep, err := omptune.Calibrate(nil, alt, omptune.CalibrationOptions{
			Arch: m.Arch, AppNames: appNames, ConfigsPerApp: *calCfgs,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
	}
	if *compareTo != "" {
		ran = true
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-compare %s needs the new dataset CSV as the positional argument", *compareTo))
		}
		rep, err := omptune.CompareSweeps(readCSV(*compareTo), readCSV(flag.Arg(0)), omptune.CompareOptions{
			Alpha: *cmpAlpha, CoVThreshold: *cmpCoV, CIRelThreshold: *cmpCI, MinShift: *cmpShift,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("== regression gate: %s vs %s ==\n", *compareTo, flag.Arg(0))
		fmt.Print(rep.String())
		if rep.Regressions() > 0 {
			os.Exit(1)
		}
	}
	if *searchRep != "" {
		ran = true
		if *dataPath == "" {
			fatal(fmt.Errorf("-searchreport needs -data with the full-sweep CSV to compare against"))
		}
		f, err := os.Open(*searchRep)
		if err != nil {
			fatal(err)
		}
		rows, err := omptune.SearchReport(f, load())
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Println("== budgeted search vs full sweep ==")
		fmt.Printf("%-8s %-10s %-8s %-10s %6s %6s %9s %8s %8s %9s\n",
			"arch", "app", "setting", "strategy", "evals", "hits", "evalfrac", "speedup", "sweep", "fraction")
		for _, r := range rows {
			fmt.Printf("%-8s %-10s %-8s %-10s %6d %6d %9.4f %8.3f %8.3f %9.4f\n",
				r.Arch, r.App, r.Setting, r.Strategy, r.Evaluations, r.CacheHits,
				r.EvalFraction, r.BestSpeedup, r.SweepBestSpeedup, r.Fraction)
		}
	}
	if *varTable || *varJSON {
		ran = true
		rep := omptune.DatasetVariability(load())
		if *varJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fatal(err)
			}
		} else {
			fmt.Println("== variability observatory: series noise and adaptive-measurement savings ==")
			fmt.Print(rep.String())
		}
	}
	if *sobol {
		ran = true
		rep, err := core.SobolSensitivity(load(), *sobolN, *sobolSeed)
		if err != nil {
			fatal(err)
		}
		if *sobolJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fatal(err)
			}
		} else {
			fmt.Println("== Sobol sensitivity: runtime variance share per tuning variable ==")
			fmt.Print(rep.String())
		}
	}
	if *drill != "" {
		ran = true
		app, m := appArch(*drill)
		d, err := core.Drill(load(), app.Name, m.Arch, ml.LogisticOptions{})
		if err != nil {
			fatal(err)
		}
		fmt.Print(d.String())
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// readCSV loads one dataset CSV or dies.
func readCSV(path string) *omptune.Dataset {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	ds, err := omptune.ReadDatasetCSV(f)
	if err != nil {
		fatal(err)
	}
	return ds
}

// appArch parses an "APP@ARCH" selector.
func appArch(sel string) (*omptune.App, *omptune.Machine) {
	appName, archName, ok := strings.Cut(sel, "@")
	if !ok {
		fatal(fmt.Errorf("selector %q wants APP@ARCH", sel))
	}
	app, err := omptune.ApplicationByName(appName)
	if err != nil {
		fatal(err)
	}
	m, err := omptune.MachineByName(archName)
	if err != nil {
		fatal(err)
	}
	return app, m
}

func defaultML() ml.LogisticOptions { return ml.LogisticOptions{} }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ompanalyze:", err)
	os.Exit(1)
}
