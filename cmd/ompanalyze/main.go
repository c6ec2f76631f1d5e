// Command ompanalyze runs individual analyses from §IV-D/§V over a
// collected dataset: the Wilcoxon consistency test, influence heatmaps,
// recommendation mining, the upshot summary and the worst-trend analysis.
//
// Usage:
//
//	ompanalyze -data dataset.csv [-upshot] [-worst]
//	           [-wilcoxon APP,SETTING] [-heatmap app|arch|apparch]
//	           [-recommend APP] [-compare-models] [-transfer APP]
//	           [-numa APP@ARCH] [-drill APP@ARCH] [-backend model|measured]
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
// -backend selects the measurement backend for -numa: model (the
// deterministic analytic model, default) or measured (real kernel execution
// on this host). Budgeted searches, the §VI guided tuner and the random
// baseline among them, are ompsearch's.
//
// -calibrate quantifies how well the two backends agree: both evaluate a
// small deterministic subspace of configurations on the given architecture,
// and the report prints per-application and per-variable Spearman rank
// correlation plus the median relative error in speedup-over-default units.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/measure"
	"omptune/internal/ml"
	"omptune/internal/numflag"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

func main() {
	numflag.Exit("ompanalyze", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: reports go to stdout, progress and usage
// to stderr, and every failure — a bad flag, an unreadable dataset, a
// -compare that found regressions — comes back as the error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ompanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "dataset CSV produced by ompsweep (default: collect now)")
		upshot    = fs.Bool("upshot", false, "print the Q1 upshot summary")
		worst     = fs.Bool("worst", false, "print the Q4 worst-trend analysis")
		wilcoxon  = fs.String("wilcoxon", "", "APP,SETTING: print the Table III consistency test")
		heatmap   = fs.String("heatmap", "", "grouping for the influence heatmap: app, arch or apparch")
		recommend = fs.String("recommend", "", "application to mine Table VII recommendations for")
		compare   = fs.Bool("compare-models", false, "contrast linear vs random-forest surrogates (per arch)")
		transfer  = fs.String("transfer", "", "application for leave-one-architecture-out transfer analysis")
		numa      = fs.String("numa", "", "APP@ARCH: evaluate the deferred numa_domains placements")
		drill     = fs.String("drill", "", "APP@ARCH: hierarchical Fig3->Fig2->Fig4 drill-down with tuning advice")
		searchRep = fs.String("searchreport", "", "JSONL file from ompsearch -telemetry: report search quality vs the -data full sweep")
		sobol     = fs.Bool("sobol", false, "variance-based sensitivity: Sobol indices per tuning variable, per setting")
		sobolN    = numflag.Var(fs, "sobol-samples", 256, ">= 2", "Saltelli base samples per group for -sobol")
		sobolSeed = fs.Int64("sobol-seed", 1, "sampling seed for -sobol")
		sobolJSON = fs.Bool("sobol-json", false, "emit the -sobol report as JSON instead of a table")
		backendFl = fs.String("backend", "model", "measurement backend for -numa: model or measured")
		calibrate = fs.String("calibrate", "", "ARCH: compare the model against the measured backend over a small subspace")
		calApps   = fs.String("calibrate-apps", "", "comma-separated apps for -calibrate (default: all on the arch)")
		calCfgs   = numflag.Var(fs, "calibrate-configs", 12, ">= 2", "configurations per app for -calibrate")
		mreps     = numflag.Var(fs, "measure-reps", sim.Reps, ">= 1", "measured backend: timed repetitions per configuration")
		mwarmup   = numflag.Var(fs, "measure-warmup", 1, ">= 1", "measured backend: untimed warmup runs per configuration")
		compareTo = fs.String("compare", "", "OLD.csv: regression-gate against NEW.csv given as the positional argument; exits 1 on significant slowdowns")
		cmpAlpha  = numflag.Var(fs, "compare-alpha", 0.05, "in (0, 1)", "-compare significance level")
		cmpCoV    = numflag.Var(fs, "compare-cov", 0.10, "> 0", "-compare noise gate: exclude pairs whose repetition CoV exceeds this")
		cmpCI     = numflag.Var(fs, "compare-ci", 0.05, "> 0", "-compare noise-aware gate: exclude provenance-carrying pairs whose recorded relative CI exceeds this")
		cmpShift  = numflag.Var(fs, "compare-shift", 0.02, "> 0", "-compare practical floor: flag only shifts beyond this fraction")
		varTable  = fs.Bool("variability", false, "print the noise observatory of the -data dataset (per-group CoV/CI quantiles, reps saved)")
		varJSON   = fs.Bool("variability-json", false, "emit the -variability report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every name resolves before a dataset is read or collected.
	measureOpt := measure.Options{Warmup: *mwarmup, TimedReps: *mreps}
	backend, err := core.NewBackend(*backendFl, measureOpt, nil)
	if err != nil {
		return fmt.Errorf("-backend: %w", err)
	}
	var wilApp *apps.App
	var wilSet sim.Setting
	if *wilcoxon != "" {
		name, label, ok := strings.Cut(*wilcoxon, ",")
		if !ok {
			return fmt.Errorf("-wilcoxon wants APP,SETTING")
		}
		if wilApp, err = apps.ByName(strings.TrimSpace(name)); err == nil {
			wilSet, err = wilApp.Setting(nil, strings.TrimSpace(label))
		}
		if err != nil {
			return fmt.Errorf("-wilcoxon: %w", err)
		}
	}
	fig, ok := map[string]struct {
		grouping core.Grouping
		render   func(io.Writer, *core.Heatmap) error
	}{
		"app": {core.PerApp, report.Fig2}, "arch": {core.PerArch, report.Fig3}, "apparch": {core.PerArchApp, report.Fig4},
	}[*heatmap]
	if !ok && *heatmap != "" {
		return fmt.Errorf("-heatmap %q: want app, arch or apparch", *heatmap)
	}
	for _, sel := range [][2]string{{"recommend", *recommend}, {"transfer", *transfer}} {
		if _, err := apps.ByName(sel[1]); sel[1] != "" && err != nil {
			return fmt.Errorf("-%s: %w", sel[0], err)
		}
	}
	numaApp, numaM, err := appArch("numa", *numa)
	if err != nil {
		return err
	}
	drillApp, drillM, err := appArch("drill", *drill)
	if err != nil {
		return err
	}
	calM, calErr := topology.Get(topology.Arch(*calibrate))
	if *calibrate != "" && calErr != nil {
		return fmt.Errorf("-calibrate: %w", calErr)
	}
	var calAppNames []string
	if *calApps != "" {
		for _, a := range strings.Split(*calApps, ",") {
			app, err := apps.ByName(strings.TrimSpace(a))
			if err != nil {
				return fmt.Errorf("-calibrate-apps: %w", err)
			}
			calAppNames = append(calAppNames, app.Name)
		}
	}

	var ds *dataset.Dataset
	load := func() (*dataset.Dataset, error) {
		if ds != nil {
			return ds, nil
		}
		var err error
		if *dataPath != "" {
			ds, err = readCSV(*dataPath)
		} else {
			fmt.Fprintln(stderr, "ompanalyze: collecting the Table II dataset (pass -data to reuse one)...")
			ds, err = core.RunSweep(core.SweepConfig{})
		}
		return ds, err
	}
	printJSON := func(v any) error {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	ran := false
	if *upshot {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Q1: upshot potential ==")
		for _, u := range core.Upshot(ds) {
			fmt.Fprintf(stdout, "%-8s best speedup %.3f-%.3f, median %.3f over %d settings\n",
				u.Arch, u.MinBest, u.MaxBest, u.MedianBest, u.Settings)
		}
	}
	if *worst {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== Q4: worst-performance trends ==")
		for i, t := range core.WorstTrends(ds) {
			if i >= 8 {
				break
			}
			fmt.Fprintf(stdout, "%-20s = %-10s lift %.2fx among the slowest 5%%\n", t.Variable, t.Value, t.Lift)
		}
	}
	if wilApp != nil {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		rows, err := core.WilcoxonTable(ds, wilApp.Name, wilSet.Label)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-28s %-7s stat=%12.1f p=%.3g\n", r.Group, r.Pair, r.Statistic, r.PValue)
		}
	}
	if *heatmap != "" {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		hm, err := core.InfluenceHeatmap(ds, fig.grouping, ml.LogisticOptions{})
		if err != nil {
			return err
		}
		if err := fig.render(stdout, hm); err != nil {
			return err
		}
	}
	if *recommend != "" {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		recs, err := core.Recommend(ds, *recommend)
		if err != nil {
			return err
		}
		for _, r := range recs {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			fmt.Fprintf(stdout, "%-8s %-8s %-20s %s (lift %.2f)\n",
				*recommend, arch, r.Variable, strings.Join(r.Values, "/"), r.Lift)
		}
	}
	if *compare {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		rows, err := core.CompareModels(ds, core.PerArch, ml.LogisticOptions{},
			ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 1}, 10)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== linear vs non-linear surrogate (per architecture) ==")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-8s n=%-7d majority=%.3f logistic=%.3f forest=%.3f\n",
				r.Group, r.Samples, r.MajorityAcc, r.LogisticAcc, r.ForestAcc)
		}
	}
	if *transfer != "" {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		rows, err := core.Transfer(ds, *transfer, ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 5}, 10)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== transfer analysis for %s (leave one architecture out) ==\n", *transfer)
		for _, r := range rows {
			verdict := "does NOT transfer"
			if r.Transfers {
				verdict = "transfers"
			}
			fmt.Fprintf(stdout, "held out %-8s accuracy=%.3f majority=%.3f -> %s\n",
				r.HeldOut, r.Accuracy, r.Majority, verdict)
		}
	}
	if numaApp != nil {
		ran = true
		set, _ := numaApp.Setting(numaM, "") // the middle (default-size) setting
		cfg, speedup, err := core.BestNUMAPlacement(backend, numaM, numaApp, set)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "best numa_domains placement for %s on %s (%s): %.3fx with %s\n",
			numaApp.Name, numaM.Arch, set.Label, speedup, cfg)
	}
	if calM != nil {
		ran = true
		// The reference is always the model, the alternate the measured backend.
		rep, err := core.Calibrate(nil, measure.NewEvaluator(measureOpt), core.CalibrationOptions{
			Arch: calM.Arch, Apps: calAppNames, ConfigsPerApp: *calCfgs,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.String())
	}
	if *compareTo != "" {
		ran = true
		if fs.NArg() != 1 {
			return fmt.Errorf("-compare %s needs the new dataset CSV as the positional argument", *compareTo)
		}
		oldDS, err := readCSV(*compareTo)
		if err != nil {
			return err
		}
		newDS, err := readCSV(fs.Arg(0))
		if err != nil {
			return err
		}
		rep, err := core.CompareDatasets(oldDS, newDS, core.CompareOptions{
			Alpha: *cmpAlpha, CoVThreshold: *cmpCoV, CIRelThreshold: *cmpCI, MinShift: *cmpShift,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== regression gate: %s vs %s ==\n", *compareTo, fs.Arg(0))
		fmt.Fprint(stdout, rep.String())
		if n := rep.Regressions(); n > 0 {
			return fmt.Errorf("-compare: %d group(s) significantly slower", n)
		}
	}
	if *searchRep != "" {
		ran = true
		if *dataPath == "" {
			return fmt.Errorf("-searchreport needs -data with the full-sweep CSV to compare against")
		}
		ds, err := load()
		if err != nil {
			return err
		}
		f, err := os.Open(*searchRep)
		if err != nil {
			return err
		}
		rows, err := core.SearchReport(f, ds)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "== budgeted search vs full sweep ==")
		fmt.Fprintf(stdout, "%-8s %-10s %-8s %-10s %6s %6s %9s %8s %8s %9s\n",
			"arch", "app", "setting", "strategy", "evals", "hits", "evalfrac", "speedup", "sweep", "fraction")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-8s %-10s %-8s %-10s %6d %6d %9.4f %8.3f %8.3f %9.4f\n",
				r.Arch, r.App, r.Setting, r.Strategy, r.Evaluations, r.CacheHits,
				r.EvalFraction, r.BestSpeedup, r.SweepBestSpeedup, r.Fraction)
		}
	}
	if *varTable || *varJSON {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		rep := core.Variability(ds)
		if *varJSON {
			if err := printJSON(rep); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(stdout, "== variability observatory: series noise and adaptive-measurement savings ==")
			fmt.Fprint(stdout, rep.String())
		}
	}
	if *sobol {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		rep, err := core.SobolSensitivity(ds, *sobolN, *sobolSeed)
		if err != nil {
			return err
		}
		if *sobolJSON {
			if err := printJSON(rep); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(stdout, "== Sobol sensitivity: runtime variance share per tuning variable ==")
			fmt.Fprint(stdout, rep.String())
		}
	}
	if drillApp != nil {
		ran = true
		ds, err := load()
		if err != nil {
			return err
		}
		d, err := core.Drill(ds, drillApp.Name, drillM.Arch)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, d.String())
	}
	if !ran {
		fs.Usage()
		return errors.New("no analysis selected")
	}
	return nil
}

// readCSV loads one dataset CSV.
func readCSV(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

// appArch resolves the "APP@ARCH" selector of flag; "" selects nothing.
func appArch(flag, sel string) (*apps.App, *topology.Machine, error) {
	if sel == "" {
		return nil, nil, nil
	}
	appName, archName, ok := strings.Cut(sel, "@")
	if !ok {
		return nil, nil, fmt.Errorf("-%s %q wants APP@ARCH", flag, sel)
	}
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, nil, fmt.Errorf("-%s: %w", flag, err)
	}
	m, err := topology.Get(topology.Arch(archName))
	if err != nil {
		return nil, nil, fmt.Errorf("-%s: %w", flag, err)
	}
	return app, m, nil
}
