package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// fullSweepCSV collects the exhaustive model sweep of one app on a64fx — the
// ground truth both smokes analyse — and writes it where -data can read it.
func fullSweepCSV(t *testing.T, app string) string {
	t.Helper()
	ds, err := core.RunSweep(core.SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{app},
		Fraction: map[topology.Arch]float64{topology.A64FX: 1},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "sweep.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSobolFullSweep proves the variance-based sensitivity path end to end on
// the deterministic backend. LU has the highest residual imbalance of the
// modeled apps, so OMP_SCHEDULE genuinely moves its runtime, while the model
// treats KMP_ALIGN_ALLOC as inert (its Jansen ST is exactly zero on a
// full-factorial sweep); and on a full sweep no Saltelli point may need the
// group-mean substitution.
func TestSobolFullSweep(t *testing.T) {
	csv := fullSweepCSV(t, "LU")
	var out, errb bytes.Buffer
	args := []string{"-data", csv, "-sobol", "-sobol-samples", "256", "-sobol-seed", "1", "-sobol-json"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	var rep core.SobolReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad -sobol-json output: %v\n%s", err, out.String())
	}
	if len(rep.Groups) != 3 {
		t.Fatalf("%d groups, want LU's 3 settings", len(rep.Groups))
	}
	for _, g := range rep.Groups {
		if g.Misses != 0 || g.Evals == 0 {
			t.Errorf("%s: misses %d/%d, want every Saltelli point in the full sweep", g.Group, g.Misses, g.Evals)
		}
	}
	var sched, align float64
	for _, ix := range rep.MeanTotal() {
		switch ix.Var {
		case env.VarSchedule:
			sched = ix.Total
		case env.VarAlignAlloc:
			align = ix.Total
		}
	}
	if sched <= 0 || sched <= align {
		t.Errorf("pooled OMP_SCHEDULE ST %v not above inert KMP_ALIGN_ALLOC ST %v", sched, align)
	}

	// The table form carries the same pooled ranking.
	out.Reset()
	if err := run(args[:len(args)-1], &out, &errb); err != nil {
		t.Fatalf("run -sobol: %v", err)
	}
	if !strings.Contains(out.String(), "pooled ranking (mean ST across 3 groups)") {
		t.Errorf("-sobol table misses the pooled ranking:\n%s", out.String())
	}
}

// TestSearchReportFullSweep proves the budgeted Searcher seam end to end: the
// full Nqueens sweep on a64fx is the ground truth, the annealing and surrogate
// strategies each get 300 evaluations — 6.5% of the 4608-configuration space —
// against the same model, and -searchreport joins their shared telemetry
// stream to the sweep. Both must recover at least 90% of the sweep's best
// speedup while spending at most 10% of the space.
func TestSearchReportFullSweep(t *testing.T) {
	csv := fullSweepCSV(t, "Nqueens")
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	sets := app.Settings(m)
	telemetry := filepath.Join(t.TempDir(), "search.jsonl")
	for _, strategy := range []string{"anneal", "surrogate"} {
		s, err := core.NewSearcher(strategy)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Search(context.Background(), core.SearchSpec{
			Machine: m, App: app, Setting: sets[len(sets)/2], Seed: 1,
			Budget: core.SearchBudget{MaxEvals: 300}, TelemetryLog: telemetry,
		}); err != nil {
			t.Fatalf("%s search: %v", strategy, err)
		}
	}

	var out, errb bytes.Buffer
	args := []string{"-data", csv, "-searchreport", telemetry}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	// Columns: arch app setting strategy evals hits evalfrac speedup sweep fraction.
	seen := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 10 || (f[3] != "anneal" && f[3] != "surrogate") {
			continue
		}
		seen[f[3]] = true
		evalFrac, err1 := strconv.ParseFloat(f[6], 64)
		fraction, err2 := strconv.ParseFloat(f[9], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable report row %q", line)
		}
		if evalFrac > 0.10 {
			t.Errorf("%s spent %v of the space, want <= 0.10", f[3], evalFrac)
		}
		if fraction < 0.90 {
			t.Errorf("%s reached %v of the sweep best, want >= 0.90", f[3], fraction)
		}
	}
	if len(seen) != 2 {
		t.Errorf("report rows for %v, want anneal and surrogate:\n%s", seen, out.String())
	}
}

// TestSearchReportReadsOlderStream: -searchreport over a stream an older
// ompsearch -telemetry wrote, before the sweep and search records became one
// core.Event (its steps carry no elapsed_sec) — a greedy and a random search
// of one group, then a measured search cancelled mid-run that ends in an
// error record — prints, against a fixed sweep CSV, the bytes that release
// printed.
func TestSearchReportReadsOlderStream(t *testing.T) {
	stream := filepath.Join("testdata", "search_telemetry.jsonl")
	raw, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`{"type":"error",`)) || bytes.Contains(raw, []byte(`"workers_busy"`)) {
		t.Fatal("the fixture is no older stream with an error record")
	}
	var out, errb bytes.Buffer
	args := []string{"-data", filepath.Join("testdata", "search_sweep.csv"), "-searchreport", stream}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "searchreport.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-searchreport printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestVariabilityFlag: -variability renders the observatory table and the
// savings summary over a CSV's series provenance (cmd/ompsweep's tests check
// the same report over a real adaptive campaign; this is the flag's wiring).
func TestVariabilityFlag(t *testing.T) {
	ds, err := core.RunSweep(core.SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{"EP"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.01},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	for i, s := range ds.Samples {
		s.Source, s.RepsRun, s.CoV, s.CIRel = "measured", 2+i%3, 0.01*float64(1+i%5), 0.02
	}
	path := filepath.Join(t.TempDir(), "adaptive.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-data", path, "-variability"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errb.String())
	}
	header, summary := false, false
	for _, line := range strings.Split(out.String(), "\n") {
		header = header || strings.HasPrefix(line, "arch ")
		if strings.HasPrefix(line, "adaptive measurement: ") {
			f := strings.Fields(line)
			repsRun, _ := strconv.Atoi(f[2])
			repsFixed, _ := strconv.Atoi(f[6])
			summary = repsRun > 0 && repsFixed > repsRun
		}
	}
	if !header || !summary {
		t.Errorf("report lacks its table header (%v) or a summary with savings (%v):\n%s", header, summary, out.String())
	}
}

// validSet is how a resolver's error lists the names it knows.
func validSet[T ~string](names []T) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(n))
	}
	return "(valid: " + b.String() + ")"
}

// studyApps is the study's application names, in apps.All order.
func studyApps() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return names
}

// TestRunValidation: a bad invocation comes back as an error naming the
// problem, not an os.Exit, and writes nothing to stdout. Every name a flag
// takes resolves before any dataset is read: the name cases also ask for
// -upshot over a missing -data file, whose error they must not reach. An
// analysis of an application the dataset lacks fails as -drill does. Every
// numeric flag is also fed the values its domain refuses (refusedValues),
// each followed by -help: a value refused while flags are parsed fails with
// the flag package's error naming the flag, one accepted stops at -help
// instead.
func TestRunValidation(t *testing.T) {
	missing := []string{"-data", filepath.Join(t.TempDir(), "absent.csv"), "-upshot"}
	small := fullSweepCSV(t, "Sort")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"nothing selected", nil, "no analysis selected"},
		{"unknown backend", append([]string{"-backend", "oracle"}, missing...), `-backend: core: unknown backend "oracle" (valid: model, measured)`},
		{"wilcoxon without setting", []string{"-wilcoxon", "Alignment"}, "APP,SETTING"},
		{"unknown heatmap grouping", append([]string{"-heatmap", "suite"}, missing...), "app, arch or apparch"},
		{"unknown app", append([]string{"-recommend", "Doom"}, missing...), `-recommend: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"unknown transfer app", append([]string{"-transfer", "Doom"}, missing...), `-transfer: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"unknown wilcoxon app", append([]string{"-wilcoxon", "Doom,small"}, missing...), `-wilcoxon: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"unknown wilcoxon setting", append([]string{"-wilcoxon", "Nqueens,huge"}, missing...), `-wilcoxon: apps: Nqueens has no setting "huge" (valid: small, medium, large)`},
		{"unknown wilcoxon thread setting", append([]string{"-wilcoxon", "XSbench,t7"}, missing...), `XSbench has no setting "t7" (valid: t12, t24, t48, t10, t20, t40, t96)`},
		{"unknown numa app", append([]string{"-numa", "Doom@milan"}, missing...), `-numa: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"unknown numa arch", append([]string{"-numa", "Nqueens@riscv"}, missing...), `-numa: topology: unknown architecture "riscv" ` + validSet(topology.Arches())},
		{"unknown drill app", append([]string{"-drill", "Doom@milan"}, missing...), `-drill: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"unknown drill arch", append([]string{"-drill", "Nqueens@riscv"}, missing...), `-drill: topology: unknown architecture "riscv" ` + validSet(topology.Arches())},
		{"unknown calibrate arch", append([]string{"-calibrate", "riscv"}, missing...), `-calibrate: topology: unknown architecture "riscv" ` + validSet(topology.Arches())},
		{"unknown calibrate app", append([]string{"-calibrate-apps", "EP,Doom"}, missing...), `-calibrate-apps: apps: unknown application "Doom" ` + validSet(studyApps())},
		{"runtime-only transfer", []string{"-transfer", "LUNest"}, "LUNest has no model profile"},
		{"runtime-only recommend", []string{"-recommend", "LUNest"}, "LUNest has no model profile"},
		{"runtime-only numa", []string{"-numa", "LUNest@a64fx"}, "LUNest has no model profile"},
		{"runtime-only drill", []string{"-drill", "TreeNest@milan"}, "TreeNest has no model profile"},
		{"runtime-only calibrate", []string{"-calibrate", "a64fx", "-calibrate-apps", "TreeNest"}, "TreeNest has no model profile"},
		{"selector without arch", []string{"-numa", "Nqueens"}, "APP@ARCH"},
		{"one sobol-sample", []string{"-data", small, "-sobol", "-sobol-samples", "1"}, `invalid value "1" for flag -sobol-samples: want int >= 2`},
		{"compare-alpha one", []string{"-compare", small, "-compare-alpha", "1", small}, `invalid value "1" for flag -compare-alpha: want finite float in (0, 1)`},
		{"one calibrate-config", []string{"-calibrate", "a64fx", "-calibrate-configs", "1"}, `invalid value "1" for flag -calibrate-configs: want int >= 2`},
		{"recommend app not in dataset", []string{"-data", small, "-recommend", "EP"}, "core: no samples for EP"},
		{"transfer app not in dataset", []string{"-data", small, "-transfer", "EP"}, "core: no samples for EP"},
		{"wilcoxon app not in dataset", []string{"-data", small, "-wilcoxon", "EP,small"}, "core: no samples for EP at small"},
		{"drill app not in dataset", []string{"-data", small, "-drill", "EP@a64fx"}, "core: no samples for EP on a64fx"},
		{"searchreport without data", []string{"-searchreport", "x.jsonl"}, "needs -data"},
		{"compare without new csv", []string{"-compare", "old.csv"}, "positional argument"},
		{"missing dataset", []string{"-data", "/nonexistent.csv", "-upshot"}, "nonexistent.csv"},
	}
	check := func(t *testing.T, args []string, want string) {
		var out, errb bytes.Buffer
		err := run(args, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run(%v) error = %v, want one containing %q", args, err, want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote %q to stdout before failing", args, out.String())
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.args, tc.want) })
	}
	var stdout, help bytes.Buffer // -help: the listing on stderr, flag.ErrHelp, which main exits 0 on
	if err := run([]string{"-help"}, &stdout, &help); !errors.Is(err, flag.ErrHelp) || stdout.Len() != 0 {
		t.Fatalf("-help: error %v, %d bytes on stdout; want flag.ErrHelp and none", err, stdout.Len())
	}
	for _, r := range refusedValues(t, help.String()) {
		t.Run(r.word+" "+r.flag, func(t *testing.T) {
			check(t, []string{"-" + r.flag, r.value, "-help"}, fmt.Sprintf("invalid value %q for flag -%s", r.value, r.flag))
		})
	}
}

// refused is a value a numeric flag's domain refuses.
type refused struct{ flag, word, value string }

// refusedValues walks the -help listing. For every flag it shows with a
// numeric type word it returns NaN, -1 (a seed takes any integer) and +Inf,
// and 0 unless the domain -help shows holds 0.
func refusedValues(t *testing.T, help string) []refused {
	var rows []refused
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+) (int|uint|float|duration)\n(.*)`).FindAllStringSubmatch(help, -1) {
		name, kind, usage := m[1], m[2], m[3]
		rows = append(rows, refused{name, "NaN", "NaN"}, refused{name, "Inf", "+Inf"})
		if strings.HasSuffix(name, "seed") {
			continue
		}
		negative := "-1"
		if kind == "duration" {
			negative = "-1s"
		}
		rows = append(rows, refused{name, "negative", negative})
		if !strings.Contains(usage, ">= 0") && !strings.Contains(usage, "[0,") {
			rows = append(rows, refused{name, "zero", "0"})
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no numeric flag in the -help listing:\n%s", help)
	}
	return rows
}
