package main

// End-to-end runs of the command on real kernels with the runtime's
// observers on, asserting on the decoded trace.Summary and profile.Report
// rather than on the human-readable tables.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// omprun runs the command and returns what it wrote to stderr.
func omprun(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	return errb.Bytes()
}

// summaryJSON decodes the -trace-summary-json object from stderr, skipping
// the status lines the command prints ahead of it.
func summaryJSON(t *testing.T, stderr []byte) trace.Summary {
	t.Helper()
	var s trace.Summary
	i := bytes.IndexByte(stderr, '{')
	if i < 0 {
		t.Fatalf("no summary JSON on stderr:\n%s", stderr)
	}
	if err := json.Unmarshal(stderr[i:], &s); err != nil {
		t.Fatalf("bad summary JSON: %v\n%s", err, stderr[i:])
	}
	return s
}

// TestTracedTaskKernel runs Nqueens (BOTS-style task parallelism) on four
// threads with tracing on. The command validates the Chrome JSON itself
// before writing it (shape, per-thread B/E nesting, timestamp order); the
// file is checked again here, and the derived summary must report live
// metrics — regions observed, stolen tasks, barrier wait, nothing dropped.
func TestTracedTaskKernel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	s := summaryJSON(t, omprun(t, "-app", "Nqueens", "-scale", "0.5",
		"-set", "OMP_NUM_THREADS=4,KMP_BLOCKTIME=0", "-warmup", "1", "-reps", "2",
		"-trace", path, "-trace-summary-json"))

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := trace.ValidateChrome(f, s.Dropped == 0); err != nil || n == 0 {
		t.Errorf("trace file: %d events, err %v", n, err)
	}
	if len(s.Regions) == 0 {
		t.Error("summary has no regions")
	}
	if s.Dropped != 0 {
		t.Errorf("dropped %d events", s.Dropped)
	}
	if s.Total.TasksStolen <= 0 || s.Total.TasksStolen > s.Total.TasksRun {
		t.Errorf("tasks stolen = %d of %d run, want some and no more than ran", s.Total.TasksStolen, s.Total.TasksRun)
	}
	if s.Total.BarrierNS() <= 0 {
		t.Errorf("total barrier wait = %dns, want > 0", s.Total.BarrierNS())
	}
}

// TestTracedNestedKernel runs a nested-parallel application (blocked LU with
// a depth-2 region per trailing update) under a per-level thread list and
// checks that nesting happened as configured: two levels, nested regions,
// widths 4 outer and 2 inner, nothing dropped. With no warmup run the inner
// teams are first built while traced, and take their rings then.
func TestTracedNestedKernel(t *testing.T) {
	for _, warmup := range []string{"1", "0"} {
		s := summaryJSON(t, omprun(t, "-app", "LUNest", "-scale", "0.5",
			"-set", "OMP_NUM_THREADS=4,2,OMP_MAX_ACTIVE_LEVELS=2,KMP_BLOCKTIME=0",
			"-warmup", warmup, "-reps", "2", "-trace-summary-json"))
		if s.Dropped != 0 {
			t.Errorf("warmup %s: dropped %d events", warmup, s.Dropped)
		}
		if s.NestedRegions <= 0 {
			t.Errorf("warmup %s: no nested regions", warmup)
		}
		if len(s.Levels) < 2 {
			t.Fatalf("warmup %s: levels = %+v, want at least 2", warmup, s.Levels)
		}
		if s.Levels[0].MaxThreads != 4 || s.Levels[1].MaxThreads != 2 {
			t.Errorf("warmup %s: team widths = %d outer, %d inner, want 4 and 2",
				warmup, s.Levels[0].MaxThreads, s.Levels[1].MaxThreads)
		}
	}
}

// TestProfiledTaskKernel runs Nqueens on four threads with the per-region
// profiler on and both exports: the report must attribute real time (a row
// with positive wall), show barrier waiting (the irregular task tree
// guarantees arrival spread on four threads) and drop nothing, and the
// folded stacks must be well-formed flamegraph input with a compute leaf.
func TestProfiledTaskKernel(t *testing.T) {
	dir := t.TempDir()
	jsonPath, foldedPath := filepath.Join(dir, "profile.json"), filepath.Join(dir, "profile.folded")
	omprun(t, "-app", "Nqueens", "-scale", "0.5", "-set", "OMP_NUM_THREADS=4",
		"-warmup", "1", "-reps", "2", "-profile-json", jsonPath, "-profile-folded", foldedPath)

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep profile.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad profile JSON: %v\n%s", err, raw)
	}
	if rep.Dropped != 0 {
		t.Errorf("dropped %d regions", rep.Dropped)
	}
	wall, waited := false, false
	for _, r := range rep.Regions {
		wall = wall || r.WallNS > 0
		waited = waited || r.BarrierWaitShare > 0
		if r.StealRate > 1 {
			t.Errorf("region %s: steal rate %v > 1", r.Name, r.StealRate)
		}
	}
	if !wall || !waited {
		t.Errorf("want a row with positive wall (%v) and one with barrier wait (%v):\n%s", wall, waited, raw)
	}

	f, err := os.Open(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line := regexp.MustCompile(`^omp;[^ ]+ [0-9]+$`)
	lines, compute := 0, false
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		if !line.MatchString(sc.Text()) {
			t.Errorf("malformed folded line: %q", sc.Text())
		}
		stack, _, _ := strings.Cut(sc.Text(), " ")
		compute = compute || strings.HasSuffix(stack, ";compute")
	}
	if lines == 0 || !compute {
		t.Errorf("folded output: %d lines, compute leaf %v", lines, compute)
	}
}

// TestListShowsRuntimeOnlyKernels: -list names every kernel -app runs, the
// study's applications and the runtime-only kernels, and marks the latter.
func TestListShowsRuntimeOnlyKernels(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		lines[strings.Fields(line)[0]] = line
	}
	for _, a := range apps.All() {
		if line, ok := lines[a.Name]; !ok || strings.Contains(line, "runtime only") {
			t.Errorf("study application %s: line %q, want one not marked runtime only", a.Name, line)
		}
	}
	for _, name := range []string{"LUNest", "TreeNest"} {
		if line := lines[name]; !strings.Contains(line, "runtime only") {
			t.Errorf("%s: line %q, want one marked runtime only", name, line)
		}
	}
	if want := len(apps.All()) + 2; len(lines) != want {
		t.Errorf("-list printed %d kernels, want %d:\n%s", len(lines), want, out.String())
	}
}

// TestRunValidation: bad invocations come back as errors, not os.Exit, with
// nothing on stdout. An unknown -app lists every kernel there is. Every
// numeric flag is also fed the values its domain refuses (refusedValues),
// each followed by -help: a value refused while flags are parsed fails with
// the flag package's error naming the flag, one accepted stops at -help
// instead.
func TestRunValidation(t *testing.T) {
	var kernels []string
	for _, a := range append(apps.All(), apps.RuntimeOnly()...) {
		kernels = append(kernels, a.Name)
	}
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-app is required"},
		{[]string{"-app", "Doom"}, `-app: apps: unknown application "Doom" (valid: ` + strings.Join(kernels, ", ") + ")"},
		{[]string{"-app", "EP", "-set", "OMP_SCHEDULE=sideways"}, "sideways"},
		{[]string{"-app", "EP", "-adaptive", "-min-reps", "5", "-max-reps", "3"}, "-max-reps 3: want >= -min-reps 5"},
		{[]string{"-app", "EP", "-trace-summary", "-trace-buf", "4611686018427387905"}, `invalid value "4611686018427387905" for flag -trace-buf: want int in [1, 16777216]`},
		{[]string{"-app", "EP", "-trace", filepath.Join(t.TempDir(), "t.json"), "-trace-buf", "99999999"}, `invalid value "99999999" for flag -trace-buf: want int in [1, 16777216]`},
	}
	check := func(t *testing.T, args []string, want string) {
		var out, errb bytes.Buffer
		err := run(args, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) error = %v, want one containing %q", args, err, want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote %q to stdout", args, out.String())
		}
	}
	for _, tc := range cases {
		check(t, tc.args, tc.want)
	}
	var stdout, help bytes.Buffer // -help: the listing on stderr, flag.ErrHelp, which main exits 0 on
	if err := run([]string{"-help"}, &stdout, &help); !errors.Is(err, flag.ErrHelp) || stdout.Len() != 0 {
		t.Fatalf("-help: error %v, %d bytes on stdout; want flag.ErrHelp and none", err, stdout.Len())
	}
	for _, r := range refusedValues(t, help.String()) {
		t.Run(r.flag+" "+r.word, func(t *testing.T) {
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
