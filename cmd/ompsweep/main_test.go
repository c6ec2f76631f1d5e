package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/obs"
)

// TestRunValidation is the loud-flag-validation table: every bad invocation
// must come back as an error naming the offending flag, before any campaign
// starts. An unknown name's error lists the valid set. Every numeric flag
// is also fed the values its domain refuses (refusedValues), each followed
// by -help: a value refused while flags are parsed fails with the flag
// package's error naming the flag, one accepted stops at -help instead.
func TestRunValidation(t *testing.T) {
	var studyApps []string
	for _, a := range apps.All() {
		studyApps = append(studyApps, a.Name)
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the returned error
	}{
		{"frac above one", []string{"-frac", "1.5"}, `invalid value "1.5" for flag -frac: want finite float in [0, 1]`},
		{"adaptive-max below adaptive-min", []string{"-adaptive-min", "5", "-adaptive-max", "3"}, "-adaptive-max 3: want >= -adaptive-min 5"},
		{"runtime-only app", []string{"-apps", "LUNest"}, "LUNest has no model profile"},
		{"unknown backend", []string{"-backend", "oracle"}, `-backend: core: unknown backend "oracle" (valid: model, measured)`},
		{"shard malformed", []string{"-shard", "3"}, `-shard wants K/N with 0 <= K < N, got "3"`},
		{"shard out of range", []string{"-shard", "2/2"}, `got "2/2"`},
		{"shard selects nothing", []string{"-apps", "EP", "-shard", "1/2"}, "shard 1/2 selects no applications"},
		{"adaptive-cov without measured", []string{"-adaptive-cov", "0.05"}, "need -backend measured"},
		{"adaptive-ci without measured", []string{"-adaptive-ci", "0.05"}, "need -backend measured"},
		{"unknown arch", []string{"-arch", "a64fx,riscv"}, `-arch: topology: unknown architecture "riscv" (valid: a64fx, skylake, milan)`},
		{"unknown app", []string{"-apps", "EP,Doom"}, `-apps: apps: unknown application "Doom" (valid: ` + strings.Join(studyApps, ", ") + ")"},
	}
	check := func(t *testing.T, args []string, want string) {
		var out, errb bytes.Buffer
		err := run(context.Background(), args, &out, &errb)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run(%v) error = %v, want one containing %q", args, err, want)
		}
		if out.Len() != 0 {
			t.Errorf("a rejected invocation wrote %d bytes of CSV", out.Len())
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.args, tc.want) })
	}
	var stdout, help bytes.Buffer // -help: the listing on stderr, flag.ErrHelp, which main exits 0 on
	if err := run(context.Background(), []string{"-help"}, &stdout, &help); !errors.Is(err, flag.ErrHelp) || stdout.Len() != 0 {
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

// readCSV decodes a campaign CSV the way every consumer does.
func readCSV(t *testing.T, path string) *dataset.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := dataset.ReadCSV(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return ds
}

// TestMeasuredCampaignResumes runs a real-execution micro-campaign through
// the measured backend: one app per suite (NPB/BOTS/proxy) on one arch, a
// tiny slice of the space, two timed repetitions. The campaign completes,
// resumes byte-identically from its own checkpoint, and records only
// measured rows with positive runtimes and the real repetition count (2 —
// fixed -measure-reps) in their provenance columns.
func TestMeasuredCampaignResumes(t *testing.T) {
	dir := t.TempDir()
	sweep := func(out string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := []string{"-backend", "measured", "-arch", "a64fx", "-apps", "EP,Nqueens,XSbench",
			"-frac", "0.001", "-measure-reps", "2", "-checkpoint", filepath.Join(dir, "ck"), "-o", out}
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	first := sweep(filepath.Join(dir, "smoke.csv"))
	resumed := sweep(filepath.Join(dir, "resumed.csv"))
	if !bytes.Equal(first, resumed) {
		t.Error("the campaign resumed from its own checkpoint wrote a different CSV")
	}

	ds := readCSV(t, filepath.Join(dir, "smoke.csv"))
	if ds.Len() == 0 {
		t.Fatal("empty campaign")
	}
	for _, s := range ds.Samples {
		if s.Source != "measured" {
			t.Fatalf("unmeasured row: %+v", s)
		}
		if s.RepsRun != 2 {
			t.Fatalf("reps column %d, want 2: %+v", s.RepsRun, s)
		}
		for _, sec := range s.Runtimes {
			if sec <= 0 {
				t.Fatalf("non-positive runtime: %+v", s)
			}
		}
	}
}

// lockedBuffer is the stderr of a campaign running in another goroutine.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// served is one ompsweep campaign running with -serve on an ephemeral port
// and a long linger.
type served struct {
	t      *testing.T
	base   string // http://ADDR, scraped from the stderr address line
	stderr *lockedBuffer
	cancel context.CancelFunc
	exited chan error
}

// serve starts run(args + -serve + -serve-linger) and waits for the address
// line.
func serve(t *testing.T, args ...string) *served {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{t: t, stderr: &lockedBuffer{}, cancel: cancel, exited: make(chan error, 1)}
	t.Cleanup(cancel)
	args = append(args, "-serve", "127.0.0.1:0", "-serve-linger", "60s")
	go func() { s.exited <- run(ctx, args, io.Discard, s.stderr) }()
	const marker = "ompsweep: monitor: serving on http://"
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if _, rest, ok := strings.Cut(s.stderr.String(), marker); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				s.base = "http://" + addr
				return s
			}
		}
		select {
		case err := <-s.exited:
			t.Fatalf("campaign exited before serving: %v\nstderr: %s", err, s.stderr.String())
		default:
		}
	}
	t.Fatalf("no serving line\nstderr: %s", s.stderr.String())
	return nil
}

func (s *served) get(path string) string {
	s.t.Helper()
	resp, err := http.Get(s.base + path)
	if err != nil {
		s.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		s.t.Fatalf("GET %s -> %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// done polls /api/status until the campaign reaches "done" and returns that
// payload; the server is lingering by then.
func (s *served) done() obs.Status {
	s.t.Helper()
	var st obs.Status
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if err := json.Unmarshal([]byte(s.get("/api/status")), &st); err != nil {
			s.t.Fatalf("/api/status: %v", err)
		}
		if st.State == "done" {
			return st
		}
	}
	s.t.Fatalf("state=%s, want done\nstderr: %s", st.State, s.stderr.String())
	return st
}

// stop cuts the linger short by cancelling the context — the graceful
// shutdown path of Ctrl-C — and requires a clean exit.
func (s *served) stop() {
	s.t.Helper()
	s.cancel()
	select {
	case err := <-s.exited:
		if err != nil {
			s.t.Fatalf("campaign exited with %v\nstderr: %s", err, s.stderr.String())
		}
	case <-time.After(30 * time.Second):
		s.t.Fatal("campaign still lingering 30s after its context was cancelled")
	}
}

var expositionLine = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? [-+0-9.eE]+$`)

// TestLiveMonitor proves the live monitor end to end on a real measured
// micro-campaign: ompsweep runs with -serve on an ephemeral port, the bound
// address is scraped from its stderr line, and while the server lingers the
// test polls /api/status to "done", then asserts /healthz, a well-formed
// Prometheus exposition with nonzero campaign gauges and runtime-latency
// histogram counts, and a status payload carrying the heatmap cells and
// latency tiles. Cancelling the context cuts the linger short, and the
// campaign must still exit nil with a non-empty CSV.
func TestLiveMonitor(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "smoke.csv")
	s := serve(t, "-backend", "measured", "-arch", "a64fx", "-apps", "Nqueens",
		"-frac", "0.002", "-measure-reps", "2", "-o", csv)
	st := s.done()
	if got := s.get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	metrics := s.get("/metrics")
	s.stop()

	tile, cell := false, false
	for _, l := range st.Latencies {
		tile = tile || l.Name == "region fork-join"
	}
	for _, c := range st.Cells {
		cell = cell || c.Arch == "a64fx"
	}
	if !tile || !cell {
		t.Errorf("status lacks the region fork-join tile (%v) or an a64fx cell (%v): %+v", tile, cell, st)
	}

	sums := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %s", line)
		}
		series, value, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		sums[name] += v
	}
	for _, name := range []string{
		"omptune_sweep_settings_planned",
		"omptune_sweep_samples_done_total",
		"omptune_runtime_region_seconds_count",
		"omptune_sweep_setting_eval_seconds_count",
	} {
		if sums[name] <= 0 {
			t.Errorf("%s is zero", name)
		}
	}
	if ds := readCSV(t, csv); ds.Len() == 0 {
		t.Error("empty campaign CSV")
	}
}

// TestAdaptiveCampaignVariability proves the variability observatory end to
// end on a real adaptive measured micro-campaign: EP on a64fx with an 8% CoV
// target and two workers (more would time series against each other's load
// and inflate every CoV past the target), served live. The rep ceiling is
// pinned to the 4-rep fixed baseline so the savings assertion is structural —
// quiet series stop at 2, noisy ones cost no more than fixed — and the test
// is not hostage to the host's noise level (sub-millisecond kernels on a
// loaded machine can exceed any CoV target). It asserts the stopping rule
// genuinely adapted (the reps column takes at least two distinct values in
// [2, 4]), the adaptive policy spent fewer total repetitions than the fixed
// baseline, the observatory report ompanalyze -variability prints renders a
// table and a summary over the provenance, and the live monitor served the
// noise cells at /api/variability.
func TestAdaptiveCampaignVariability(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "adaptive.csv")
	s := serve(t, "-backend", "measured", "-arch", "a64fx", "-apps", "EP", "-frac", "0.02",
		"-measure-warmup", "1", "-adaptive-cov", "0.08", "-adaptive-max", "4", "-workers", "2", "-o", csv)
	s.done()
	var cells []obs.VariabilityCell
	if err := json.Unmarshal([]byte(s.get("/api/variability")), &cells); err != nil {
		t.Fatalf("/api/variability: %v", err)
	}
	s.stop()
	if len(cells) == 0 || cells[0].Arch != "a64fx" || cells[0].RepsRun <= 0 || cells[0].CoVP50 < 0 {
		t.Errorf("/api/variability cells = %+v, want an a64fx cell with repetitions and a CoV", cells)
	}

	ds := readCSV(t, csv)
	if ds.Len() == 0 {
		t.Fatal("empty campaign")
	}
	distinct := map[int]bool{}
	run, fixed := 0, 0
	for _, s := range ds.Samples {
		if s.RepsRun < 2 || s.RepsRun > 4 {
			t.Fatalf("reps %d outside [2, 4]: %+v", s.RepsRun, s)
		}
		if s.CoV < 0 || s.CIRel < 0 {
			t.Fatalf("negative noise estimate: %+v", s)
		}
		distinct[s.RepsRun] = true
		run += s.RepsRun
		fixed += 4
	}
	t.Logf("%d series, %d distinct rep counts, %d reps vs %d fixed", ds.Len(), len(distinct), run, fixed)
	if len(distinct) < 2 {
		t.Errorf("stopping rule never adapted: all %d series ran %d reps", ds.Len(), run/ds.Len())
	}
	if run >= fixed {
		t.Errorf("adaptive spent %d reps vs %d fixed — no savings", run, fixed)
	}

	report := core.Variability(ds).String()
	header, summary := false, false
	for _, line := range strings.Split(report, "\n") {
		header = header || strings.HasPrefix(line, "arch ")
		if strings.HasPrefix(line, "adaptive measurement: ") {
			var repsRun, repsFixed int
			if _, err := fmt.Sscanf(line, "adaptive measurement: %d reps run vs %d fixed", &repsRun, &repsFixed); err != nil || repsRun <= 0 || repsFixed <= 0 {
				t.Errorf("degenerate summary: %s", line)
			}
			summary = true
		}
	}
	if !header || !summary {
		t.Errorf("observatory report lacks its table header (%v) or summary line (%v):\n%s", header, summary, report)
	}
}
