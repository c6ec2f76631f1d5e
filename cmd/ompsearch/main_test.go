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
	"omptune/internal/env"
	"omptune/internal/obs"
)

// TestRunValidation is the loud-flag-validation table: every bad invocation
// must come back as an error naming the offending flag, not a silent default
// or an os.Exit, and write nothing to stdout. An unknown name's error lists
// the valid set. Every numeric flag is also fed the values its domain
// refuses (refusedValues), each followed by -help: a value refused while
// flags are parsed fails with the flag package's error naming the flag, one
// accepted stops at -help instead.
func TestRunValidation(t *testing.T) {
	var studyApps []string
	for _, a := range apps.All() {
		studyApps = append(studyApps, a.Name)
	}
	var variables []string
	for _, v := range env.Names() {
		variables = append(variables, string(v))
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the returned error
	}{
		{"unknown strategy", []string{"-app", "Nqueens", "-strategy", "brownian"}, `-strategy: core: unknown search strategy "brownian"`},
		{"strategy error names valid set", []string{"-app", "Nqueens", "-strategy", "brownian"}, "(valid: greedy, restart, anneal, surrogate, random)"},
		{"max-time unparsable", []string{"-app", "Nqueens", "-max-time", "5 minutes"}, "-max-time"},
		{"missing app", []string{"-strategy", "greedy"}, "-app is required"},
		{"unknown app", []string{"-app", "Doom"}, `-app: apps: unknown application "Doom" (valid: ` + strings.Join(studyApps, ", ") + ")"},
		{"runtime-only app", []string{"-app", "TreeNest"}, "TreeNest has no model profile"},
		{"unknown arch", []string{"-app", "Nqueens", "-arch", "riscv"}, `-arch: topology: unknown architecture "riscv" (valid: a64fx, skylake, milan)`},
		{"unknown setting", []string{"-app", "Nqueens", "-setting", "nope"}, `-setting: apps: Nqueens has no setting "nope" on a64fx (valid: small, medium, large)`},
		{"unknown thread setting", []string{"-app", "XSbench", "-arch", "skylake", "-setting", "t24"}, `XSbench has no setting "t24" on skylake (valid: t10, t20, t40)`},
		{"unknown backend", []string{"-app", "Nqueens", "-backend", "oracle"}, `-backend: core: unknown backend "oracle" (valid: model, measured)`},
		{"unknown order variable", []string{"-app", "Nqueens", "-order", "OMP_SCHEDULE,OMP_MOOD"}, `-order: env: unknown variable "OMP_MOOD" (valid: ` + strings.Join(variables, ", ") + ")"},
		{"positional junk", []string{"-app", "Nqueens", "extra"}, "unexpected arguments"},
	}
	check := func(t *testing.T, args []string, want string) {
		var out, errb bytes.Buffer
		err := run(context.Background(), args, &out, &errb)
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

// TestRunGreedyJSON runs a real (model-backend) search through the CLI and
// checks the -json document is complete and internally consistent.
func TestRunGreedyJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-app", "Nqueens", "-arch", "a64fx", "-strategy", "greedy", "-budget", "40", "-seed", "7", "-json"}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run(%v) error: %v\nstderr: %s", args, err, errb.String())
	}
	var doc searchJSON
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out.String())
	}
	if doc.Strategy != "greedy" || doc.Arch != "a64fx" || doc.App != "Nqueens" || doc.Backend != "model" || doc.Seed != 7 {
		t.Errorf("identity fields wrong: %+v", doc)
	}
	if doc.Evaluations <= 0 || doc.Evaluations > 40 {
		t.Errorf("Evaluations = %d, want in (0, 40]", doc.Evaluations)
	}
	if doc.Speedup < 1 || doc.BestSeconds > doc.DefaultSeconds {
		t.Errorf("search got slower: speedup %.3f, %.3fs -> %.3fs", doc.Speedup, doc.DefaultSeconds, doc.BestSeconds)
	}
	if doc.BestConfig == "" {
		t.Error("BestConfig is empty")
	}
	for _, st := range doc.Trajectory {
		if st.Eval < 1 || st.Eval > doc.Evaluations {
			t.Errorf("trajectory eval %d out of range [1, %d]", st.Eval, doc.Evaluations)
		}
	}
}

// TestRunTextAndTelemetry checks the human-readable output and that the
// telemetry stream lands on disk with the plan/step/done shape.
func TestRunTextAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	tel := filepath.Join(dir, "search.jsonl")
	var out, errb bytes.Buffer
	args := []string{"-app", "EP", "-arch", "skylake", "-strategy", "random", "-budget", "25", "-seed", "3", "-telemetry", tel}
	if err := run(context.Background(), args, &out, &errb); err != nil {
		t.Fatalf("run(%v) error: %v", args, err)
	}
	text := out.String()
	for _, want := range []string{"search random on EP@skylake", "25 evaluations", "best: "} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	raw, err := os.ReadFile(tel)
	if err != nil {
		t.Fatalf("telemetry file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	// search_plan + one search_step per evaluation + search_done.
	if len(lines) != 25+2 {
		t.Fatalf("telemetry lines = %d, want 27", len(lines))
	}
	var first, last map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("bad first telemetry line: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("bad last telemetry line: %v", err)
	}
	if first["type"] != "search_plan" || last["type"] != "search_done" {
		t.Errorf("telemetry bracket = %v ... %v, want search_plan ... search_done", first["type"], last["type"])
	}
}

// TestRunDeterministicAcrossInvocations: same flags, same bytes — the CLI
// inherits the seam's seeded determinism under the model backend.
func TestRunDeterministicAcrossInvocations(t *testing.T) {
	args := []string{"-app", "Sort", "-arch", "a64fx", "-strategy", "anneal", "-budget", "60", "-seed", "11", "-json"}
	var a, b, errb bytes.Buffer
	if err := run(context.Background(), args, &a, &errb); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(context.Background(), args, &b, &errb); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different output:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
}

// lockedBuffer is the stderr of a search running in another goroutine.
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

// TestServeMeasuredRuntimeTiles: a measured search served live feeds the one
// monitor's runtime latency histograms like a measured sweep does — the
// status payload carries the fork-join / barrier-wait / task-run tiles next
// to the probe latency, and /metrics counts the timed regions. The search
// runs in process on an ephemeral port; cancelling the context cuts the
// linger short.
func TestServeMeasuredRuntimeTiles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout bytes.Buffer
	stderr := &lockedBuffer{}
	exited := make(chan error, 1)
	args := []string{"-app", "Nqueens", "-arch", "a64fx", "-strategy", "random", "-budget", "10", "-seed", "2",
		"-backend", "measured", "-measure-reps", "1", "-serve", "127.0.0.1:0", "-serve-linger", "60s"}
	go func() { exited <- run(ctx, args, &stdout, stderr) }()

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s -> %d, %v", url, resp.StatusCode, err)
		}
		return string(body)
	}
	// The bound address comes from the stderr line; then poll to "done".
	var st obs.Status
	base := ""
	for deadline := time.Now().Add(2 * time.Minute); st.State != "done"; time.Sleep(20 * time.Millisecond) {
		select {
		case err := <-exited:
			t.Fatalf("search exited while it should linger: %v\nstderr: %s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("state=%q, want done\nstderr: %s", st.State, stderr.String())
		}
		if base == "" {
			_, rest, _ := strings.Cut(stderr.String(), "ompsearch: monitor: serving on ")
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				base = addr
			}
			continue
		}
		if err := json.Unmarshal([]byte(get(base+"/api/status")), &st); err != nil {
			t.Fatalf("/api/status: %v", err)
		}
	}
	metrics := get(base + "/metrics")
	cancel()
	if err := <-exited; err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	tiles := map[string]uint64{}
	for _, l := range st.Latencies {
		tiles[l.Name] = l.Count
	}
	if tiles["eval"] != 10 {
		t.Errorf("probe latency tile counts %d evaluations, want 10: %+v", tiles["eval"], st.Latencies)
	}
	for _, name := range []string{"region fork-join", "barrier wait", "task run"} {
		if tiles[name] == 0 {
			t.Errorf("status has no %q tile: %+v", name, st.Latencies)
		}
	}
	regions := 0.0
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "omptune_runtime_region_seconds_count "); ok {
			regions, _ = strconv.ParseFloat(v, 64)
		}
	}
	if regions <= 0 {
		t.Error("omptune_runtime_region_seconds_count is zero after a measured search")
	}
	if !strings.Contains(stdout.String(), "10 evaluations") {
		t.Errorf("result not printed after the linger was cut:\n%s", stdout.String())
	}
}
