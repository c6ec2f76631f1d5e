package omptune

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchRow is one line of a committed BENCH_<workload>.json trajectory, as
// `make bench-record` appends it, down to the fields every row must carry:
// the workload and seed run, the commit measured and its parent, the
// benchmark's host line and its result metrics.
type benchRow struct {
	Workload string         `json:"workload"`
	Seed     *int           `json:"seed"`
	Commit   string         `json:"commit"`
	Parent   string         `json:"parent"`
	Host     map[string]any `json:"host"`
	Result   struct {
		Metrics map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// endToEnd are the metrics BENCHMARK.json judges every workload on.
var endToEnd = []string{"wall_s", "work_per_s", "allocs_per_work", "setup_s"}

// parseBenchRow decodes one trajectory line and checks that it carries what
// a reader of the trajectory needs: workload, seed, commit, parent, host and
// result metrics, with every end-to-end metric present and finite.
func parseBenchRow(line []byte) (benchRow, error) {
	var r benchRow
	if err := json.Unmarshal(line, &r); err != nil {
		return r, err
	}
	switch {
	case r.Workload == "":
		return r, errors.New("no workload")
	case r.Seed == nil:
		return r, errors.New("no seed")
	case r.Commit == "" || r.Parent == "":
		return r, errors.New("no commit or parent")
	case len(r.Host) == 0:
		return r, errors.New("no host")
	case r.Result.Metrics == nil:
		return r, errors.New("no result metrics")
	}
	for _, name := range endToEnd {
		m, ok := r.Result.Metrics[name]
		if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			return r, fmt.Errorf("end-to-end metric %s missing or not finite", name)
		}
	}
	return r, nil
}

// TestBenchRowsParse reads every committed trajectory line by line: each line
// is one well-formed row of the workload its file is named after.
func TestBenchRowsParse(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json trajectories (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json")
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 1<<20)
		rows := 0
		for n := 1; sc.Scan(); n++ {
			r, err := parseBenchRow(sc.Bytes())
			if err != nil {
				t.Errorf("%s:%d: %v", f, n, err)
				continue
			}
			if r.Workload != want {
				t.Errorf("%s:%d: workload %q in the trajectory of %q", f, n, r.Workload, want)
			}
			rows++
		}
		if err := sc.Err(); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if rows == 0 {
			t.Errorf("%s: no rows", f)
		}
	}
}

// TestParseBenchRowRejects: a torn line, a row missing an identifying field
// and a row without an end-to-end metric are each refused.
func TestParseBenchRowRejects(t *testing.T) {
	good := `{"workload":"w","seed":1,"commit":"c","parent":"p","host":{"nproc":2},` +
		`"result":{"correct":true,"metrics":{"wall_s":{"value":1},"work_per_s":{"value":2},` +
		`"allocs_per_work":{"value":0},"setup_s":{"value":0.5}}}}`
	if _, err := parseBenchRow([]byte(good)); err != nil {
		t.Fatalf("good row refused: %v", err)
	}
	for name, line := range map[string]string{
		"torn":        good[:len(good)/2],
		"no seed":     strings.Replace(good, `"seed":1,`, "", 1),
		"no parent":   strings.Replace(good, `"parent":"p",`, "", 1),
		"no host":     strings.Replace(good, `"host":{"nproc":2},`, "", 1),
		"null metric": strings.Replace(good, `"setup_s":{"value":0.5}`, `"setup_s":{"value":null}`, 1),
		"no wall_s":   strings.Replace(good, `"wall_s":{"value":1},`, "", 1),
	} {
		if _, err := parseBenchRow([]byte(line)); err == nil {
			t.Errorf("%s: row accepted", name)
		}
	}
}

// FuzzBenchRow holds the trajectory reader to its contract on any line: it
// never panics, and a row it accepts is valid JSON carrying every identifying
// field and a finite value for each end-to-end metric. The seeds are the
// committed lines, each torn at several bytes, garbage and rows whose metrics
// are not finite numbers; the seeds' verdicts are checked before fuzzing.
func FuzzBenchRow(f *testing.F) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no BENCH_*.json trajectories (%v)", err)
	}
	var good, bad [][]byte
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			good = append(good, line)
			for _, cut := range []int{1, len(line) / 3, len(line) / 2, len(line) - 2, len(line) - 1} {
				bad = append(bad, line[:cut])
			}
		}
	}
	row := string(good[0])
	wall := `"wall_s":{"value":`
	at := strings.Index(row, wall)
	if at < 0 {
		f.Fatalf("first row has no wall_s: %s", row)
	}
	at += len(wall)
	end := at + strings.IndexAny(row[at:], ",}")
	for _, v := range []string{"1e999", "-1e999", "NaN", "Infinity", `"NaN"`, `"+Inf"`, "null"} {
		bad = append(bad, []byte(row[:at]+v+row[end:]))
	}
	bad = append(bad, nil, []byte("garbage"), []byte("{}"), []byte("[1,2]"), []byte("null"),
		[]byte(`{"workload":1}`), []byte("\x00\xff{"), bytes.Repeat([]byte("{"), 1000))
	for _, line := range good {
		if _, err := parseBenchRow(line); err != nil {
			f.Fatalf("committed row refused (%v): %s", err, line)
		}
		f.Add(line)
	}
	for _, line := range bad {
		if _, err := parseBenchRow(line); err == nil {
			f.Fatalf("bad row accepted: %q", line)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := parseBenchRow(line)
		if err != nil {
			return
		}
		if !json.Valid(line) {
			t.Fatalf("accepted a row that is not JSON: %q", line)
		}
		if r.Workload == "" || r.Seed == nil || r.Commit == "" || r.Parent == "" || len(r.Host) == 0 {
			t.Fatalf("accepted a row without its identifying fields: %q", line)
		}
		for _, name := range endToEnd {
			m, ok := r.Result.Metrics[name]
			if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
				t.Fatalf("accepted a row whose %s is missing or not finite: %q", name, line)
			}
		}
	})
}
