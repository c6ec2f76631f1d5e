package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// smallCampaign is a fast-but-nontrivial sweep spec shared by the engine
// tests: one arch, one app, three settings, ~10% of the space.
func smallCampaign() SweepConfig {
	return SweepConfig{
		Arches:   []topology.Arch{topology.A64FX},
		Apps:     []string{"Sort"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.1},
	}
}

func sweepCSV(t *testing.T, sc SweepConfig) []byte {
	t.Helper()
	ds, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func TestParallelSweepMatchesSerialCSV(t *testing.T) {
	serial := smallCampaign()
	serial.Workers = 1
	parallel := smallCampaign()
	parallel.Workers = 8
	a := sweepCSV(t, serial)
	b := sweepCSV(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel sweep CSV differs from serial: %d vs %d bytes", len(b), len(a))
	}
	// Two arches, so merged batches cross an architecture boundary too.
	multi := SweepConfig{
		Arches:   []topology.Arch{topology.Milan, topology.A64FX},
		Apps:     []string{"CG"},
		Fraction: map[topology.Arch]float64{topology.Milan: 0.03, topology.A64FX: 0.03},
	}
	multiSerial, multiParallel := multi, multi
	multiSerial.Workers = 1
	multiParallel.Workers = 8
	if !bytes.Equal(sweepCSV(t, multiSerial), sweepCSV(t, multiParallel)) {
		t.Fatal("multi-arch parallel sweep CSV differs from serial")
	}
}

// withoutDefault returns a copy of u planned over u's space with the default
// configuration stripped: its own key table and kept list, derived exactly
// as planUnits derives them, so the original unit's shared table is intact.
func withoutDefault(u *sweepUnit) *sweepUnit {
	var filtered []env.Config
	for _, cfg := range u.space {
		if cfg != u.defCfg {
			filtered = append(filtered, cfg)
		}
	}
	broken := *u
	broken.configTable, broken.kept = newConfigTable(filtered, u.defCfg), nil
	sampleUnits([]*sweepUnit{&broken})
	return &broken
}

// TestEvalUnitDefaultMissingFromSpace is the regression test for the
// enrichment bug: a space without the default configuration used to leave
// DefaultRuntime = 0 on every sample, poisoning speedups downstream.
func TestEvalUnitDefaultMissingFromSpace(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := withoutDefault(units[0])
	if u.cfgCount != units[0].cfgCount-1 {
		t.Fatalf("stripped unit plans %d configurations, want %d", u.cfgCount, units[0].cfgCount-1)
	}
	if _, _, err := evalUnit(u, ModelEvaluator{}); err == nil {
		t.Fatal("evalUnit accepted a space without the default configuration")
	} else if !strings.Contains(err.Error(), "default configuration") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// And with the default present, every sample is enriched with its mean.
	samples, _, err := evalUnit(units[0], ModelEvaluator{})
	if err != nil {
		t.Fatalf("evalUnit: %v", err)
	}
	for _, s := range samples {
		if s.DefaultRuntime <= 0 {
			t.Fatalf("sample %s not enriched: DefaultRuntime = %v", s.SettingKey(), s.DefaultRuntime)
		}
	}
}

func TestPlanUnitsRejectsBadFraction(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		sc := smallCampaign()
		sc.Fraction[topology.A64FX] = bad
		if _, err := RunSweep(sc); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
}

func TestCheckpointResumeAfterInterrupt(t *testing.T) {
	dir := t.TempDir()
	want := sweepCSV(t, smallCampaign()) // oracle: plain uncheckpointed run

	// First run: cancel as soon as the first setting batch completes. The
	// engine lets in-flight batches finish, so one or two of the three
	// settings end up journaled.
	ctx, cancel := context.WithCancel(context.Background())
	first := smallCampaign()
	first.Workers = 1
	first.CheckpointDir = dir
	first.Context = ctx
	first.OnProgress = func(ProgressEvent) { cancel() }
	if _, err := RunSweep(first); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatalf("journal after interrupt: %v", err)
	}
	done := strings.Count(string(journal), "\n")
	if done == 0 || done >= 3 {
		t.Fatalf("journaled settings after interrupt = %d, want in [1, 2]", done)
	}

	// Resume: the journaled settings must come back without re-evaluation
	// and the final CSV must match the oracle byte for byte.
	var resumed, evaluated int
	second := smallCampaign()
	second.Workers = 4
	second.CheckpointDir = dir
	second = countResumes(second, &resumed, &evaluated)
	got := sweepCSV(t, second)
	if resumed != done {
		t.Errorf("resumed %d settings, want %d from the journal", resumed, done)
	}
	if evaluated != 3-done {
		t.Errorf("re-evaluated %d settings, want %d", evaluated, 3-done)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed sweep CSV differs from an uninterrupted run")
	}

	// Third run over a complete checkpoint: everything resumes, nothing is
	// evaluated.
	resumed, evaluated = 0, 0
	if got := sweepCSV(t, second); !bytes.Equal(got, want) {
		t.Fatal("fully-checkpointed sweep CSV differs")
	}
	if resumed != 3 || evaluated != 0 {
		t.Errorf("complete checkpoint: resumed %d evaluated %d, want 3 and 0", resumed, evaluated)
	}
}

func TestCheckpointRejectsDifferentCampaign(t *testing.T) {
	dir := t.TempDir()
	sc := smallCampaign()
	sc.CheckpointDir = dir
	sc.Shard = "0/2"
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}

	cases := map[string]func(*SweepConfig){
		"different shard":    func(s *SweepConfig) { s.Shard = "1/2" },
		"different fraction": func(s *SweepConfig) { s.Fraction = map[topology.Arch]float64{topology.A64FX: 0.2} },
		"different apps":     func(s *SweepConfig) { s.Apps = []string{"CG"} },
		"extended space":     func(s *SweepConfig) { s.Extended = true },
	}
	for name, mutate := range cases {
		other := smallCampaign()
		other.CheckpointDir = dir
		other.Shard = "0/2"
		mutate(&other)
		if _, err := RunSweep(other); err == nil {
			t.Errorf("%s: checkpoint from another campaign accepted", name)
		} else if !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("%s: unhelpful error: %v", name, err)
		}
	}

	// The identical spec still resumes fine.
	same := smallCampaign()
	same.CheckpointDir = dir
	same.Shard = "0/2"
	if _, err := RunSweep(same); err != nil {
		t.Errorf("identical campaign rejected: %v", err)
	}
}

// countResumes returns sc with an OnProgress that counts resumed and
// evaluated settings into the two ints.
func countResumes(sc SweepConfig, resumed, evaluated *int) SweepConfig {
	*resumed, *evaluated = 0, 0
	sc.OnProgress = func(ev ProgressEvent) {
		if ev.Resumed {
			*resumed++
		} else {
			*evaluated++
		}
	}
	return sc
}

// tearJournal appends a half-written record to dir's journal, as a run
// killed mid-append leaves it.
func tearJournal(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"unit":2,"key":"ga`); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	sc := smallCampaign()
	sc.CheckpointDir = dir
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	tearJournal(t, dir)
	var resumed, evaluated int
	if _, err := RunSweep(countResumes(sc, &resumed, &evaluated)); err != nil {
		t.Fatalf("resume over torn journal: %v", err)
	}
	if resumed != 3 || evaluated != 0 {
		t.Errorf("torn complete journal: resumed %d evaluated %d, want 3 and 0", resumed, evaluated)
	}

	// Interrupt, tear, resume, resume: the first resume journals the
	// settings it evaluates, and the second must find them all. Appending
	// onto the torn line used to hide every record after it from all later
	// resumes.
	dir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	first := smallCampaign()
	first.Workers = 1
	first.CheckpointDir = dir
	first.Context = ctx
	first.OnProgress = func(ProgressEvent) { cancel() }
	if _, err := RunSweep(first); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	tearJournal(t, dir)
	want := sweepCSV(t, smallCampaign())
	sc.CheckpointDir = dir
	if got := sweepCSV(t, countResumes(sc, &resumed, &evaluated)); !bytes.Equal(got, want) {
		t.Fatal("resumed sweep CSV differs from an uninterrupted run")
	}
	if resumed+evaluated != 3 || evaluated == 0 {
		t.Errorf("first resume: resumed %d evaluated %d, want some of 3 evaluated", resumed, evaluated)
	}
	if got := sweepCSV(t, countResumes(sc, &resumed, &evaluated)); !bytes.Equal(got, want) {
		t.Fatal("second resumed sweep CSV differs from an uninterrupted run")
	}
	if resumed != 3 || evaluated != 0 {
		t.Errorf("second resume: resumed %d evaluated %d, want 3 and 0", resumed, evaluated)
	}
}

// TestCheckpointRejectsForeignSegmentPath: a journal entry's file is the
// unit's own segment name, never a path the journal supplies.
func TestCheckpointRejectsForeignSegmentPath(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "ck")
	sc := smallCampaign()
	sc.CheckpointDir = dir
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	// A well-formed segment outside the directory, which the entry names.
	seg, err := os.ReadFile(filepath.Join(dir, "unit-00000.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "x.csv"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	jPath := filepath.Join(dir, "journal.jsonl")
	journal, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(journal), `"file":"unit-00000.csv"`, `"file":"../x.csv"`, 1)
	if forged == string(journal) {
		t.Fatalf("journal names no unit-00000.csv: %s", journal)
	}
	if err := os.WriteFile(jPath, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(sc); err == nil || !strings.Contains(err.Error(), "does not match the campaign plan") {
		t.Fatalf("journal entry naming ../x.csv: err = %v, want a campaign-plan mismatch", err)
	}
}

// TestCheckpointRejectsForeignSegmentRows: a segment holding another unit's
// rows is rejected, even when the journal's row count matches it.
func TestCheckpointRejectsForeignSegmentRows(t *testing.T) {
	dir := t.TempDir()
	sc := smallCampaign()
	sc.CheckpointDir = dir
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "unit-00001.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "unit-00000.csv"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	jPath := filepath.Join(dir, "journal.jsonl")
	journal, err := os.ReadFile(jPath)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[int]journalEntry{}
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n") {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		entries[e.Unit] = e
	}
	var forged bytes.Buffer
	for unit, e := range entries {
		if unit == 0 {
			e.Samples = entries[1].Samples
		}
		raw, _ := json.Marshal(e)
		forged.Write(append(raw, '\n'))
	}
	if err := os.WriteFile(jPath, forged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RunSweep(sc)
	if err == nil || !strings.Contains(err.Error(), "segment for "+entries[0].Key+" holds a row of "+entries[1].Key) {
		t.Fatalf("unit 1's rows under unit 0: err = %v, want a rejection naming both units", err)
	}
}

func TestProgressReportsRatesAndTotals(t *testing.T) {
	var events []ProgressEvent
	sc := smallCampaign()
	sc.Workers = 1
	sc.OnProgress = func(ev ProgressEvent) { events = append(events, ev) }
	var lines bytes.Buffer
	sc.Progress = &lines
	ds, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("%d progress events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.SettingsDone != 3 || last.SettingsTotal != 3 {
		t.Errorf("final settings count %d/%d, want 3/3", last.SettingsDone, last.SettingsTotal)
	}
	if last.SamplesDone != ds.Len() || last.SamplesTotal != ds.Len() {
		t.Errorf("final samples %d/%d, want %d/%d (planning totals must be exact)",
			last.SamplesDone, last.SamplesTotal, ds.Len(), ds.Len())
	}
	if last.SamplesPerSec <= 0 {
		t.Error("final event has no throughput estimate")
	}
	if last.ETA != 0 {
		t.Errorf("final event ETA = %v, want 0", last.ETA)
	}
	for _, ev := range events {
		if ev.Resumed {
			t.Error("non-checkpointed sweep reported a resumed setting")
		}
	}
	if got := strings.Count(lines.String(), "\n"); got != 3 {
		t.Errorf("progress writer got %d lines, want 3", got)
	}
	if !strings.Contains(lines.String(), "a64fx Sort") {
		t.Errorf("progress lines lack batch identity: %q", lines.String())
	}
}

// TestWorkerErrorAborts ensures an evaluation failure surfaces instead of
// hanging the pool or producing a partial dataset.
func TestWorkerErrorAborts(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one unit's space (default missing) and run it through the
	// pool path directly.
	pending := []*sweepUnit{units[0], withoutDefault(units[1]), units[2]}
	results := make([][]*dataset.Sample, len(units))
	rep := newReporter(nil, nil, nil)
	err = runUnits(context.Background(), SweepConfig{Workers: 2}, ModelEvaluator{}, pending, results, nil, rep)
	if err == nil || !strings.Contains(err.Error(), "default configuration") {
		t.Fatalf("pool error = %v, want default-configuration failure", err)
	}
}
