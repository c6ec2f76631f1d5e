package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// readTelemetry parses every JSONL record from the log.
func readTelemetry(t *testing.T, path string) []Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open telemetry log: %v", err)
	}
	defer f.Close()
	var recs []Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec Event
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d not valid JSON: %v\n%s", len(recs), err, sc.Text())
		}
		if rec.TS.IsZero() || rec.TS.Location() != time.UTC {
			t.Fatalf("record %d timestamp %v, want a UTC instant: %s", len(recs), rec.TS, sc.Text())
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSweepTelemetryRecordStream(t *testing.T) {
	log := filepath.Join(t.TempDir(), "run.jsonl")
	ds, err := RunSweep(SweepConfig{
		Arches:       []topology.Arch{topology.A64FX},
		Apps:         []string{"Sort"},
		Fraction:     map[topology.Arch]float64{topology.A64FX: 0.05},
		TelemetryLog: log,
		// A long heartbeat period isolates the deterministic records (plan,
		// immediate first heartbeat, setting_done ×3, done) from timing.
		TelemetryInterval: time.Hour,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}

	recs := readTelemetry(t, log)
	if len(recs) != 6 {
		for _, r := range recs {
			t.Logf("record: %+v", r)
		}
		t.Fatalf("got %d records, want 6 (plan, heartbeat, 3× setting_done, done)", len(recs))
	}

	plan := recs[0]
	if plan.Type != "plan" {
		t.Fatalf("first record type %q, want plan", plan.Type)
	}
	if plan.Backend != "model" {
		t.Errorf("plan backend %q, want model", plan.Backend)
	}
	if plan.SettingsTotal != 3 {
		t.Errorf("plan settings_total %d, want 3 (Sort's settings)", plan.SettingsTotal)
	}
	if plan.SamplesTotal <= 0 || plan.Workers <= 0 {
		t.Errorf("plan samples_total %d / workers %d, want both positive", plan.SamplesTotal, plan.Workers)
	}
	if len(plan.Arches) != 1 || plan.Arches[0] != "a64fx" {
		t.Errorf("plan arches %v, want [a64fx]", plan.Arches)
	}

	if recs[1].Type != "heartbeat" {
		t.Fatalf("second record type %q, want the immediate heartbeat", recs[1].Type)
	}
	if recs[1].SettingsDone != 0 || recs[1].SamplesDone != 0 {
		t.Errorf("immediate heartbeat reports done=%d/%d, want 0/0",
			recs[1].SettingsDone, recs[1].SamplesDone)
	}
	if ap, ok := recs[1].PerArch["a64fx"]; !ok || ap.SettingsTotal != 3 {
		t.Errorf("immediate heartbeat per_arch = %+v, want a64fx with 3 settings", recs[1].PerArch)
	}

	// setting_done records: counters must be monotonic and end exactly at the
	// plan totals; the dataset row count must match the telemetry's.
	samples := 0
	for i, rec := range recs[2:5] {
		if rec.Type != "setting_done" {
			t.Fatalf("record %d type %q, want setting_done", i+2, rec.Type)
		}
		if rec.Arch != "a64fx" || rec.App != "Sort" || rec.Setting == "" {
			t.Errorf("setting_done identity %s/%s/%s", rec.Arch, rec.App, rec.Setting)
		}
		if rec.SettingsDone != i+1 {
			t.Errorf("setting_done %d reports settings_done=%d", i, rec.SettingsDone)
		}
		samples += rec.Samples
		if rec.SamplesDone != samples {
			t.Errorf("setting_done %d samples_done=%d, want running total %d", i, rec.SamplesDone, samples)
		}
	}
	if samples != ds.Len() {
		t.Errorf("telemetry counted %d samples, dataset has %d", samples, ds.Len())
	}

	done := recs[5]
	if done.Type != "done" {
		t.Fatalf("last record type %q, want done", done.Type)
	}
	if done.SettingsDone != 3 || done.SamplesDone != ds.Len() {
		t.Errorf("done record %d settings / %d samples, want 3 / %d",
			done.SettingsDone, done.SamplesDone, ds.Len())
	}
	if done.WorkersBusy != 0 {
		t.Errorf("done record workers_busy=%d, want 0 after the pool drains", done.WorkersBusy)
	}
	if ap := done.PerArch["a64fx"]; ap.SettingsDone != 3 || ap.SamplesDone != ds.Len() {
		t.Errorf("done per_arch a64fx = %+v, want 3 settings / %d samples", ap, ds.Len())
	}
}

func TestSweepTelemetryErrorRecord(t *testing.T) {
	log := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the sweep must fail after planning
	_, err := RunSweep(SweepConfig{
		Arches:            []topology.Arch{topology.A64FX},
		Apps:              []string{"Sort"},
		Fraction:          map[topology.Arch]float64{topology.A64FX: 0.05},
		Context:           ctx,
		TelemetryLog:      log,
		TelemetryInterval: time.Hour,
	})
	if err == nil {
		t.Fatal("cancelled sweep should error")
	}
	recs := readTelemetry(t, log)
	if len(recs) == 0 {
		t.Fatal("no telemetry records")
	}
	last := recs[len(recs)-1]
	if last.Type != "error" {
		t.Fatalf("last record type %q, want error", last.Type)
	}
	if last.Error == "" {
		t.Error("error record carries no message")
	}
}

func TestTelemetryHeartbeatLoop(t *testing.T) {
	log := filepath.Join(t.TempDir(), "hb.jsonl")
	led := newReporter(nil, nil)
	if err := led.openTelemetry(log, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	led.plan(nil, "model", 2)
	started := led.unitStart()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no periodic heartbeat within 2s")
		}
		time.Sleep(10 * time.Millisecond)
		// plan + immediate heartbeat = 2 records; any third is periodic.
		if len(readTelemetry(t, log)) >= 3 {
			break
		}
	}
	led.unitEnd(nil, started)
	led.finish(nil)
	recs := readTelemetry(t, log)
	sawBusy := false
	for _, rec := range recs[2:] {
		if rec.Type == "heartbeat" && rec.WorkersBusy == 1 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Error("no heartbeat observed workers_busy=1 while a unit was in flight")
	}
	if recs[len(recs)-1].Type != "done" {
		t.Errorf("last record %q, want done", recs[len(recs)-1].Type)
	}
}

// TestLedgerViewsAgree attaches every observer of a sweep at once — progress
// line, OnProgress, telemetry log, monitor — and checks that the last batch's
// event reaches OnProgress and the log as one value, and that it, the
// terminal telemetry record, Monitor.Status() and the summed cell grid report
// the same campaign, including when one batch is resumed from a checkpoint or
// drops a failed sample. The search cases do the same for a search's ledger:
// result, terminal record, status, gauges and the single cell, on one clock.
func TestLedgerViewsAgree(t *testing.T) {
	t.Run("search", testSearchLedgerViewsAgree)
	campaign := func() SweepConfig {
		return SweepConfig{
			Arches:   []topology.Arch{topology.A64FX, topology.Milan},
			Apps:     []string{"Sort", "Nqueens"},
			Fraction: map[topology.Arch]float64{topology.A64FX: 0.05, topology.Milan: 0.03},
			Workers:  2,
		}
	}
	units, err := planUnits(campaign())
	if err != nil {
		t.Fatal(err)
	}
	planned := 0
	for _, u := range units {
		planned += u.cfgCount
	}

	cases := []struct {
		name string
		// prepare adjusts the campaign and returns how many batches must come
		// back resumed and how many planned rows must be skipped.
		prepare func(t *testing.T, sc *SweepConfig) (resumed, skipped int)
	}{
		{"clean", func(*testing.T, *SweepConfig) (int, int) { return 0, 0 }},
		{"resumed batch", func(t *testing.T, sc *SweepConfig) (int, int) {
			ctx, cancel := context.WithCancel(context.Background())
			first := campaign()
			first.Workers = 1
			first.CheckpointDir = t.TempDir()
			first.Context = ctx
			first.OnProgress = func(Event) { cancel() }
			if _, err := RunSweep(first); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
			}
			journal, err := os.ReadFile(filepath.Join(first.CheckpointDir, "journal.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			sc.CheckpointDir = first.CheckpointDir
			return strings.Count(string(journal), "\n"), 0
		}},
		{"skipped-sample batch", func(t *testing.T, sc *SweepConfig) (int, int) {
			sc.Backend = failing(sampledNonDefault(t, units[0]))
			return 0, 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := campaign()
			wantResumed, wantSkipped := tc.prepare(t, &sc)
			var (
				last   Event
				events int
				lines  bytes.Buffer
			)
			mon := NewMonitor()
			sc.Monitor = mon
			sc.OnProgress = func(ev Event) { last = ev; events++; fmt.Fprintln(&lines, ev.String()) }
			sc.TelemetryLog = filepath.Join(t.TempDir(), "run.jsonl")
			sc.TelemetryInterval = time.Hour
			ds, err := RunSweep(sc)
			if err != nil {
				t.Fatalf("RunSweep: %v", err)
			}

			recs := readTelemetry(t, sc.TelemetryLog)
			done := recs[len(recs)-1]
			if done.Type != "done" {
				t.Fatalf("terminal record type %q, want done", done.Type)
			}
			var lastSetting Event
			resumed, skipped := 0, 0
			for _, rec := range recs {
				if rec.Type != "setting_done" {
					continue
				}
				lastSetting = rec
				if rec.Resumed {
					resumed++
				}
				skipped += rec.SamplesSkipped
				if (rec.Error != "") != (rec.SamplesSkipped > 0) {
					t.Errorf("setting_done with %d skipped rows carries error %q", rec.SamplesSkipped, rec.Error)
				}
			}
			if wantResumed > 0 && resumed == 0 {
				t.Fatal("no batch was resumed; the case tests nothing")
			}
			if resumed != wantResumed || skipped != wantSkipped {
				t.Errorf("stream shows %d resumed batches / %d skipped rows, want %d / %d",
					resumed, skipped, wantResumed, wantSkipped)
			}

			st := mon.Status()
			if st.State != "done" || st.Backend != recs[0].Backend || st.Workers != recs[0].Workers {
				t.Errorf("status %s/%s/%d vs plan record %s/%d", st.State, st.Backend, st.Workers, recs[0].Backend, recs[0].Workers)
			}

			// One row per view of the shared progress fields.
			type view struct {
				settingsDone, settingsTotal, samplesDone, samplesTotal int
				rate                                                   float64
			}
			var cellSum, archSum view
			for _, c := range st.Cells {
				cellSum.settingsDone += c.SettingsDone
				cellSum.settingsTotal += c.SettingsTotal
				cellSum.samplesDone += c.SamplesDone
				cellSum.samplesTotal += c.SamplesTotal
			}
			for _, ap := range done.PerArch {
				archSum.settingsDone += ap.SettingsDone
				archSum.settingsTotal += ap.SettingsTotal
				archSum.samplesDone += ap.SamplesDone
				archSum.samplesTotal += ap.SamplesTotal
			}
			want := view{len(units), len(units), ds.Len(), planned, last.SamplesPerSec}
			cellSum.rate, archSum.rate = want.rate, want.rate // the roll-ups carry no rate
			for name, got := range map[string]view{
				"final OnProgress event": {last.SettingsDone, last.SettingsTotal, last.SamplesDone, last.SamplesTotal, last.SamplesPerSec},
				"terminal record":        {done.SettingsDone, done.SettingsTotal, done.SamplesDone, done.SamplesTotal, done.SamplesPerSec},
				"Monitor.Status":         {st.SettingsDone, st.SettingsTotal, st.SamplesDone, st.SamplesTotal, st.SamplesPerSec},
				"summed Status.Cells":    cellSum,
				"summed record per_arch": archSum,
			} {
				if got != want {
					t.Errorf("%s = %+v, want %+v", name, got, want)
				}
			}
			if ds.Len() != planned-wantSkipped {
				t.Errorf("dataset has %d rows, want %d planned - %d skipped", ds.Len(), planned, wantSkipped)
			}
			if events != len(units) || last.SamplesPerSec <= 0 {
				t.Errorf("%d events / rate %v, want %d events and a positive rate", events, last.SamplesPerSec, len(units))
			}

			// One record: the last batch's line in the log is the value
			// OnProgress received, and the clock stopped with the campaign.
			logged, err1 := json.Marshal(lastSetting)
			handed, err2 := json.Marshal(last)
			if err1 != nil || err2 != nil || !bytes.Equal(logged, handed) {
				t.Errorf("last setting_done record %s, OnProgress event %s", logged, handed)
			}
			// Skipped rows are settled, not still to come: nothing remains
			// after the last batch even when the campaign dropped a row.
			if last.ETASec != 0 {
				t.Errorf("last batch ETA = %vs with every planned row settled, want 0", last.ETASec)
			}
			if st.ETASec != 0 || done.ETASec != 0 {
				t.Errorf("eta after done: status %v, record %v", st.ETASec, done.ETASec)
			}
			if st.ElapsedSec != done.ElapsedSec || done.ElapsedSec < lastSetting.ElapsedSec {
				t.Errorf("elapsed: status %v, done record %v, last batch %v", st.ElapsedSec, done.ElapsedSec, lastSetting.ElapsedSec)
			}
			if st.WorkersBusy != 0 || done.WorkersBusy != 0 {
				t.Errorf("workers busy after the pool drained: status %d, record %d", st.WorkersBusy, done.WorkersBusy)
			}
			progress := strings.Split(strings.TrimSpace(lines.String()), "\n")
			if len(progress) != len(units) || progress[len(progress)-1] != last.String() {
				t.Errorf("progress lines: %d lines ending %q, want %d ending %q",
					len(progress), progress[len(progress)-1], len(units), last.String())
			}
		})
	}
}

// hookedBackend calls each after every series the backend below it ran, with
// the running count — a seat inside a search from which to scrape the monitor
// or cancel the context.
type hookedBackend struct {
	*seamBackend
	each func(n int)
}

func (b hookedBackend) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) ([sim.Reps]float64, dataset.SeriesMeta, error) {
	out, meta, err := b.seamBackend.EvaluateSeries(m, app, cfg, key, set)
	b.each(len(b.asked))
	return out, meta, err
}

// gaugeValue reads one unlabelled series from a Prometheus exposition.
func gaugeValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("exposition has no series %s", name)
	return 0
}

func testSearchLedgerViewsAgree(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	const budget = 60
	cases := []struct {
		name, strategy string
		fail           bool // the pool's fastest configuration fails to measure
		cancelAt       int  // cancel the context after this many series (0 = never)
	}{
		{"clean", "greedy", false, 0},
		{"cancelled mid-search", "random", false, 5},
		{"failed series", "random", true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mon := NewMonitor()
			if st := mon.Status(); st.State != "waiting" {
				t.Fatalf("state before the search %q, want waiting", st.State)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool := env.Space(m)[:8]
			ev := hookedBackend{seamBackend: failing()}
			if tc.fail {
				ev.fail[pool[3]] = true
			}
			var during string
			ev.each = func(n int) {
				if n == 2 {
					during = mon.Status().State
				}
				if n == tc.cancelAt {
					cancel()
				}
			}
			searcher, err := NewSearcher(tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			// A scraper polls the monitor from its own goroutine for the whole
			// search, as an HTTP handler would (the race detector's seat).
			searched := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-searched:
						return
					default:
						mon.Status()
						mon.reg.WritePrometheus(io.Discard)
					}
				}
			}()
			log := filepath.Join(t.TempDir(), "search.jsonl")
			res, err := searcher.Search(ctx, SearchSpec{
				Machine: m, App: app, Setting: set, Space: pool, Seed: 5,
				Evaluator: ev, Budget: SearchBudget{MaxEvals: budget},
				TelemetryLog: log, Monitor: mon,
			})
			close(searched)
			<-scraped
			wantState, wantType := "done", "search_done"
			if tc.cancelAt > 0 {
				wantState, wantType = "error", "error"
				if !errors.Is(err, context.Canceled) || res.Evaluations >= budget {
					t.Fatalf("err = %v after %d evaluations, want context.Canceled before the budget", err, res.Evaluations)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if tc.fail && len(ev.asked) == res.Evaluations {
				t.Fatal("no probe was answered by the cache; the case tests nothing")
			}

			raw, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			var recs []Event
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				var rec Event
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("bad JSONL line %q: %v", line, err)
				}
				recs = append(recs, rec)
			}
			last, lastStep := recs[len(recs)-1], recs[len(recs)-2]
			if recs[0].Type != "search_plan" || lastStep.Type != "search_step" || last.Type != wantType {
				t.Fatalf("stream %s … %s, %s; want search_plan … search_step, %s", recs[0].Type, lastStep.Type, last.Type, wantType)
			}
			if (last.Error != "") != (tc.cancelAt > 0) {
				t.Errorf("terminal record error %q", last.Error)
			}
			if last.Strategy != tc.strategy || last.Arch != "a64fx" || last.App != "Nqueens" || last.Setting != set.Label ||
				last.BestConfig != res.Best.Key() || last.SpaceSize != len(pool) {
				t.Errorf("terminal record %s/%s/%s/%s best %q over %d, want %s/a64fx/Nqueens/%s best %q over %d",
					last.Strategy, last.Arch, last.App, last.Setting, last.BestConfig, last.SpaceSize,
					tc.strategy, set.Label, res.Best.Key(), len(pool))
			}

			st := mon.Status()
			if during != "running" || st.State != wantState {
				t.Errorf("state walked waiting → %s → %s, want running → %s", during, st.State, wantState)
			}
			if want := "seam (" + tc.strategy + ")"; st.Backend != want || st.Workers != 1 {
				t.Errorf("status backend %q / %d workers, want %q / 1", st.Backend, st.Workers, want)
			}
			if len(st.Cells) != 1 || st.Cells[0].Arch != "a64fx" || st.Cells[0].App != "Nqueens" {
				t.Fatalf("cells = %+v, want the one a64fx/Nqueens cell", st.Cells)
			}
			var expo strings.Builder
			if err := mon.reg.WritePrometheus(&expo); err != nil {
				t.Fatal(err)
			}
			gauge := func(name string) float64 { return gaugeValue(t, expo.String(), name) }

			// One row per view of the search's shared fields; a view that
			// lacks a field carries the wanted value.
			type view struct {
				evals, planned, hits int
				best, elapsed        float64
			}
			want := view{res.Evaluations, budget, res.CacheHits, res.Speedup(), st.ElapsedSec}
			for name, got := range map[string]view{
				"terminal record":  {last.Evaluations, recs[0].BudgetEvals, last.CacheHits, last.BestSpeedup, last.ElapsedSec},
				"last search_step": {lastStep.Eval, budget, want.hits, lastStep.BestSpeedup, want.elapsed},
				"Monitor.Status":   {st.SamplesDone, st.SamplesTotal, want.hits, want.best, st.ElapsedSec},
				"the cell":         {st.Cells[0].SamplesDone, st.Cells[0].SamplesTotal, want.hits, want.best, want.elapsed},
				"omptune_search_* gauges": {
					int(gauge("omptune_search_evaluations")), int(gauge("omptune_search_budget_evals")),
					int(gauge("omptune_search_cache_hits")), gauge("omptune_search_best_speedup"),
					gauge("omptune_search_elapsed_seconds"),
				},
			} {
				if got != want {
					t.Errorf("%s = %+v, want %+v", name, got, want)
				}
			}
			if steps := len(recs) - 2; steps != res.Evaluations {
				t.Errorf("%d search_step records, want one per evaluation (%d)", steps, res.Evaluations)
			}
			if want.best < 1 || want.elapsed <= 0 || want.hits != res.Evaluations-len(ev.asked) {
				t.Errorf("best %v, elapsed %v, %d hits over %d evaluations and %d series", want.best, want.elapsed, want.hits, res.Evaluations, len(ev.asked))
			}
			if len(st.Latencies) == 0 || st.Latencies[0].Name != "eval" || st.Latencies[0].Count != uint64(res.Evaluations) {
				t.Errorf("latencies %+v, want the probe histogram with %d observations", st.Latencies, res.Evaluations)
			}
		})
	}
}

// flakyWriter accepts the first ok writes and fails every later one,
// recording each attempted payload.
type flakyWriter struct {
	ok       int
	attempts [][]byte
}

func (w *flakyWriter) Write(p []byte) (int, error) {
	w.attempts = append(w.attempts, bytes.Clone(p))
	if len(w.attempts) > w.ok {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func (w *flakyWriter) Close() error { return nil }

// TestTelemetrySinkWriteFailure drives a sweep's and a search's stream
// through a writer that starts failing: the first error is surfaced once, a
// terminal error record is attempted, and the stream stays silent afterwards
// — for the rest of the campaign and its terminal record. The error record is
// the ledger's: a search's names the search, so a reader of a file many
// searches append to can tell which stream died, and both carry the clock.
func TestTelemetrySinkWriteFailure(t *testing.T) {
	// redirect points an opened stream at w and its diagnostic at errw.
	redirect := func(tel *telemetry, w io.WriteCloser, errw io.Writer) {
		tel.w.Close()
		tel.w, tel.errw = w, errw
	}
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	streams := []struct {
		name string
		// want is the identity the error record must carry.
		want Event
		// run opens the stream, redirects it, and emits one record that
		// lands, one that fails, and the rest of a campaign after it.
		run func(t *testing.T, w io.WriteCloser, errw io.Writer)
	}{
		{"telemetry", Event{}, func(t *testing.T, w io.WriteCloser, errw io.Writer) {
			units, err := planUnits(smallCampaign())
			if err != nil {
				t.Fatal(err)
			}
			led := newReporter(nil, nil)
			if err := led.openTelemetry(filepath.Join(t.TempDir(), "run.jsonl"), time.Hour); err != nil {
				t.Fatal(err)
			}
			led.plan(units, "model", 1)
			redirect(led.tel, w, errw)
			for _, u := range units {
				led.unitDone(u, nil, 0, false)
			}
			led.finish(nil)
		}},
		{"search telemetry", Event{Strategy: "random", Arch: "a64fx", App: "Nqueens", Setting: set.Label},
			func(t *testing.T, w io.WriteCloser, errw io.Writer) {
				led := newReporter(nil, nil)
				s, err := newSearchState(context.Background(), "random", SearchSpec{
					Machine: m, App: app, Setting: set,
					TelemetryLog: filepath.Join(t.TempDir(), "search.jsonl"),
				}, led)
				if err != nil {
					t.Fatal(err)
				}
				redirect(led.tel, w, errw)
				s.init()
				def := env.Default(m)
				for i := 0; i < 2; i++ {
					s.probe(def, s.prob.pos(&def), "x", "y")
				}
				led.finish(nil)
			}},
	}
	for _, tc := range streams {
		t.Run(tc.name, func(t *testing.T) {
			w := &flakyWriter{ok: 1}
			var diag bytes.Buffer
			tc.run(t, w, &diag)

			if got := strings.Count(diag.String(), "\n"); got != 1 ||
				!strings.Contains(diag.String(), "omptune: "+tc.name+": write failed, disabling stream: disk full") {
				t.Errorf("diagnostic = %q, want exactly one write-failed line", diag.String())
			}
			// One record landed, one failed, the terminal error record was
			// attempted, and nothing after that reached the writer.
			if len(w.attempts) != 3 {
				t.Fatalf("%d write attempts, want 3 (ok, failed, terminal error record)", len(w.attempts))
			}
			var last Event
			if err := json.Unmarshal(w.attempts[2], &last); err != nil {
				t.Fatalf("terminal record not valid JSON: %v\n%s", err, w.attempts[2])
			}
			if last.Type != "error" || last.TS.IsZero() ||
				last.Error != tc.name+" stream disabled after write error: disk full" {
				t.Errorf("terminal record = %s", w.attempts[2])
			}
			id := Event{Strategy: last.Strategy, Arch: last.Arch, App: last.App, Setting: last.Setting}
			if !reflect.DeepEqual(id, tc.want) || last.ElapsedSec <= 0 ||
				!strings.Contains(string(w.attempts[2]), `"elapsed_sec":`) {
				t.Errorf("terminal record %s, want identity %+v and the elapsed time", w.attempts[2], tc.want)
			}
		})
	}
}
