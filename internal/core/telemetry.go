package core

// Sweep telemetry: a JSONL event log that makes long campaigns observable
// while they run. Every record is one JSON object on one line, so the file
// can be followed with tail -f and parsed with jq while the sweep is still
// going. The record stream is: one "plan" record up front, an immediate
// first "heartbeat", a "setting_done" per completed batch, periodic
// heartbeats on the configured interval, and a final "done" (or "error")
// record. Heartbeats carry expvar-style gauges — workers busy, evaluation
// throughput, per-arch completion — sampled from counters the sweep workers
// maintain. Every record is rendered from a snapshot of the campaign ledger
// (progress.go); this file keeps no counters of its own.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"omptune/internal/obs"
)

// telemetryRecord is the JSONL record shape. Type discriminates; unused
// fields are omitted per record type.
type telemetryRecord struct {
	Type string `json:"type"` // plan | heartbeat | setting_done | eval_error | done | error
	TS   string `json:"ts"`   // RFC3339Nano, UTC

	// plan
	Backend       string   `json:"backend,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	Arches        []string `json:"arches,omitempty"`
	SettingsTotal int      `json:"settings_total,omitempty"`
	SamplesTotal  int      `json:"samples_total,omitempty"`

	// setting_done / eval_error
	Arch    string `json:"arch,omitempty"`
	App     string `json:"app,omitempty"`
	Setting string `json:"setting,omitempty"`
	Samples int    `json:"samples,omitempty"`
	// SamplesSkipped counts rows dropped from the batch because their
	// measurement failed (also announced by a paired eval_error record).
	SamplesSkipped int  `json:"samples_skipped,omitempty"`
	Resumed        bool `json:"resumed,omitempty"`
	// RepsRun / RepsFixed carry the batch's adaptive-measurement summary:
	// real timed repetitions vs the fixed sim.Reps baseline for the batch's
	// provenance-carrying samples. Omitted for model batches.
	RepsRun   int `json:"reps_run,omitempty"`
	RepsFixed int `json:"reps_fixed,omitempty"`

	// heartbeat / setting_done / done
	ElapsedSec    float64                 `json:"elapsed_sec"`
	SettingsDone  int                     `json:"settings_done,omitempty"`
	SamplesDone   int                     `json:"samples_done,omitempty"`
	SamplesPerSec float64                 `json:"samples_per_sec,omitempty"`
	ETASec        float64                 `json:"eta_sec,omitempty"`
	WorkersBusy   int64                   `json:"workers_busy"`
	PerArch       map[string]archProgress `json:"per_arch,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

// archProgress is the per-architecture completion gauge carried by
// heartbeat and done records.
type archProgress struct {
	SettingsDone  int `json:"settings_done"`
	SettingsTotal int `json:"settings_total"`
	SamplesDone   int `json:"samples_done"`
	SamplesTotal  int `json:"samples_total"`
}

func (r *telemetryRecord) stamp(ts string) { r.TS = ts }

// jsonlRecord is what a jsonlSink writes: a JSON-encodable record that
// carries its own timestamp field.
type jsonlRecord interface{ stamp(ts string) }

// jsonlSink is the best-effort JSONL writer under the sweep and search
// telemetry streams. Callers serialize emits.
//
// Write errors (disk full, closed file) must not kill a campaign —
// telemetry is best-effort by design — but they must not be silent either:
// the first failure is surfaced once on errw, a terminal error record is
// attempted so a consumer tailing the file sees the stream died (it lands
// whenever the failure was transient or partial), and the stream is then
// disabled so a long campaign doesn't pay one failing write per batch.
type jsonlSink struct {
	name string // stream name in diagnostics: "telemetry", "search telemetry"
	w    io.WriteCloser
	// werr is the first write error; once set, no further records are
	// written. errw receives the single operator-facing diagnostic
	// (os.Stderr in production, a buffer in tests).
	werr error
	errw io.Writer
	// errRecord builds the stream's terminal error record.
	errRecord func(msg string) jsonlRecord
}

// openJSONLSink opens (appending) the log at path.
func openJSONLSink(name, path string, errRecord func(msg string) jsonlRecord) (*jsonlSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: %s log: %w", name, err)
	}
	return &jsonlSink{name: name, w: f, errw: os.Stderr, errRecord: errRecord}, nil
}

// emit stamps and writes one record.
func (s *jsonlSink) emit(rec jsonlRecord) {
	if s.werr != nil {
		return
	}
	// Not a json.Encoder: it latches its first write error, so the terminal
	// error record would never reach the writer.
	write := func(rec jsonlRecord) error {
		rec.stamp(time.Now().UTC().Format(time.RFC3339Nano))
		line, err := json.Marshal(rec)
		if err == nil {
			_, err = s.w.Write(append(line, '\n'))
		}
		return err
	}
	err := write(rec)
	if err == nil {
		return
	}
	s.werr = err
	fmt.Fprintf(s.errw, "omptune: %s: write failed, disabling stream: %v\n", s.name, err)
	_ = write(s.errRecord(fmt.Sprintf("%s stream disabled after write error: %v", s.name, err)))
}

// telemetry renders the campaign ledger as a JSONL stream: it owns the sink
// and, for a sweep, the heartbeat loop, and reads every number from led.
// Writes are serialized by led.out, which the ledger holds while it fans a
// batch or a probe out.
type telemetry struct {
	sink *jsonlSink
	led  *reporter
	// terminal renders the finished ledger as the stream's last record.
	terminal func(ledgerView) jsonlRecord
	// stop ends the heartbeat loop; nil for a search, whose stream is already
	// step-granular.
	stop chan struct{}
	done sync.WaitGroup
}

// openTelemetry opens the JSONL log of the planned campaign led, records the
// campaign shape, and emits the first heartbeat immediately, so a consumer
// tailing the log sees liveness before the first (possibly slow) batch
// completes; then it starts the heartbeat loop. interval <= 0 defaults to
// 30s.
func (r *reporter) openTelemetry(path string, interval time.Duration) error {
	sink, err := openJSONLSink("telemetry", path, func(msg string) jsonlRecord {
		return &telemetryRecord{Type: "error", Error: msg, ElapsedSec: r.snapshot().ElapsedSec}
	})
	if err != nil {
		return err
	}
	t := &telemetry{sink: sink, led: r, terminal: sweepDone, stop: make(chan struct{})}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	r.out.Lock()
	st := r.snapshot()
	sink.emit(&telemetryRecord{
		Type: "plan", Backend: st.Backend, Workers: st.Workers, Arches: cellArches(st.Cells),
		SettingsTotal: st.SettingsTotal, SamplesTotal: st.SamplesTotal,
	})
	sink.emit(heartbeat(st.Status))
	r.tel = t
	r.out.Unlock()
	t.done.Add(1)
	go t.heartbeatLoop(interval)
	return nil
}

// settingDone records one completed batch. A batch that dropped rows to
// measurement failures additionally emits an eval_error record, so a
// consumer grepping the stream for failures finds them without
// reconstructing per-batch sample arithmetic. ev is the ledger's view at the
// batch's completion; the caller holds led.out.
func (t *telemetry) settingDone(ev ProgressEvent, busy int64) {
	if ev.SettingSkipped > 0 {
		t.sink.emit(&telemetryRecord{
			Type: "eval_error",
			Arch: ev.Arch, App: ev.App, Setting: ev.Setting,
			SamplesSkipped: ev.SettingSkipped,
			ElapsedSec:     ev.Elapsed.Seconds(),
			Error:          fmt.Sprintf("%d of %d planned samples failed to measure and were skipped", ev.SettingSkipped, ev.SettingSamples+ev.SettingSkipped),
		})
	}
	t.sink.emit(&telemetryRecord{
		Type: "setting_done",
		Arch: ev.Arch, App: ev.App, Setting: ev.Setting,
		Samples: ev.SettingSamples, SamplesSkipped: ev.SettingSkipped, Resumed: ev.Resumed,
		RepsRun: ev.SettingRepsRun, RepsFixed: ev.SettingRepsFixed,
		ElapsedSec:   ev.Elapsed.Seconds(),
		SettingsDone: ev.SettingsDone, SamplesDone: ev.SamplesDone,
		SamplesPerSec: ev.SamplesPerSec, ETASec: ev.ETA.Seconds(),
		WorkersBusy: busy,
	})
}

// heartbeat renders a ledger snapshot as a heartbeat record; the per-arch
// gauges are the cell grid rolled up by architecture.
func heartbeat(st obs.Status) *telemetryRecord {
	per := make(map[string]archProgress)
	for _, c := range st.Cells {
		ap := per[c.Arch]
		ap.SettingsDone += c.SettingsDone
		ap.SettingsTotal += c.SettingsTotal
		ap.SamplesDone += c.SamplesDone
		ap.SamplesTotal += c.SamplesTotal
		per[c.Arch] = ap
	}
	return &telemetryRecord{
		Type:         "heartbeat",
		ElapsedSec:   st.ElapsedSec,
		SettingsDone: st.SettingsDone, SettingsTotal: st.SettingsTotal,
		SamplesDone: st.SamplesDone, SamplesTotal: st.SamplesTotal,
		SamplesPerSec: st.SamplesPerSec, ETASec: st.ETASec,
		WorkersBusy: st.WorkersBusy, PerArch: per,
	}
}

func (t *telemetry) heartbeatLoop(interval time.Duration) {
	defer t.done.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.led.out.Lock()
			t.sink.emit(heartbeat(t.led.snapshot().Status))
			t.led.out.Unlock()
		}
	}
}

// sweepDone renders a finished sweep's terminal record: done on success,
// error otherwise.
func sweepDone(st ledgerView) jsonlRecord {
	rec := heartbeat(st.Status)
	rec.Type = "done"
	if st.State == "error" {
		rec.Type = "error"
		rec.Error = st.Error
	}
	return rec
}

// finish stops the heartbeat loop, writes the terminal record from the
// finished ledger and closes the log.
func (t *telemetry) finish() {
	if t.stop != nil {
		close(t.stop)
		t.done.Wait()
	}
	t.led.out.Lock()
	t.sink.emit(t.terminal(t.led.snapshot()))
	t.sink.w.Close()
	t.led.out.Unlock()
}
