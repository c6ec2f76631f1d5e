package core

// Telemetry: a campaign's Events as a JSONL log that makes long campaigns
// observable while they run. Every record is one JSON object on one line, so
// the file can be followed with tail -f and parsed with jq while the
// campaign is still going. A sweep writes one plan record, an immediate first
// heartbeat, a setting_done per completed batch (carrying error when the
// batch skipped rows), heartbeats on the configured interval and a terminal
// done (or error) record. A search writes one search_plan, one search_step
// per evaluation and a terminal search_done (or error); it is short and
// already step-granular, so it has no heartbeat loop, and its records carry
// the search identity, so many searches can append to one file and
// SearchReport can still separate them. Every record is built by the
// campaign ledger (progress.go); this file keeps no counters of its own.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// telemetry is the best-effort JSONL stream of one campaign's Events: it
// owns the log and, for a sweep, the heartbeat loop. Writes are serialized
// by led.out, which the ledger holds while it fans an event out.
//
// Write errors (disk full, closed file) must not kill a campaign —
// telemetry is best-effort by design — but they must not be silent either:
// the first failure is surfaced once on errw, a terminal error record is
// attempted so a consumer tailing the file sees the stream died (it lands
// whenever the failure was transient or partial), and the stream is then
// disabled so a long campaign doesn't pay one failing write per batch.
type telemetry struct {
	w   io.WriteCloser
	led *reporter
	// werr is the first write error; once set, no further records are
	// written. errw receives the single operator-facing diagnostic
	// (os.Stderr in production, a buffer in tests).
	werr error
	errw io.Writer
	// interval is a sweep's heartbeat period; 0 for a search.
	interval time.Duration
	stop     chan struct{}
	done     sync.WaitGroup
}

// openTelemetry opens (appending) the JSONL log at path for the campaign led
// is about to plan; the plan starts the stream. interval is the heartbeat
// period, 0 for none.
func (r *reporter) openTelemetry(path string, interval time.Duration) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("core: telemetry log: %w", err)
	}
	r.tel = &telemetry{w: f, led: r, errw: os.Stderr, interval: interval, stop: make(chan struct{})}
	return nil
}

// open records the campaign's plan. A sweep's stream then emits the first
// heartbeat immediately, so a consumer tailing the log sees liveness before
// the first (possibly slow) batch completes, and starts the heartbeat loop.
func (t *telemetry) open(plan Event) {
	t.emit(plan)
	if t.interval > 0 {
		t.emit(t.led.snapshot().event("heartbeat"))
		t.done.Add(1)
		go t.heartbeatLoop()
	}
}

// emit writes one record. It takes the record by value, so an event a
// caller builds stays off the heap when no stream is open.
func (t *telemetry) emit(ev Event) {
	if t.werr != nil {
		return
	}
	// Not a json.Encoder: it latches its first write error, so the terminal
	// error record would never reach the writer.
	write := func(ev *Event) error {
		line, err := json.Marshal(ev)
		if err == nil {
			_, err = t.w.Write(append(line, '\n'))
		}
		return err
	}
	err := write(&ev)
	if err == nil {
		return
	}
	t.werr = err
	name := "telemetry"
	if ev.Strategy != "" {
		name = "search telemetry"
	}
	fmt.Fprintf(t.errw, "omptune: %s: write failed, disabling stream: %v\n", name, err)
	rec := t.led.snapshot().event("error")
	rec.Error = fmt.Sprintf("%s stream disabled after write error: %v", name, err)
	_ = write(&rec)
}

func (t *telemetry) heartbeatLoop() {
	defer t.done.Done()
	tick := time.NewTicker(t.interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.led.out.Lock()
			t.emit(t.led.snapshot().event("heartbeat"))
			t.led.out.Unlock()
		}
	}
}

// finish stops the heartbeat loop, writes the terminal record — the finished
// ledger as done or search_done, or error — and closes the log.
func (t *telemetry) finish() {
	close(t.stop)
	t.done.Wait()
	t.led.out.Lock()
	defer t.led.out.Unlock()
	st := t.led.snapshot()
	typ := "done"
	if st.search.Strategy != "" {
		typ = "search_done"
	}
	if st.State == "error" {
		typ = "error"
	}
	t.emit(st.event(typ))
	t.w.Close()
}
