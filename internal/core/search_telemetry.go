package core

// Search telemetry: the per-evaluation JSONL sibling of the sweep telemetry
// in telemetry.go. A search emits one search_plan record, one search_step
// per evaluation (strategy, config, this probe's speedup, best-so-far), and
// a terminal search_done (or error) record. Searches are short and already
// step-granular, so there is no heartbeat loop. Records carry the full
// search identity (strategy, arch, app, setting) on every line, so many
// searches can append to one file and SearchReport can still separate them.

import (
	"time"

	"omptune/internal/env"
)

// searchRecord is the JSONL record shape of a search stream. Type
// discriminates; unused fields are omitted per record type.
type searchRecord struct {
	Type string `json:"type"` // search_plan | search_step | search_done | error
	TS   string `json:"ts"`   // RFC3339Nano, UTC

	// search identity, on every record
	Strategy string `json:"strategy,omitempty"`
	Arch     string `json:"arch,omitempty"`
	App      string `json:"app,omitempty"`
	Setting  string `json:"setting,omitempty"`

	// search_plan
	Backend     string  `json:"backend,omitempty"`
	SpaceSize   int     `json:"space_size,omitempty"`
	BudgetEvals int     `json:"budget_evals,omitempty"`
	BudgetSec   float64 `json:"budget_sec,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`

	// search_step
	Eval     int     `json:"eval,omitempty"`
	Config   string  `json:"config,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"`
	Speedup  float64 `json:"speedup,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`

	// search_step / search_done
	BestSpeedup float64 `json:"best_speedup,omitempty"`

	// search_done
	Evaluations int     `json:"evaluations,omitempty"`
	CacheHits   int     `json:"cache_hits,omitempty"`
	BestConfig  string  `json:"best_config,omitempty"`
	ElapsedSec  float64 `json:"elapsed_sec,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

func (r *searchRecord) stamp(ts string) { r.TS = ts }

// searchTelemetry renders one search as a JSONL stream over the shared
// best-effort sink (telemetry.go): the first write failure is surfaced once,
// a terminal error record is attempted, and the stream is disabled.
type searchTelemetry struct {
	sink  *jsonlSink
	start time.Time
}

// newSearchTelemetry opens (appending) the JSONL log.
func newSearchTelemetry(path string) (*searchTelemetry, error) {
	sink, err := openJSONLSink("search telemetry", path, func(msg string) jsonlRecord {
		return &searchRecord{Type: "error", Error: msg}
	})
	if err != nil {
		return nil, err
	}
	return &searchTelemetry{sink: sink, start: time.Now()}, nil
}

// ident stamps the search identity fields shared by every record.
func (t *searchTelemetry) ident(s *searchState, rec searchRecord) *searchRecord {
	rec.Strategy = s.res.Strategy
	rec.Arch = string(s.spec.Machine.Arch)
	rec.App = s.spec.App.Name
	rec.Setting = s.spec.Setting.Label
	return &rec
}

// plan records the search shape before the first evaluation.
func (t *searchTelemetry) plan(s *searchState) {
	t.sink.emit(t.ident(s, searchRecord{
		Type:        "search_plan",
		Backend:     s.ev.Name(),
		SpaceSize:   len(s.space),
		BudgetEvals: s.maxEvals,
		BudgetSec:   s.spec.Budget.MaxTime.Seconds(),
		Seed:        s.spec.Seed,
	}))
}

// step records one completed evaluation.
func (t *searchTelemetry) step(s *searchState, cfg env.Config, sec float64, hit bool) {
	speedup := 0.0
	if sec > 0 && s.res.DefaultSeconds > 0 {
		speedup = s.res.DefaultSeconds / sec
	}
	t.sink.emit(t.ident(s, searchRecord{
		Type:        "search_step",
		Eval:        s.res.Evaluations,
		Config:      cfg.Key(),
		Seconds:     sec,
		Speedup:     speedup,
		CacheHit:    hit,
		BestSpeedup: s.bestSpeedup(),
	}))
}

// done writes the terminal record and closes the log.
func (t *searchTelemetry) done(s *searchState, err error) {
	rec := t.ident(s, searchRecord{
		Type:        "search_done",
		SpaceSize:   len(s.space),
		Evaluations: s.res.Evaluations,
		CacheHits:   s.res.CacheHits,
		BestConfig:  s.res.Best.Key(),
		BestSpeedup: s.bestSpeedup(),
		ElapsedSec:  time.Since(t.start).Seconds(),
	})
	if err != nil {
		rec.Type = "error"
		rec.Error = err.Error()
	}
	t.sink.emit(rec)
	t.sink.w.Close()
}
