package core

// Search telemetry: the record shapes a search's campaign ledger
// (progress.go) writes through the telemetry stream of telemetry.go. A search
// emits one search_plan record, one search_step per evaluation (strategy,
// config, this probe's speedup, best-so-far), and a terminal search_done (or
// error) record. Searches are short and already step-granular, so there is
// no heartbeat loop. Records carry the full search identity (strategy, arch,
// app, setting) on every line, so many searches can append to one file and
// SearchReport can still separate them. Counts, best-so-far and the clock
// come from the ledger; this file keeps none of its own.

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

// record stamps rec with the search identity shared by every record.
func (s *searchState) record(rec searchRecord) *searchRecord {
	rec.Strategy = s.res.Strategy
	rec.Arch = string(s.spec.Machine.Arch)
	rec.App = s.spec.App.Name
	rec.Setting = s.spec.Setting.Label
	return &rec
}

// openTelemetry opens (appending) the search's JSONL log on its ledger and
// records the search shape before the first evaluation.
func (s *searchState) openTelemetry(path string) error {
	sink, err := openJSONLSink("search telemetry", path, func(msg string) jsonlRecord {
		return &searchRecord{Type: "error", Error: msg}
	})
	if err != nil {
		return err
	}
	s.led.out.Lock()
	defer s.led.out.Unlock()
	sink.emit(s.record(searchRecord{
		Type:        "search_plan",
		Backend:     s.ev.Name(),
		SpaceSize:   len(s.table().space),
		BudgetEvals: s.maxEvals,
		BudgetSec:   s.spec.Budget.MaxTime.Seconds(),
		Seed:        s.spec.Seed,
	}))
	s.led.tel = &telemetry{sink: sink, led: s.led, terminal: s.doneRecord}
	return nil
}

// stepRecord renders one completed evaluation: the probe itself, numbered
// and scored by the ledger's evaluation count and best-so-far speedup. A
// failed probe (sec is NaN, which JSON cannot carry) omits seconds and
// speedup.
func (s *searchState) stepRecord(evals int, best float64, key string, sec float64, hit bool) *searchRecord {
	speedup := 0.0
	if !(sec > 0) {
		sec = 0
	} else if s.res.DefaultSeconds > 0 {
		speedup = s.res.DefaultSeconds / sec
	}
	return s.record(searchRecord{
		Type:        "search_step",
		Eval:        evals,
		Config:      key,
		Seconds:     sec,
		Speedup:     speedup,
		CacheHit:    hit,
		BestSpeedup: best,
	})
}

// doneRecord renders the finished ledger as the terminal record:
// search_done on success, error otherwise.
func (s *searchState) doneRecord(st ledgerView) jsonlRecord {
	rec := s.record(searchRecord{
		Type:        "search_done",
		SpaceSize:   len(s.table().space),
		Evaluations: st.SamplesDone,
		CacheHits:   st.cacheHits,
		BestConfig:  s.res.Best.Key(),
		BestSpeedup: st.bestSpeedup,
		ElapsedSec:  st.ElapsedSec,
	})
	if st.State == "error" {
		rec.Type = "error"
		rec.Error = st.Error
	}
	return rec
}
