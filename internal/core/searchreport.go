package core

// SearchReport answers the question the Searcher seam exists to settle: what
// fraction of the exhaustive sweep's best speedup does a budgeted search
// recover, at what fraction of the sweep's evaluation cost? It joins search
// telemetry (the JSONL stream of search_done records) against a sweep
// dataset's per-(arch, app, setting) best speedup.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"omptune/internal/dataset"
)

// SearchReportRow compares one completed search against the full sweep of
// the same (arch, app, setting) group.
type SearchReportRow struct {
	Arch     string
	App      string
	Setting  string
	Strategy string
	// Evaluations is the budget the search consumed; CacheHits the share
	// answered by the memoizing cache.
	Evaluations int
	CacheHits   int
	// SpaceSize is the full configuration space the sweep would evaluate.
	SpaceSize int
	// EvalFraction is Evaluations / SpaceSize — the cost ratio.
	EvalFraction float64
	// BestSpeedup is what the search found; SweepBestSpeedup the sweep's
	// per-group maximum (0 when the dataset has no samples for the group).
	BestSpeedup      float64
	SweepBestSpeedup float64
	// Fraction is BestSpeedup / SweepBestSpeedup — the quality ratio.
	Fraction float64
}

// SearchReport parses a search-telemetry JSONL stream and joins each
// terminal search_done record against ds's best speedup for the same
// (arch, app, setting). When the same search identity (arch, app, setting,
// strategy) completed several times in the stream, the last record wins.
// Rows come out sorted by arch, app, setting, strategy.
func SearchReport(r io.Reader, ds *dataset.Dataset) ([]SearchReportRow, error) {
	type ident struct{ arch, app, setting, strategy string }
	done := make(map[ident]Event)
	var order []ident
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec Event
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("core: search telemetry line %d: %w", line, err)
		}
		if rec.Type != "search_done" {
			continue
		}
		id := ident{rec.Arch, rec.App, rec.Setting, rec.Strategy}
		if _, seen := done[id]; !seen {
			order = append(order, id)
		}
		done[id] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: search telemetry: %w", err)
	}
	if len(done) == 0 {
		return nil, fmt.Errorf("core: search telemetry holds no search_done records")
	}

	// Per-(arch, app, setting) best speedup of the sweep dataset; a search
	// over a group the dataset lacks joins against 0.
	type group struct{ arch, app, setting string }
	sweepBest := make(map[group]float64)
	for _, g := range ds.Groups() {
		sweepBest[group{string(g.Arch), g.App, g.Setting}] = g.Best().Speedup()
	}

	var rows []SearchReportRow
	for _, id := range order {
		rec := done[id]
		row := SearchReportRow{
			Arch: id.arch, App: id.app, Setting: id.setting, Strategy: id.strategy,
			Evaluations: rec.Evaluations, CacheHits: rec.CacheHits,
			SpaceSize: rec.SpaceSize, BestSpeedup: rec.BestSpeedup,
		}
		if row.SpaceSize > 0 {
			row.EvalFraction = float64(row.Evaluations) / float64(row.SpaceSize)
		}
		row.SweepBestSpeedup = sweepBest[group{id.arch, id.app, id.setting}]
		if row.SweepBestSpeedup > 0 {
			row.Fraction = row.BestSpeedup / row.SweepBestSpeedup
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Setting != b.Setting {
			return a.Setting < b.Setting
		}
		return a.Strategy < b.Strategy
	})
	return rows, nil
}
