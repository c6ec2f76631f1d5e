package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// FuzzSearchReport feeds arbitrary bytes to the search-telemetry reader
// behind ompanalyze -searchreport, joined against a small fixed sweep
// dataset. Whatever the input, SearchReport must not panic, must return
// either rows or an error, and its rows must come out sorted by (arch, app,
// setting, strategy) with one row per search identity — strictly increasing
// keys — each joined against the sweep best of its group.
func FuzzSearchReport(f *testing.F) {
	m := topology.MustGet(topology.A64FX)
	mk := func(app, setting string, cfg env.Config, mean float64) *dataset.Sample {
		s := &dataset.Sample{
			Arch: m.Arch, App: app, Setting: setting,
			Threads: 48, Scale: 1, Config: cfg, DefaultRuntime: 10,
		}
		for i := range s.Runtimes {
			s.Runtimes[i] = mean
		}
		return s
	}
	ds := &dataset.Dataset{Samples: []*dataset.Sample{
		mk("Nqueens", "t48", env.Default(m), 10), // speedup 1
		mk("Nqueens", "t48", env.Space(m)[1], 2), // speedup 5: the group's best
		mk("EP", "t12", env.Default(m), 5),       // speedup 2
	}}
	best := map[[3]string]float64{
		{"a64fx", "Nqueens", "t48"}: 5,
		{"a64fx", "EP", "t12"}:      2,
	}

	for _, seed := range []string{
		`{"type":"search_done","strategy":"greedy","arch":"a64fx","app":"Nqueens","setting":"t48","space_size":9216,"evaluations":60,"cache_hits":12,"best_speedup":4}`,
		`{"type":"search_plan","strategy":"random","arch":"a64fx","app":"EP","setting":"t12","space_size":9216}
{"type":"search_step","strategy":"random","arch":"a64fx","app":"EP","setting":"t12","eval":1,"speedup":1.5}
{"type":"search_done","strategy":"random","arch":"a64fx","app":"EP","setting":"t12","evaluations":1,"best_speedup":1.5}
{"type":"search_done","strategy":"random","arch":"a64fx","app":"EP","setting":"t12","evaluations":2,"best_speedup":2}
{"type":"search_done","strategy":"anneal","arch":"milan","app":"EP","setting":"t12","evaluations":3}`,
		"\n\n{\"type\":\"search_done\"}\n",
		`{"type":"search_done","best_speedup":1e308,"space_size":-1,"evaluations":-5}`,
		`{"type":"error","error":"disk full"}`,
		`{"type":"search_done"`,
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := SearchReport(bytes.NewReader(data), ds)
		if err != nil {
			if rows != nil {
				t.Fatalf("error %v returned with %d rows", err, len(rows))
			}
			return
		}
		if len(rows) == 0 {
			t.Fatal("no error and no rows")
		}
		key := func(r SearchReportRow) [4]string { return [4]string{r.Arch, r.App, r.Setting, r.Strategy} }
		for i, r := range rows {
			if i > 0 {
				if prev, cur := key(rows[i-1]), key(r); slices.Compare(prev[:], cur[:]) >= 0 {
					t.Fatalf("rows %d and %d out of order or duplicated: %q then %q", i-1, i, prev, cur)
				}
			}
			if want := best[[3]string{r.Arch, r.App, r.Setting}]; r.SweepBestSpeedup != want {
				t.Fatalf("row %q joined sweep best %v, want %v", key(r), r.SweepBestSpeedup, want)
			}
			if r.SweepBestSpeedup > 0 && !sameFloat(r.Fraction, r.BestSpeedup/r.SweepBestSpeedup) {
				t.Fatalf("row %q: fraction %v, want %v", key(r), r.Fraction, r.BestSpeedup/r.SweepBestSpeedup)
			}
		}
	})
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
