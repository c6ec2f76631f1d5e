package core

import (
	"fmt"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// equalLifts builds one application on one architecture where
// OMP_SCHEDULE=dynamic and KMP_LIBRARY=turnaround mark exactly the ten
// fastest samples and static/throughput the ten slowest, so each pair ties:
// lift 2 among the fastest, 2 among the slowest.
func equalLifts() *dataset.Dataset {
	m := topology.MustGet(topology.A64FX)
	ds := &dataset.Dataset{}
	for i := 0; i < 20; i++ {
		cfg, rt := env.Default(m), 2.0
		if i%2 == 0 {
			cfg.Schedule, cfg.Library, rt = env.ScheduleDynamic, env.LibTurnaround, 0.5
		}
		s := &dataset.Sample{Arch: m.Arch, App: "Nqueens", Setting: "small", Threads: m.Cores, Scale: 1,
			Config: cfg, DefaultRuntime: 1}
		for r := range s.Runtimes {
			s.Runtimes[r] = rt
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

// TestEqualLiftOrder holds Table VII's "All" rows and Q4's trends to one
// order when lifts tie: env.Names order (OMP_SCHEDULE before KMP_LIBRARY),
// then value order, on every call.
func TestEqualLiftOrder(t *testing.T) {
	ds := equalLifts()
	render := func() (recs, trends string) {
		for _, r := range Recommend(ds, "Nqueens") {
			recs += fmt.Sprintf("%s %s=%v %.3f; ", r.Arch, r.Variable, r.Values, r.Lift)
		}
		for _, w := range WorstTrends(ds) {
			trends += fmt.Sprintf("%s=%s %.3f; ", w.Variable, w.Value, w.Lift)
		}
		return recs, trends
	}
	wantRecs := " OMP_SCHEDULE=[dynamic] 2.000;  KMP_LIBRARY=[turnaround] 2.000; "
	wantTrends := "OMP_SCHEDULE=static 2.000; KMP_LIBRARY=throughput 2.000; "
	for i := 0; i < 50; i++ {
		recs, trends := render()
		if recs != wantRecs {
			t.Fatalf("call %d: Recommend rows %q, want %q", i, recs, wantRecs)
		}
		if trends != wantTrends {
			t.Fatalf("call %d: WorstTrends %q, want %q", i, trends, wantTrends)
		}
	}
}
