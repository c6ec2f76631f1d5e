package core

import (
	"testing"

	"omptune/internal/env"
)

// sampledNonDefault returns a configuration that the unit's sampling rule
// keeps and that is not the default.
func sampledNonDefault(t *testing.T, u *sweepUnit) env.Config {
	t.Helper()
	for _, i := range u.kept {
		if int(i) != u.defIdx {
			return u.space[i]
		}
	}
	t.Fatal("no sampled non-default configuration in unit")
	return env.Config{}
}

// TestEvalUnitSkipsFailedSamples is the regression test for the
// sweep-killing measurement panic: a series that fails (the backend returns
// an error) must drop that one row and keep the batch going.
func TestEvalUnitSkipsFailedSamples(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := units[0]
	bad := sampledNonDefault(t, u)
	samples, skipped, err := evalUnit(u, failing(bad))
	if err != nil {
		t.Fatalf("evalUnit failed instead of skipping: %v", err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(samples) != u.cfgCount-1 {
		t.Errorf("got %d samples, want %d", len(samples), u.cfgCount-1)
	}
	for _, s := range samples {
		if s.Config == bad {
			t.Error("failed configuration still present in the batch")
		}
		if !(s.MeanRuntime() > 0) {
			t.Errorf("unmeasured sample leaked into the dataset: %s", s.Config)
		}
	}
}

// TestEvalUnitSkipsWholeBatchOnFailedDefault: without the default there is
// nothing to enrich against, so the batch is dropped — but not fatal.
func TestEvalUnitSkipsWholeBatchOnFailedDefault(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	u := units[0]
	ev := failing(u.defCfg)
	samples, skipped, err := evalUnit(u, ev)
	if err != nil {
		t.Fatalf("evalUnit failed instead of skipping: %v", err)
	}
	if len(samples) != 0 || skipped != u.cfgCount {
		t.Errorf("got %d samples / %d skipped, want 0 / %d", len(samples), skipped, u.cfgCount)
	}
	if len(ev.asked) != 1 {
		t.Errorf("a failed default cost %d series, want 1", len(ev.asked))
	}
}

// TestRunSweepSurvivesMeasurementFailure drives the full campaign path: a
// failing configuration must cost its rows, not the sweep.
func TestRunSweepSurvivesMeasurementFailure(t *testing.T) {
	units, err := planUnits(smallCampaign())
	if err != nil {
		t.Fatalf("planUnits: %v", err)
	}
	bad := sampledNonDefault(t, units[0])
	var skippedSeen int
	sc := smallCampaign()
	sc.Backend = failing(bad)
	sc.OnProgress = func(ev Event) { skippedSeen += ev.SamplesSkipped }
	ds, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("RunSweep died on a measurement failure: %v", err)
	}
	if len(ds.Samples) == 0 {
		t.Fatal("sweep produced no samples")
	}
	for _, s := range ds.Samples {
		if s.Config == bad {
			t.Fatal("failed configuration leaked into the dataset")
		}
	}
	if skippedSeen == 0 {
		t.Error("progress events never reported the skipped rows")
	}
}
