package core

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// fakeEvaluator is a non-model backend for seam tests: deterministic,
// distinctly named, and cheap. Runtimes depend on the config key so rankings
// are non-trivial. calls counts the series asked for.
type fakeEvaluator struct {
	calls atomic.Int64
}

func (f *fakeEvaluator) Name() string { return "fake" }

func (f *fakeEvaluator) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) (out [sim.Reps]float64, _ dataset.SeriesMeta, _ error) {
	f.calls.Add(1)
	h := hash64(app.Name + "|" + key + "|" + set.Label)
	for rep := range out {
		out[rep] = 1 + float64(h%1000)/1000 + float64(float64(rep)*0.001)
	}
	return out, dataset.SeriesMeta{}, nil
}

func TestSweepRecordsBackendInSourceColumn(t *testing.T) {
	fake := &fakeEvaluator{}
	sc := smallCampaign()
	sc.Backend = fake
	ds, err := RunSweep(sc)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if ds.Len() == 0 || fake.calls.Load() == 0 {
		t.Fatal("fake evaluator not exercised")
	}
	for _, s := range ds.Samples {
		if s.SourceName() != "fake" {
			t.Fatalf("sample source = %q, want fake", s.SourceName())
		}
	}
	// The default backend stamps samples as model-sourced.
	mds, err := RunSweep(smallCampaign())
	if err != nil {
		t.Fatalf("RunSweep (model): %v", err)
	}
	for _, s := range mds.Samples {
		if s.SourceName() != dataset.SourceModel {
			t.Fatalf("model sample source = %q, want %q", s.SourceName(), dataset.SourceModel)
		}
	}
}

func TestModelEvaluatorIsByteIdenticalDefault(t *testing.T) {
	implicit := sweepCSV(t, smallCampaign())
	explicit := smallCampaign()
	explicit.Backend = ModelEvaluator{}
	if got := sweepCSV(t, explicit); string(got) != string(implicit) {
		t.Fatal("explicit ModelEvaluator CSV differs from nil-backend CSV")
	}
}

// TestCheckpointRejectsBackendMismatch is the resume-compatibility
// guarantee: a campaign journaled under one backend must refuse to resume
// under another, and the error must name both backends.
func TestCheckpointRejectsBackendMismatch(t *testing.T) {
	dir := t.TempDir()
	sc := smallCampaign()
	sc.CheckpointDir = dir
	if _, err := RunSweep(sc); err != nil {
		t.Fatalf("RunSweep: %v", err)
	}

	other := smallCampaign()
	other.CheckpointDir = dir
	other.Backend = &fakeEvaluator{}
	_, err := RunSweep(other)
	if err == nil {
		t.Fatal("model-backed checkpoint resumed under a different backend")
	}
	for _, want := range []string{`"model"`, `"fake"`, "backend"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("mismatch error %q does not mention %s", err, want)
		}
	}

	// Same spec under the same backend still resumes.
	same := smallCampaign()
	same.CheckpointDir = dir
	same.Backend = ModelEvaluator{}
	if _, err := RunSweep(same); err != nil {
		t.Errorf("same-backend resume rejected: %v", err)
	}
}

func TestTuneAndRandomSearchUseBackend(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	app, err := apps.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}
	set := app.Settings(m)[0]

	fake := &fakeEvaluator{}
	res := mustTune(t, fake, m, app, set, nil, 30)
	if fake.calls.Load() == 0 {
		t.Fatal("Tune never called the backend")
	}
	if res.DefaultSeconds < 1 || res.DefaultSeconds >= 2.01 {
		t.Errorf("DefaultSeconds %v outside the fake backend's range", res.DefaultSeconds)
	}

	fake.calls.Store(0)
	rres := randomSearch(t, fake, m, app, set, 20, 7)
	if fake.calls.Load() == 0 {
		t.Fatal("random search never called the backend")
	}
	if rres.BestSeconds > rres.DefaultSeconds {
		t.Errorf("random search regressed: %v > %v", rres.BestSeconds, rres.DefaultSeconds)
	}
}

func TestCalibrateModelAgainstItself(t *testing.T) {
	rep, err := Calibrate(nil, ModelEvaluator{}, CalibrationOptions{
		Arch: topology.A64FX, Apps: []string{"XSbench", "Nqueens"}, ConfigsPerApp: 16,
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if rep.Reference != dataset.SourceModel || rep.Alternate != dataset.SourceModel {
		t.Errorf("backend names %q/%q, want model/model", rep.Reference, rep.Alternate)
	}
	if len(rep.Apps) != 2 {
		t.Fatalf("%d app rows, want 2", len(rep.Apps))
	}
	for _, a := range rep.Apps {
		if a.Configs != 16 {
			t.Errorf("%s: %d configs, want 16", a.App, a.Configs)
		}
		if !math.IsNaN(a.Spearman) && a.Spearman != 1 {
			t.Errorf("%s: self-Spearman %v, want 1 (or NaN on a constant subspace)", a.App, a.Spearman)
		}
		if a.MedianRelErr != 0 {
			t.Errorf("%s: self rel err %v, want 0", a.App, a.MedianRelErr)
		}
	}
	if len(rep.Variables) == 0 {
		t.Fatal("no per-variable rows")
	}
	for _, v := range rep.Variables {
		if v.Points < 1 {
			t.Errorf("%s: %d points", v.Variable, v.Points)
		}
		if v.MedianRelErr != 0 {
			t.Errorf("%s: self rel err %v, want 0", v.Variable, v.MedianRelErr)
		}
	}
	out := rep.String()
	for _, want := range []string{"XSbench", "Nqueens", "spearman", "med.rel.err"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestCalibrateAgainstFakeBackendOrdersDiffer(t *testing.T) {
	rep, err := Calibrate(nil, &fakeEvaluator{}, CalibrationOptions{
		Arch: topology.Milan, Apps: []string{"XSbench"}, ConfigsPerApp: 20,
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	a := rep.Apps[0]
	if a.Spearman >= 0.999 {
		t.Errorf("hash-random backend agreed with the model: Spearman %v", a.Spearman)
	}
	if math.IsNaN(a.MedianRelErr) || a.MedianRelErr <= 0 {
		t.Errorf("rel err %v, want positive", a.MedianRelErr)
	}
}

// TestCalibrateMeasuredBackend runs the real-execution backend over a tiny
// subspace — the end-to-end path the ompanalyze -calibrate command uses.
func TestCalibrateMeasuredBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("real kernel execution in -short mode")
	}
	ev := measure.NewEvaluator(measure.Options{Warmup: 0, TimedReps: 1})
	rep, err := Calibrate(nil, ev, CalibrationOptions{
		Arch: topology.A64FX, Apps: []string{"EP"}, ConfigsPerApp: 4,
	})
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if rep.Alternate != dataset.SourceMeasured {
		t.Errorf("alternate backend %q, want measured", rep.Alternate)
	}
	a := rep.Apps[0]
	if a.Configs != 4 {
		t.Errorf("%d configs, want 4", a.Configs)
	}
	if !math.IsNaN(a.Spearman) && (a.Spearman < -1 || a.Spearman > 1) {
		t.Errorf("Spearman %v outside [-1, 1]", a.Spearman)
	}
	if !(a.MedianRelErr >= 0) {
		t.Errorf("rel err %v, want >= 0", a.MedianRelErr)
	}
}
