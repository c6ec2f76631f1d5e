package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// seamBackend is the test double of the Evaluator contract: it answers like
// the model under its own name, records every series it is asked for — in
// order, with the key it was handed — and fails the configurations in fail.
type seamBackend struct {
	ModelEvaluator
	fail map[env.Config]bool

	mu    sync.Mutex
	asked []askedSeries
}

type askedSeries struct {
	app, setting string
	cfg          env.Config
	key          string
}

var errInjected = errors.New("injected series failure")

// failing returns a seamBackend that fails the given configurations.
func failing(cfgs ...env.Config) *seamBackend {
	b := &seamBackend{fail: map[env.Config]bool{}}
	for _, cfg := range cfgs {
		b.fail[cfg] = true
	}
	return b
}

func (b *seamBackend) Name() string { return "seam" }

func (b *seamBackend) EvaluateSeries(m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) ([sim.Reps]float64, dataset.SeriesMeta, error) {
	b.mu.Lock()
	b.asked = append(b.asked, askedSeries{app.Name, set.Label, cfg, key})
	b.mu.Unlock()
	if b.fail[cfg] {
		return [sim.Reps]float64{}, dataset.SeriesMeta{}, fmt.Errorf("seam: %s/%s/%s: %w", app.Name, set.Label, key, errInjected)
	}
	return b.ModelEvaluator.EvaluateSeries(m, app, cfg, key, set)
}

// timesAsked counts the series requests per (app, setting, configuration).
func (b *seamBackend) timesAsked() map[askedSeries]int {
	n := map[askedSeries]int{}
	for _, a := range b.asked {
		n[a]++
	}
	return n
}

// TestSearchFailedProbeNeverBestNotRemeasured: backends remember nothing, so
// the eval cache is what keeps a search at one series per distinct
// configuration — a failed one included. The random strategy draws 40 probes
// from a pool of 8 whose fastest member (the fastest configuration of the
// whole space) fails: it is measured once, skipped on every revisit, and
// never reported as the best.
func TestSearchFailedProbeNeverBestNotRemeasured(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	space := env.Space(m)
	bad, badSec := env.Config{}, math.Inf(1)
	ps := bindSeries(ModelEvaluator{}, m, app, set)
	for _, cfg := range space {
		if sec, _ := ps.mean(cfg, cfg.Key(), sim.KeyHash(cfg.Key())); sec < badSec {
			bad, badSec = cfg, sec
		}
	}
	pool := append([]env.Config{bad}, space[:7]...)
	ev := failing(bad)
	res, err := randomSearcher{}.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Space: pool, Seed: 5,
		Evaluator: ev, Budget: SearchBudget{MaxEvals: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 40 {
		t.Errorf("Evaluations = %d, want the full budget of 40 (a failed probe is still a probe)", res.Evaluations)
	}
	asked := ev.timesAsked()
	if got, want := len(ev.asked), res.Evaluations-res.CacheHits; got != want || len(asked) != got {
		t.Errorf("backend asked for %d series (%d distinct), want evaluations - cache hits = %d, all distinct", got, len(asked), want)
	}
	if n := asked[askedSeries{app.Name, set.Label, bad, bad.Key()}]; n != 1 {
		t.Errorf("failed configuration measured %d times, want once (drawn, then remembered as failed)", n)
	}
	if res.Best == bad || math.IsNaN(res.BestSeconds) || res.BestSeconds <= badSec {
		t.Errorf("best = %s at %v s: the failed configuration (model %v s) must never win", res.Best, res.BestSeconds, badSec)
	}
	for _, st := range res.Trajectory {
		if st.Config == bad {
			t.Errorf("failed configuration on the trajectory: %+v", st)
		}
	}
}

// TestSearchStopsWhenDefaultFails: a search whose default configuration
// fails has no speedup to search for. Every strategy stops after that one
// evaluation, asks the backend once, and returns an error that names it, the
// problem and the default and wraps the backend's; its telemetry ends with
// the error record.
func TestSearchStopsWhenDefaultFails(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	for _, name := range SearchStrategies() {
		searcher, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		ev := failing(env.Default(m))
		log := filepath.Join(t.TempDir(), "search.jsonl")
		res, err := searcher.Search(context.Background(), SearchSpec{
			Machine: m, App: app, Setting: set, Seed: 1, Evaluator: ev,
			Budget: SearchBudget{MaxEvals: 60}, TelemetryLog: log,
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("%s: err = %v, want the injected failure", name, err)
		}
		for _, want := range []string{name, app.Name, string(m.Arch), "default configuration"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", name, err, want)
			}
		}
		if res.Evaluations != 1 || len(ev.asked) != 1 {
			t.Errorf("%s: %d evaluations, %d series asked for, want 1 and 1", name, res.Evaluations, len(ev.asked))
		}
		recs := readTelemetry(t, log)
		if last := recs[len(recs)-1]; last.Type != "error" || last.Error != err.Error() {
			t.Errorf("%s: telemetry ends with %q (%q), want the error record", name, last.Type, last.Error)
		}
	}
}

// mustTune is Tune for problems whose default configuration the test knows
// evaluates.
func mustTune(t testing.TB, ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, order []env.VarName, budget int) SearchResult {
	t.Helper()
	res, err := Tune(ev, m, app, set, order, budget)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTuneAndNUMAPlacementReturnDefaultFailure: Tune and BestNUMAPlacement
// have no speedup to report when the default configuration fails; each
// returns the backend's error after asking for the default once. A failing
// numa_domains candidate is skipped instead, as a search skips one.
func TestTuneAndNUMAPlacementReturnDefaultFailure(t *testing.T) {
	m, app, set := searchApp(t, topology.Milan, "XSbench")
	ev := failing(env.Default(m))
	res, err := Tune(ev, m, app, set, nil, 30)
	if !errors.Is(err, errInjected) || res.Evaluations != 1 || len(ev.asked) != 1 {
		t.Errorf("Tune: err %v, %d evaluations, %d series asked for; want the injected failure, 1 and 1",
			err, res.Evaluations, len(ev.asked))
	}

	ev = failing(env.Default(m))
	_, ratio, err := BestNUMAPlacement(ev, m, app, set)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "default configuration") || len(ev.asked) != 1 {
		t.Errorf("BestNUMAPlacement: err %v, ratio %v, %d series asked for; want the injected default failure after 1",
			err, ratio, len(ev.asked))
	}

	best, ratio, err := BestNUMAPlacement(nil, m, app, set)
	if err != nil {
		t.Fatal(err)
	}
	ev = failing(best)
	again, againRatio, err := BestNUMAPlacement(ev, m, app, set)
	if err != nil || again == best || !(againRatio > 1) || againRatio > ratio {
		t.Errorf("with the best candidate %s failing: %s at %v (err %v); want another candidate, at most %v",
			best, again, againRatio, err, ratio)
	}
}

// TestCalibrateAsksEachConfigurationOnce: Calibrate needs the default twice
// per app (normalizer and subspace member) and may meet a one-at-a-time
// deviation in the sampled subspace too; its per-backend memo keeps that to
// one series per distinct configuration on each side. A failed series fails
// the calibration with the backend's error.
func TestCalibrateAsksEachConfigurationOnce(t *testing.T) {
	opt := CalibrationOptions{Arch: topology.A64FX, Apps: []string{"XSbench", "Nqueens"}, ConfigsPerApp: 16}
	ref, alt := &seamBackend{}, &seamBackend{}
	rep, err := Calibrate(ref, alt, opt)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	m := topology.MustGet(topology.A64FX)
	def := env.Default(m)
	for name, b := range map[string]*seamBackend{"reference": ref, "alternate": alt} {
		asked := b.timesAsked()
		for a, n := range asked {
			if n != 1 {
				t.Errorf("%s backend asked %d times for %s/%s/%s", name, n, a.app, a.setting, a.key)
			}
		}
		for _, row := range rep.Apps {
			if asked[askedSeries{row.App, row.Setting, def, def.Key()}] != 1 {
				t.Errorf("%s backend: default of %s not asked for exactly once", name, row.App)
			}
		}
		if len(asked) < 2*16 {
			t.Errorf("%s backend saw %d distinct series, want at least the 2x16 subspace", name, len(asked))
		}
	}

	_, err = Calibrate(nil, failing(def), opt)
	if !errors.Is(err, errInjected) {
		t.Errorf("Calibrate over a failing backend: err = %v, want the injected failure", err)
	}
}
