package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// keepConfig is the sampling rule as the plan applies it, for one
// configuration: the unit's prefix state continued over the config's key.
func keepConfig(appName string, arch topology.Arch, setting string, cfg env.Config, frac float64) bool {
	return keepHash(fnv1a(samplePrefix(appName, arch, setting), cfg.Key()), keepLimit(frac))
}

func TestKeepConfigDeterministicAndProportional(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	space := env.Space(m)
	kept := 0
	for _, cfg := range space {
		a := keepConfig("CG", topology.Milan, "medium", cfg, 0.25)
		b := keepConfig("CG", topology.Milan, "medium", cfg, 0.25)
		if a != b {
			t.Fatal("keepConfig not deterministic")
		}
		if a {
			kept++
		}
	}
	frac := float64(kept) / float64(len(space))
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("kept fraction %v, want ~0.25", frac)
	}
	// Different settings keep different subsets (coverage across settings).
	diff := 0
	for _, cfg := range space[:500] {
		if keepConfig("CG", topology.Milan, "medium", cfg, 0.25) !=
			keepConfig("CG", topology.Milan, "large", cfg, 0.25) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("sampling identical across settings — hash should include the setting")
	}
	if !keepConfig("CG", topology.Milan, "medium", space[0], 1.0) {
		t.Error("frac 1.0 must keep everything")
	}
}

func TestRunSweepRestrictedAndProgress(t *testing.T) {
	var progress bytes.Buffer
	ds, err := RunSweep(SweepConfig{
		Arches:     []topology.Arch{topology.A64FX},
		Apps:       []string{"Sort"},
		Fraction:   map[topology.Arch]float64{topology.A64FX: 0.1},
		OnProgress: func(ev Event) { fmt.Fprintln(&progress, ev.String()) },
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples")
	}
	for _, s := range ds.Samples {
		if s.Arch != topology.A64FX || s.App != "Sort" {
			t.Fatalf("unexpected sample %s/%s", s.Arch, s.App)
		}
	}
	if got := strings.Count(progress.String(), "\n"); got != 3 {
		t.Errorf("progress lines = %d, want 3 (one per setting)", got)
	}
	// Default config is always present per setting even at low fractions.
	m := topology.MustGet(topology.A64FX)
	def := env.Default(m)
	perSetting := map[string]bool{}
	for _, s := range ds.Samples {
		if s.Config == def {
			perSetting[s.Setting] = true
		}
	}
	if len(perSetting) != 3 {
		t.Errorf("default config present in %d/3 settings", len(perSetting))
	}
}

func TestRunSweepUnknownInputs(t *testing.T) {
	if _, err := RunSweep(SweepConfig{Arches: []topology.Arch{"vax"}}); err == nil {
		t.Error("unknown arch should error")
	}
	if _, err := RunSweep(SweepConfig{Apps: []string{"Quake"}}); err == nil {
		t.Error("unknown app should error")
	}
}

func TestRunSweepRespectsExclusions(t *testing.T) {
	// Sort is excluded on Skylake: asking for it there yields nothing.
	ds, err := RunSweep(SweepConfig{
		Arches:   []topology.Arch{topology.Skylake},
		Apps:     []string{"Sort"},
		Fraction: map[topology.Arch]float64{topology.Skylake: 0.05},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if ds.Len() != 0 {
		t.Errorf("Sort on Skylake produced %d samples, want 0", ds.Len())
	}
}

func TestTuneRespectsBudgetAndMonotonicity(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	app, err := apps.ByName("XSbench")
	if err != nil {
		t.Fatal(err)
	}
	set := sim.Setting{Label: "t24", Threads: 24, Scale: 1}
	res := mustTune(t, nil, m, app, set, nil, 25)
	if res.Evaluations > 25 {
		t.Errorf("evaluations %d exceed budget 25", res.Evaluations)
	}
	if res.BestSeconds > res.DefaultSeconds {
		t.Errorf("tuner made things worse: %v > %v", res.BestSeconds, res.DefaultSeconds)
	}
	// The trace must be monotonically improving.
	prev := res.DefaultSeconds
	for _, step := range res.Trajectory {
		if step.Seconds > prev {
			t.Errorf("trace step %v regressed from %v", step, prev)
		}
		prev = step.Seconds
	}
	// With a generous budget the Milan XSbench win should be found.
	full := mustTune(t, nil, m, app, set, nil, 500)
	if full.Speedup() < 2 {
		t.Errorf("full-budget XSbench Milan speedup %v, want > 2", full.Speedup())
	}
	if err := full.Best.Validate(m); err != nil {
		t.Errorf("tuned config invalid: %v", err)
	}
}

func TestTuneSpeedupZeroGuard(t *testing.T) {
	var r SearchResult
	if r.Speedup() != 0 {
		t.Error("zero-value SearchResult should report speedup 0")
	}
}
