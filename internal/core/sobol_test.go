package core

import (
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// sobolDataset builds a full-factorial sweep for one a64fx setting whose
// runtime depends strongly on the schedule, weakly on proc_bind, and not at
// all on the remaining variables.
func sobolDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	m := topology.MustGet(topology.A64FX)
	scheds := env.Schedules()
	binds := env.ProcBinds()
	ds := &dataset.Dataset{}
	for _, cfg := range env.Space(m) {
		si, bi := 0, 0
		for i, sc := range scheds {
			if cfg.Schedule == sc {
				si = i
			}
		}
		for i, b := range binds {
			if cfg.ProcBind == b {
				bi = i
			}
		}
		s := &dataset.Sample{
			Arch: m.Arch, App: "nqueens", Setting: "t48",
			Threads: 48, Config: cfg, DefaultRuntime: 10,
		}
		mean := 10.0 + float64(4.0*float64(si)) + float64(0.5*float64(bi))
		for i := range s.Runtimes {
			s.Runtimes[i] = mean
		}
		ds.Samples = append(ds.Samples, s)
	}
	return ds
}

func TestSobolSensitivityRanking(t *testing.T) {
	ds := sobolDataset(t)
	rep, err := SobolSensitivity(ds, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := &rep.Groups[0]
	if g.Group != "a64fx/nqueens/t48" {
		t.Errorf("group = %q", g.Group)
	}
	// Full-factorial sweep: every Saltelli point is a measured config.
	if g.Misses != 0 {
		t.Errorf("misses = %d, want 0 on a full-factorial sweep", g.Misses)
	}
	if g.Configs != ds.Len() {
		t.Errorf("configs = %d, want %d", g.Configs, ds.Len())
	}

	sched := g.Index(env.VarSchedule)
	bind := g.Index(env.VarProcBind)
	align := g.Index(env.VarAlignAlloc)
	if sched.Total < 0.5 {
		t.Errorf("schedule ST = %.4f, want > 0.5 (dominant variable)", sched.Total)
	}
	if sched.Total <= bind.Total || bind.Total <= align.Total+0.02 {
		t.Errorf("ordering wrong: sched %.4f, bind %.4f, align %.4f",
			sched.Total, bind.Total, align.Total)
	}
	if align.Total > 0.05 {
		t.Errorf("align ST = %.4f, want ≈ 0 (inert variable)", align.Total)
	}
	// The response is purely additive: first-order ≈ total-order.
	if d := sched.Total - sched.First; d > 0.1 || d < -0.1 {
		t.Errorf("additive response but S=%.4f vs ST=%.4f", sched.First, sched.Total)
	}
	if got := g.Rank()[0]; got != env.VarSchedule {
		t.Errorf("Rank()[0] = %s, want %s", got, env.VarSchedule)
	}
	if got := rep.Rank()[0]; got != env.VarSchedule {
		t.Errorf("report Rank()[0] = %s, want %s", got, env.VarSchedule)
	}
	if rep.String() == "" {
		t.Error("empty report render")
	}
}

// TestSobolSensitivityPartialSweep: configurations absent from the sweep fall
// back to the group mean and are counted, not fabricated.
func TestSobolSensitivityPartialSweep(t *testing.T) {
	ds := sobolDataset(t)
	ds.Samples = ds.Samples[:len(ds.Samples)/2] // drop half the space
	rep, err := SobolSensitivity(ds, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &rep.Groups[0]
	if g.Misses == 0 {
		t.Error("misses = 0 on a half sweep, want > 0")
	}
	if g.Misses > g.Evals {
		t.Errorf("misses %d > evals %d", g.Misses, g.Evals)
	}
}

func TestSobolSensitivityDegenerate(t *testing.T) {
	if _, err := SobolSensitivity(&dataset.Dataset{}, 64, 1); err == nil {
		t.Error("empty dataset: want error")
	}
	// A group with a single configuration has no variance axis to explore.
	ds := sobolDataset(t)
	one := &dataset.Dataset{Samples: ds.Samples[:1]}
	if _, err := SobolSensitivity(one, 64, 1); err == nil {
		t.Error("single-config dataset: want error")
	}
}
