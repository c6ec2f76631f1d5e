package sim

// Ablation tests: each paper shape reproduced by the model is pinned to a
// specific mechanism. Disabling the mechanism must destroy the shape —
// otherwise the calibration would be coincidental. The tests mutate the
// model's package-level parameter tables and restore them afterwards; the
// package's tests run sequentially within each function, and these tests
// must not run in t.Parallel().

import (
	"math"
	"testing"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// withScatter temporarily overrides an architecture's OS-scatter intensity.
func withScatter(arch topology.Arch, v float64, fn func()) {
	old := osScatter[arch]
	osScatter[arch] = v
	defer func() { osScatter[arch] = old }()
	fn()
}

// withYield temporarily overrides an architecture's yield-event cost.
func withYield(arch topology.Arch, v float64, fn func()) {
	old := yieldEventCost[arch]
	yieldEventCost[arch] = v
	defer func() { yieldEventCost[arch] = old }()
	fn()
}

// withDrift temporarily overrides an architecture's run-drift vector.
func withDrift(arch string, v []float64, fn func()) {
	old := runDrift[arch]
	runDrift[arch] = v
	defer func() { runDrift[arch] = old }()
	fn()
}

func bindingGain(m *topology.Machine, p *Profile, threads int) float64 {
	def := env.Default(m)
	bound := def
	bound.Places = topology.PlaceCores
	bound.ProcBind = openmp.BindSpread
	set := Setting{Label: "abl", Threads: threads, Scale: 1}
	return EvaluateExact(m, p, def, set) / EvaluateExact(m, p, bound, set)
}

func TestAblationScatterDrivesXSBenchMilanOutlier(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	p := &Profile{
		Name: "xs-abl", Class: LoopParallel,
		SerialFrac: 0.005, CPUWorkGOps: 70, MemTrafficGB: 28, WorkGrowth: 1,
		Regions: 20, ItersPerRegion: 1e6, MemSens: 0.3, CacheSens: 3.2,
	}
	withGain := bindingGain(m, p, 24)
	if withGain < 1.8 {
		t.Fatalf("baseline Milan binding gain %v, want > 1.8", withGain)
	}
	withScatter(topology.Milan, 0, func() {
		ablGain := bindingGain(m, p, 24)
		if ablGain > 1.1 {
			t.Errorf("with scatter ablated, binding gain %v should collapse to ~1", ablGain)
		}
	})
}

func TestAblationYieldAsymmetryDrivesNQueensOrdering(t *testing.T) {
	p := &Profile{
		Name: "nq-abl", Class: TaskParallel,
		SerialFrac: 0.01, CPUWorkGOps: 25, MemTrafficGB: 0.4, WorkGrowth: 1,
		Regions: 1, Tasks: 2.8e6, AvgTaskUS: 6, TaskIdleFactor: 7.5,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.7},
	}
	gain := func(arch topology.Arch) float64 {
		m := topology.MustGet(arch)
		def := env.Default(m)
		turn := def
		turn.Library = openmp.LibTurnaround
		set := Setting{Label: "abl", Threads: m.Cores, Scale: 1}
		return EvaluateExact(m, p, def, set) / EvaluateExact(m, p, turn, set)
	}
	if a, mi := gain(topology.A64FX), gain(topology.Milan); a <= mi {
		t.Fatalf("baseline: a64fx gain %v should exceed milan %v", a, mi)
	}
	// Equalize the yield cost: the architecture ordering must invert or
	// flatten (milan's 96 cheaper-clocked threads absorb idle better, so
	// with identical syscall costs A64FX loses its outlier status).
	withYield(topology.A64FX, 0.5e-6, func() {
		a, mi := gain(topology.A64FX), gain(topology.Milan)
		if a > mi*1.5 {
			t.Errorf("with uniform yield costs, a64fx gain %v should not dwarf milan %v", a, mi)
		}
	})
}

func TestAblationDriftDrivesMilanRunDifferences(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	p := &Profile{
		Name: "drift-abl", Class: LoopParallel,
		SerialFrac: 0.01, CPUWorkGOps: 50, MemTrafficGB: 10, WorkGrowth: 1,
		Regions: 50, ItersPerRegion: 1e4, MemSens: 0.3, CacheSens: 0.3,
	}
	cfg := env.Default(m)
	set := Setting{Label: "abl", Threads: m.Cores, Scale: 1}
	r0 := Evaluate(m, p, cfg, set, 0)
	r1 := Evaluate(m, p, cfg, set, 1)
	if r0/r1 < 1.15 {
		t.Fatalf("baseline Milan R0/R1 = %v, want the ~1.24 warm-up drift", r0/r1)
	}
	withDrift("milan", []float64{1, 1, 1, 1}, func() {
		a0 := Evaluate(m, p, cfg, set, 0)
		a1 := Evaluate(m, p, cfg, set, 1)
		if math.Abs(a0/a1-1) > 0.03 {
			t.Errorf("with drift ablated, R0/R1 = %v, want ~1", a0/a1)
		}
	})
}

func TestAblationOversubscriptionDrivesWorstTrend(t *testing.T) {
	// The Q4 worst trend (master binding on cores) is pure oversubscription:
	// binding the same team to a whole socket instead caps the damage.
	m := topology.MustGet(topology.Skylake)
	p := &Profile{
		Name: "over-abl", Class: LoopParallel,
		SerialFrac: 0.01, CPUWorkGOps: 50, MemTrafficGB: 5, WorkGrowth: 1,
		Regions: 10, ItersPerRegion: 1e4,
	}
	set := Setting{Label: "abl", Threads: m.Cores, Scale: 1}
	def := env.Default(m)
	masterCores := def
	masterCores.Places = topology.PlaceCores
	masterCores.ProcBind = openmp.BindMaster
	masterSockets := def
	masterSockets.Places = topology.PlaceSockets
	masterSockets.ProcBind = openmp.BindMaster
	tDef := EvaluateExact(m, p, def, set)
	tCores := EvaluateExact(m, p, masterCores, set)
	tSockets := EvaluateExact(m, p, masterSockets, set)
	if tCores < 10*tDef {
		t.Errorf("master-on-cores %v vs default %v: oversubscription should be ~40x on cpu work", tCores, tDef)
	}
	if tSockets > tCores/5 {
		t.Errorf("master-on-sockets %v should be far milder than master-on-cores %v", tSockets, tCores)
	}
	if tSockets < tDef {
		t.Errorf("master-on-sockets %v should still trail the default %v", tSockets, tDef)
	}
}

func TestAblationAlignmentActsThroughReductions(t *testing.T) {
	// KMP_ALIGN_ALLOC only matters where runtime-internal shared state is
	// hot: with no reductions and few regions, its effect must vanish.
	m := topology.MustGet(topology.Skylake)
	noRed := &Profile{
		Name: "align-abl", Class: LoopParallel,
		SerialFrac: 0.01, CPUWorkGOps: 50, MemTrafficGB: 5, WorkGrowth: 1,
		Regions: 2, ItersPerRegion: 1e4,
	}
	set := Setting{Label: "abl", Threads: m.Cores, Scale: 1}
	c64 := env.Default(m)
	c128 := c64
	c128.AlignAlloc = 128
	relDiff := math.Abs(EvaluateExact(m, noRed, c64, set)-EvaluateExact(m, noRed, c128, set)) /
		EvaluateExact(m, noRed, c64, set)
	if relDiff > 0.001 {
		t.Errorf("alignment changed a reduction-free run by %v, want ~0", relDiff)
	}
}
