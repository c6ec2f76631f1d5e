package apps

import (
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// The profiles below parameterize the performance model for each
// application. Work quantities are rough per-run figures at the study's
// default ("medium") input; what matters for the reproduction is not their
// absolute accuracy but the relative sensitivities, which are calibrated
// against the paper's Section V observations (see DESIGN.md, "Calibration
// targets", and the calibration test in internal/sim).

var btApp = register(&App{
	Name: "BT", Suite: NPB, VariesInput: true, Kernel: kernel(kernelBT),
	Profile: &sim.Profile{
		Name: "BT", Class: sim.LoopParallel,
		SerialFrac: 0.003, CPUWorkGOps: 110, MemTrafficGB: 45, WorkGrowth: 1.3,
		Regions: 1200, ItersPerRegion: 4000, Imbalance: 0.065,
		ReductionsPerRun: 60,
		MemSens:          0.80, MemSizeExp: 1.2, CacheSens: 0.30,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.85},
	},
})

var cgApp = register(&App{
	Name: "CG", Suite: NPB, VariesInput: true, Kernel: kernel(kernelCG),
	Profile: &sim.Profile{
		Name: "CG", Class: sim.LoopParallel,
		// Sparse matrix-vector products: low arithmetic intensity, indirect
		// accesses, and two inner-product reductions per iteration. The
		// reduction count is what makes KMP_FORCE_REDUCTION visible here
		// (Table VII highlights CG on Skylake).
		SerialFrac: 0.006, CPUWorkGOps: 45, MemTrafficGB: 120, WorkGrowth: 1.2,
		Regions: 1900, ItersPerRegion: 150000, Imbalance: 0.045,
		ReductionsPerRun: 3800,
		MemSens:          1.60, MemSizeExp: 1.2, CacheSens: 0.30,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.9},
	},
})

var epApp = register(&App{
	Name: "EP", Suite: NPB, VariesInput: true, Kernel: kernel(kernelEP),
	Profile: &sim.Profile{
		Name: "EP", Class: sim.LoopParallel,
		// Embarrassingly parallel RNG: compute bound, negligible traffic,
		// mild imbalance from rejection sampling.
		SerialFrac: 0.001, CPUWorkGOps: 160, MemTrafficGB: 0.2, WorkGrowth: 1.0,
		Regions: 12, ItersPerRegion: 65536, Imbalance: 0.020,
		ReductionsPerRun: 36,
		MemSens:          0.02, CacheSens: 0.04,
	},
})

var ftApp = register(&App{
	Name: "FT", Suite: NPB, VariesInput: true, Kernel: kernel(kernelFT),
	Profile: &sim.Profile{
		Name: "FT", Class: sim.LoopParallel,
		// 3-D FFT: bandwidth heavy transposes.
		SerialFrac: 0.004, CPUWorkGOps: 90, MemTrafficGB: 140, WorkGrowth: 1.25,
		Regions: 150, ItersPerRegion: 65536, Imbalance: 0.050,
		ReductionsPerRun: 8,
		MemSens:          1.00, MemSizeExp: 1.2, CacheSens: 0.25,
		IPC: map[topology.Arch]float64{topology.A64FX: 1.1},
	},
})

var luApp = register(&App{
	Name: "LU", Suite: NPB, VariesInput: true, Kernel: kernel(kernelLU),
	Profile: &sim.Profile{
		Name: "LU", Class: sim.LoopParallel,
		// SSOR with wavefront dependencies: many small regions, triangular
		// imbalance.
		SerialFrac: 0.010, CPUWorkGOps: 95, MemTrafficGB: 30, WorkGrowth: 1.3,
		Regions: 2500, ItersPerRegion: 2500, Imbalance: 0.090,
		ReductionsPerRun: 120,
		MemSens:          0.90, MemSizeExp: 1.2, CacheSens: 0.25,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.8},
	},
})

var mgApp = register(&App{
	Name: "MG", Suite: NPB, VariesInput: true, Kernel: kernel(kernelMG),
	Profile: &sim.Profile{
		Name: "MG", Class: sim.LoopParallel,
		// Multigrid V-cycles: almost purely bandwidth bound, so first-touch
		// locality under unbound threads dominates (2.17x headroom on the
		// NUMA-rich Milan, per Table VI).
		SerialFrac: 0.004, CPUWorkGOps: 15, MemTrafficGB: 140, WorkGrowth: 1.2,
		Regions: 900, ItersPerRegion: 40000, Imbalance: 0.040,
		ReductionsPerRun: 40,
		MemSens:          1.30, MemSizeExp: 1.2, CacheSens: 0.20,
		IPC: map[topology.Arch]float64{topology.A64FX: 1.1},
	},
})

var alignmentApp = register(&App{
	Name: "Alignment", Suite: BOTS, VariesInput: true, Kernel: kernel(kernelAlignment),
	Profile: &sim.Profile{
		Name: "Alignment", Class: sim.TaskParallel,
		// Pairwise sequence alignment: one task per pair, quadratic cost in
		// the (varying) sequence lengths — coarse tasks, moderate idling.
		SerialFrac: 0.006, CPUWorkGOps: 55, MemTrafficGB: 2, WorkGrowth: 1.4,
		Regions: 4,
		Tasks:   5000, AvgTaskUS: 300, TaskIdleFactor: 120,
		MemSens: 0.12, CacheSens: 0.70,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.65},
	},
})

var healthApp = register(&App{
	Name: "Health", Suite: BOTS, VariesInput: true, Kernel: kernel(kernelHealth),
	Profile: &sim.Profile{
		Name: "Health", Class: sim.TaskParallel,
		// Hierarchical health-system simulation: very fine recursive tasks
		// every timestep; consistently large tuning headroom (Table VI:
		// 1.282-2.218), mostly from the wait policy.
		SerialFrac: 0.012, CPUWorkGOps: 22, MemTrafficGB: 4, WorkGrowth: 1.3,
		Regions: 4,
		Tasks:   900000, AvgTaskUS: 25, TaskIdleFactor: 6,
		MemSens: 0.22, CacheSens: 0.45,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.7},
	},
})

var nqueensApp = register(&App{
	Name: "Nqueens", Suite: BOTS, VariesInput: true, Kernel: kernel(kernelNQueens),
	Profile: &sim.Profile{
		Name: "Nqueens", Class: sim.TaskParallel,
		// Exhaustive backtracking with millions of tiny tasks: idle-event
		// cost dominates, so KMP_LIBRARY=turnaround wins everywhere
		// (Table VII) with the largest factor on the slow-syscall A64FX
		// (4.85x, Table VI).
		SerialFrac: 0.010, CPUWorkGOps: 25, MemTrafficGB: 0.4, WorkGrowth: 1.8,
		Regions: 1,
		Tasks:   2800000, AvgTaskUS: 6, TaskIdleFactor: 7.5,
		MemSens: 0.04, CacheSens: 0.10,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.7},
	},
})

var sortApp = register(&App{
	Name: "Sort", Suite: BOTS, VariesInput: true, Kernel: kernel(kernelSort),
	Profile: &sim.Profile{
		Name: "Sort", Class: sim.TaskParallel,
		// Parallel mergesort (A64FX only in the dataset): moderate tasks,
		// memory streaming in the merge phase.
		SerialFrac: 0.010, CPUWorkGOps: 35, MemTrafficGB: 10, WorkGrowth: 1.1,
		Regions: 2,
		Tasks:   400000, AvgTaskUS: 90, TaskIdleFactor: 2.6,
		MemSens: 0.40, CacheSens: 0.25,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.75},
	},
})

var strassenApp = register(&App{
	Name: "Strassen", Suite: BOTS, VariesInput: true, Kernel: kernel(kernelStrassen),
	Profile: &sim.Profile{
		Name: "Strassen", Class: sim.TaskParallel,
		// Strassen multiplication (A64FX only): coarse compute-bound tasks,
		// almost nothing to tune (Table VI: 1.023-1.025).
		SerialFrac: 0.030, CPUWorkGOps: 120, MemTrafficGB: 6, WorkGrowth: 1.5,
		Regions: 1,
		Tasks:   50000, AvgTaskUS: 200, TaskIdleFactor: 8,
		MemSens: 0.15, CacheSens: 0.12,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.9},
	},
})

var rsbenchApp = register(&App{
	Name: "RSBench", Suite: Proxy, VariesInput: false, Kernel: kernel(kernelRSBench),
	Profile: &sim.Profile{
		Name: "RSBench", Class: sim.LoopParallel,
		// Multipole cross-section lookups: more arithmetic per lookup than
		// XSBench, hence smaller memory sensitivity and headroom.
		SerialFrac: 0.004, CPUWorkGOps: 130, MemTrafficGB: 10, WorkGrowth: 1.0,
		Regions: 24, ItersPerRegion: 400000, Imbalance: 0.050,
		ReductionsPerRun: 24,
		MemSens:          0.25, CacheSens: 0.35,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.75},
	},
})

var xsbenchApp = register(&App{
	Name: "XSbench", Suite: Proxy, VariesInput: false, Kernel: kernel(kernelXSBench),
	Profile: &sim.Profile{
		Name: "XSbench", Class: sim.LoopParallel,
		// Random binary-search lookups over a large unionized energy grid:
		// pure cache/latency bound. On the CCX-fragmented Milan, unbound
		// threads at partial occupancy lose all L3 affinity — the paper's
		// 2.6x outlier (Table V) — while A64FX and Skylake barely move.
		SerialFrac: 0.005, CPUWorkGOps: 70, MemTrafficGB: 28, WorkGrowth: 1.0,
		Regions: 20, ItersPerRegion: 1000000, Imbalance: 0.020,
		ReductionsPerRun: 20,
		MemSens:          0.30, CacheSens: 3.20,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.7},
	},
})

var su3App = register(&App{
	Name: "SU3Bench", Suite: Proxy, VariesInput: false, Kernel: kernel(kernelSU3),
	Profile: &sim.Profile{
		Name: "SU3Bench", Class: sim.LoopParallel,
		// SU(3) matrix-matrix streaming: perfectly balanced, bandwidth
		// bound; big NUMA headroom on Milan (2.279 in Table VI), none on
		// the HBM-fed A64FX (1.002).
		SerialFrac: 0.002, CPUWorkGOps: 12, MemTrafficGB: 60, WorkGrowth: 1.0,
		Regions: 240, ItersPerRegion: 300000, Imbalance: 0.0,
		MemSens: 2.0, CacheSens: 0.15,
		IPC: map[topology.Arch]float64{topology.A64FX: 1.3},
	},
})

var luleshApp = register(&App{
	Name: "LULESH", Suite: Proxy, VariesInput: false, Kernel: kernel(kernelLULESH),
	Profile: &sim.Profile{
		Name: "LULESH", Class: sim.LoopParallel,
		// Explicit shock hydrodynamics: dozens of short regions per
		// timestep with a dt reduction, modest per-variable headroom
		// (Table VI: 1.004-1.062).
		SerialFrac: 0.020, CPUWorkGOps: 100, MemTrafficGB: 20, WorkGrowth: 1.2,
		Regions: 5000, ItersPerRegion: 30000, Imbalance: 0.035,
		ReductionsPerRun: 1500,
		MemSens:          0.12, CacheSens: 0.05,
		IPC: map[topology.Arch]float64{topology.A64FX: 0.9},
	},
})

// Quiet any "declared and not used" scrutiny for grouped registration: the
// vars exist so godoc lists one identifier per application.
var _ = []*App{btApp, cgApp, epApp, ftApp, luApp, mgApp, alignmentApp,
	healthApp, nqueensApp, sortApp, strassenApp, rsbenchApp, xsbenchApp,
	su3App, luleshApp}
