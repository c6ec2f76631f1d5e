package sim

import "omptune/internal/topology"

// Class is the parallelism style of an application.
type Class string

// Parallelism styles: worksharing loops (NPB, proxies) vs. explicit tasking
// (the BOTS applications).
const (
	LoopParallel Class = "loop"
	TaskParallel Class = "task"
)

// Profile characterizes one application for the performance model. All
// work quantities are given at input scale 1.0 and grow as scale^WorkGrowth.
type Profile struct {
	Name  string
	Class Class

	// SerialFrac is the Amdahl serial fraction of the run.
	SerialFrac float64
	// CPUWorkGOps is the parallel CPU work in giga-operations at scale 1.
	CPUWorkGOps float64
	// MemTrafficGB is the DRAM traffic in GB at scale 1 for the
	// bandwidth-bound portion of the run.
	MemTrafficGB float64
	// WorkGrowth is the exponent with which work grows in the input scale.
	WorkGrowth float64

	// Regions is the number of parallel regions per run at scale 1
	// (fork/join and wait-policy costs are paid per region).
	Regions float64
	// ItersPerRegion is the worksharing trip count per region at scale 1
	// (schedule overhead is paid per chunk).
	ItersPerRegion float64
	// Imbalance is the relative spread of per-iteration cost: 0 for uniform
	// loops (EP, SU3), larger for triangular or data-dependent loops.
	Imbalance float64
	// ReductionsPerRun is how many team-wide reductions a run performs.
	ReductionsPerRun float64

	// Tasks is the number of explicit tasks per run at scale 1 (task apps).
	Tasks float64
	// AvgTaskUS is the mean task granularity in microseconds.
	AvgTaskUS float64
	// TaskIdleFactor is the mean number of idle/steal wait events per task;
	// it multiplies the wait-policy event cost, which is what makes
	// fine-grained tasking (NQueens) so sensitive to KMP_LIBRARY.
	TaskIdleFactor float64

	// MemSens scales how strongly the run suffers from non-local memory
	// (0 = compute bound, 1 = fully bandwidth/latency bound).
	MemSens float64
	// MemSizeExp controls how the NUMA first-touch penalty grows with the
	// input scale: 0 means the full penalty applies at every size (large
	// default working sets, e.g. the proxy apps), larger exponents confine
	// it to the biggest inputs (NPB classes that fit cache when small).
	MemSizeExp float64
	// CacheSens scales how strongly the run suffers from losing cache
	// affinity when unbound threads migrate between cache domains.
	CacheSens float64
	// IPC is a per-architecture efficiency factor (vectorization quality,
	// core width). Missing entries default to 1.0.
	IPC map[topology.Arch]float64
}

// ipc returns the architecture efficiency factor, defaulting to 1.
func (p *Profile) ipc(arch topology.Arch) float64 {
	if f, ok := p.IPC[arch]; ok {
		return f
	}
	return 1.0
}

// Setting is one experimental setting: a thread count and an input scale.
// Per §IV-B, NPB and BOTS vary the input at a fixed thread count while the
// proxy applications vary threads at the default input.
type Setting struct {
	Label   string  // e.g. "small", "A", "t24"
	Threads int     // OMP_NUM_THREADS
	Scale   float64 // input scale relative to the default size
}

// InputSettings returns the three input-size settings (small, medium,
// large) at the machine's full core count, used for NPB and BOTS.
func InputSettings(m *topology.Machine) []Setting {
	return []Setting{
		{Label: "small", Threads: m.Cores, Scale: 0.4},
		{Label: "medium", Threads: m.Cores, Scale: 1.0},
		{Label: "large", Threads: m.Cores, Scale: 2.5},
	}
}

// ThreadSettings returns the three thread-count settings at the default
// input, used for XSBench, RSBench, SU3Bench and LULESH.
func ThreadSettings(m *topology.Machine) []Setting {
	out := make([]Setting, 0, 3)
	for _, t := range m.SweepThreadCounts() {
		out = append(out, Setting{Label: "t" + itoa(t), Threads: t, Scale: 1.0})
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
