// Package topology models the CPU architectures used in the study.
//
// The three machines mirror Table I of the paper: a Fujitsu A64FX, an Intel
// Xeon Gold 6148 (Skylake), and an AMD EPYC 7643 (Milan). A Machine carries
// enough structural information — cores, sockets, NUMA nodes, last-level
// cache groups, cache-line size, clock and memory characteristics — for the
// OpenMP place partitioning in package env and for the performance model in
// package sim. Nothing here touches the host; topologies are pure data.
package topology

import "fmt"

// Arch identifies one of the CPU micro-architectures in the study.
type Arch string

// The three architectures evaluated by the paper (Table I).
const (
	A64FX   Arch = "a64fx"
	Skylake Arch = "skylake"
	Milan   Arch = "milan"
)

// Arches returns the architectures in the paper's presentation order.
func Arches() []Arch { return []Arch{A64FX, Skylake, Milan} }

// MemKind is the main memory technology of a machine.
type MemKind string

// Memory technologies appearing in Table I.
const (
	HBM  MemKind = "HBM"
	DDR4 MemKind = "DDR4"
)

// Machine describes one CPU architecture.
//
// The numeric fields reproduce Table I. The derived fields (CoresPerNUMA,
// LLCGroups) define the hierarchical place partitioning, and the cost fields
// (MemBWGBs, RemoteNUMAFactor, CrossSocketFactor, WakeupMicros, NoiseSigma)
// parameterize the performance model.
type Machine struct {
	Arch    Arch
	Name    string // marketing name, e.g. "Intel Xeon Gold 6148 (Skylake)"
	Cores   int
	Sockets int // 1 for the single-socket A64FX ("-" in Table I)
	// NUMANodes is the number of NUMA domains. On A64FX these are the four
	// core-memory groups (CMGs); on Milan, NPS4 across two sockets gives 8.
	NUMANodes      int
	ClockGHz       float64
	CacheLineBytes int
	Memory         MemKind
	MemGB          int

	// LLCGroups is the number of last-level cache domains: L2 per CMG on
	// A64FX (4), L3 per socket on Skylake (2), L3 per CCD on Milan (12).
	LLCGroups int

	// MemBWGBs is the aggregate memory bandwidth in GB/s used by the
	// performance model for memory-bound kernels.
	MemBWGBs float64
	// RemoteNUMAFactor multiplies memory latency/bandwidth cost for accesses
	// that resolve to a different NUMA node on the same socket.
	RemoteNUMAFactor float64
	// CrossSocketFactor multiplies cost for accesses crossing the socket
	// interconnect (UPI / Infinity Fabric). Equal to RemoteNUMAFactor on
	// single-socket machines.
	CrossSocketFactor float64
	// WakeupMicros is the cost, in microseconds, of waking a slept worker
	// thread (futex wake + migration), paid when KMP_BLOCKTIME has expired.
	WakeupMicros float64
	// NoiseSigma is the machine's config-persistent relative measurement
	// noise: variation that differs between configurations but repeats
	// across runs of the same configuration. (Run-to-run drift and
	// per-repetition noise, which drive the Wilcoxon findings of Table
	// III, live in the sim package.)
	NoiseSigma float64
}

// machines reproduces Table I, with model-calibration fields documented in
// DESIGN.md ("Calibration targets").
var machines = map[Arch]*Machine{
	A64FX: {
		Arch: A64FX, Name: "Fujitsu A64FX",
		Cores: 48, Sockets: 1, NUMANodes: 4,
		ClockGHz: 1.8, CacheLineBytes: 256, Memory: HBM, MemGB: 32,
		LLCGroups: 4,
		MemBWGBs:  1024, RemoteNUMAFactor: 1.4, CrossSocketFactor: 1.4,
		WakeupMicros: 18, NoiseSigma: 0.002,
	},
	Skylake: {
		Arch: Skylake, Name: "Intel Xeon Gold 6148 (Skylake)",
		Cores: 40, Sockets: 2, NUMANodes: 2,
		ClockGHz: 2.4, CacheLineBytes: 64, Memory: DDR4, MemGB: 188,
		LLCGroups: 2,
		MemBWGBs:  256, RemoteNUMAFactor: 1.7, CrossSocketFactor: 1.7,
		WakeupMicros: 9, NoiseSigma: 0.0015,
	},
	Milan: {
		Arch: Milan, Name: "AMD EPYC 7643 (Milan)",
		Cores: 96, Sockets: 2, NUMANodes: 8,
		ClockGHz: 2.3, CacheLineBytes: 64, Memory: DDR4, MemGB: 251,
		LLCGroups: 12,
		MemBWGBs:  400, RemoteNUMAFactor: 1.5, CrossSocketFactor: 2.1,
		WakeupMicros: 11, NoiseSigma: 0.006,
	},
}

// Get returns the machine model for arch. The error of an unknown arch lists
// the three there are.
func Get(arch Arch) (*Machine, error) {
	m, ok := machines[arch]
	if !ok {
		return nil, fmt.Errorf("topology: unknown architecture %q (valid: %s, %s, %s)", arch, A64FX, Skylake, Milan)
	}
	return m, nil
}

// MustGet is Get for the three known architectures; it panics on an unknown
// arch and is intended for use with the Arch constants.
func MustGet(arch Arch) *Machine {
	m, err := Get(arch)
	if err != nil {
		panic(err)
	}
	return m
}

// All returns the machine models in presentation order.
func All() []*Machine {
	out := make([]*Machine, 0, len(machines))
	for _, a := range Arches() {
		out = append(out, machines[a])
	}
	return out
}

// CoresPerNUMA returns the number of cores in each NUMA node.
func (m *Machine) CoresPerNUMA() int { return m.Cores / m.NUMANodes }

// NUMANodeOf returns the NUMA node index of core.
func (m *Machine) NUMANodeOf(core int) int { return core / m.CoresPerNUMA() }

// NUMADistance returns a SLIT-style relative distance between two NUMA
// nodes: 10 locally, 10*RemoteNUMAFactor within a socket, and
// 10*CrossSocketFactor across sockets.
func (m *Machine) NUMADistance(a, b int) float64 {
	if a == b {
		return 10
	}
	nodesPerSocket := m.NUMANodes / m.Sockets
	if nodesPerSocket == 0 {
		nodesPerSocket = m.NUMANodes
	}
	if a/nodesPerSocket == b/nodesPerSocket {
		return 10 * m.RemoteNUMAFactor
	}
	return 10 * m.CrossSocketFactor
}

// PlaceDistanceMatrix returns the pairwise NUMA distance between places:
// out[i][j] is NUMADistance between the nodes of place i and place j, in the
// same SLIT-style units (10 = local). A place's NUMA node is that of its
// first core — places produced by Partition never straddle node boundaries
// at granularities at or below numa_domains, and for coarser places
// (sockets, the whole machine) the first core is the representative. The
// matrix is what openmp.Options.PlaceDistances expects for NUMA-aware task
// stealing. Empty places map to node 0.
func (m *Machine) PlaceDistanceMatrix(places []Place) [][]float64 {
	node := make([]int, len(places))
	for i, p := range places {
		if len(p.Cores) > 0 {
			node[i] = m.NUMANodeOf(p.Cores[0])
		}
	}
	out := make([][]float64, len(places))
	cells := make([]float64, len(places)*len(places)) // one backing array, capped per row
	for i := range places {
		row := cells[i*len(places) : (i+1)*len(places) : (i+1)*len(places)]
		for j := range places {
			row[j] = m.NUMADistance(node[i], node[j])
		}
		out[i] = row
	}
	return out
}

// Place is a set of core IDs to which threads may be bound. Cores are kept
// sorted and never aliased between places produced by Partition.
type Place struct {
	Cores []int
}

// PlaceKind names the granularity at which the machine is partitioned into
// places, mirroring the values of OMP_PLACES.
type PlaceKind int

// Place kinds. Threads and NUMADomains exist for completeness; the paper
// excludes them from the sweep (no SMT machines; hwloc unavailable).
const (
	PlaceUnset PlaceKind = iota
	PlaceThreads
	PlaceCores
	PlaceLLCs
	PlaceSockets
	PlaceNUMA
)

// String returns the OMP_PLACES spelling of the kind.
func (k PlaceKind) String() string {
	switch k {
	case PlaceUnset:
		return "unset"
	case PlaceThreads:
		return "threads"
	case PlaceCores:
		return "cores"
	case PlaceLLCs:
		return "ll_caches"
	case PlaceSockets:
		return "sockets"
	case PlaceNUMA:
		return "numa_domains"
	}
	return fmt.Sprintf("PlaceKind(%d)", int(k))
}

// Partition splits the machine's cores into places of the requested kind.
// PlaceUnset yields a single place covering the whole machine (threads are
// free to migrate). PlaceThreads equals PlaceCores on the non-SMT machines
// in this study.
func (m *Machine) Partition(kind PlaceKind) ([]Place, error) {
	groups := 0
	switch kind {
	case PlaceUnset:
		groups = 1
	case PlaceThreads, PlaceCores:
		groups = m.Cores
	case PlaceLLCs:
		groups = m.LLCGroups
	case PlaceSockets:
		groups = m.Sockets
	case PlaceNUMA:
		groups = m.NUMANodes
	default:
		return nil, fmt.Errorf("topology: unknown place kind %q", kind)
	}
	per := m.Cores / groups
	places := make([]Place, groups)
	cores := make([]int, groups*per) // one backing array, capped per place
	for g := 0; g < groups; g++ {
		cs := cores[g*per : (g+1)*per : (g+1)*per]
		for i := range cs {
			cs[i] = g*per + i
		}
		places[g] = Place{Cores: cs}
	}
	return places, nil
}

// SweepThreadCounts returns the thread counts explored for applications that
// vary parallelism (XSBench, RSBench, SU3Bench, LULESH in §IV-B): a quarter,
// half, and the full machine.
func (m *Machine) SweepThreadCounts() []int {
	return []int{m.Cores / 4, m.Cores / 2, m.Cores}
}

// AlignAllocValues returns the KMP_ALIGN_ALLOC domain for the machine: the
// cache line size is always first (it is the default), per §III-7.
func (m *Machine) AlignAllocValues() []int {
	if m.CacheLineBytes == 256 {
		return []int{256, 512}
	}
	return []int{64, 128, 256, 512}
}
