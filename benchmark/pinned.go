package main

import "omptune/internal/topology"

// Pins: values a change may not move by doing less work. A run fails when
// what it computes differs from them.

// pinTable is checked at the benchmark's own sizes only; the smoke test's
// reduced sizes run without it (or with one of its own, to prove that a
// wrong pin fails the run).
type pinTable struct {
	// samples is the Table II dataset size, samplesPerArch its split.
	samples        int
	samplesPerArch map[topology.Arch]int
	// kernelChecksum is each study kernel's checksum from a one-thread,
	// default-configuration run at kernelScale.
	kernelChecksum map[string]float64
	// searchBest is the best mean runtime each strategy finds on three of
	// the nine search problems at pinnedSearchSeed with 300 evaluations.
	searchBest []searchPin
}

type searchPin struct {
	problem     int // index into searchProblems()
	strategy    string
	bestSeconds float64
}

const pinnedSearchSeed = 20240917

// kernelScale is the input scale each kernel is measured at: the smallest
// at which a rep on two threads takes a millisecond or more, with one rep
// of all 60 series summing to about 0.3 s.
var kernelScale = map[string]float64{
	"BT": 1, "CG": 4, "EP": 3, "FT": 2, "LU": 4, "MG": 2,
	"Alignment": 0.8, "Health": 2, "Nqueens": 2, "Sort": 0.8, "Strassen": 2,
	"LULESH": 2, "RSBench": 1, "SU3Bench": 2, "XSbench": 3,
}

var pinned = pinTable{
	samples: 244305,
	samplesPerArch: map[topology.Arch]int{
		topology.A64FX:   53806,
		topology.Skylake: 90480,
		topology.Milan:   100019,
	},
	kernelChecksum: map[string]float64{
		"BT":        -0.17943274834889075,
		"CG":        14.93285086620512,
		"EP":        141377.63912376811,
		"FT":        -338.42344837824135,
		"LU":        0.54105465207186054,
		"MG":        0.037002493602518963,
		"Alignment": -4252,
		"Health":    8155,
		"Nqueens":   352,
		"Sort":      1.5013020526038372,
		"Strassen":  51.597656886956273,
		"LULESH":    12023.460041992435,
		"RSBench":   440970.40900251514,
		"SU3Bench":  -34.372990966403414,
		"XSbench":   125118.4456210522,
	},
	searchBest: []searchPin{
		// a64fx/Nqueens/small
		{0, "greedy", 0.13875}, {0, "restart", 0.138}, {0, "anneal", 0.1385}, {0, "surrogate", 0.138}, {0, "random", 0.13875},
		// skylake/CG/small
		{4, "greedy", 0.37375}, {4, "restart", 0.37275}, {4, "anneal", 0.3735}, {4, "surrogate", 0.373}, {4, "random", 0.3725},
		// milan/XSbench/t24
		{8, "greedy", 1.63225}, {8, "restart", 1.62375}, {8, "anneal", 1.62775}, {8, "surrogate", 1.6275}, {8, "random", 1.63075},
	},
}
