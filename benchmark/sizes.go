package main

// sizes fixes how much work a run does. Inputs (dataset fractions, search
// budget, kernel scales, operation counts) are the same on every run of the
// benchmark; only pass counts follow --seconds, through forSeconds. The
// reduced values serve the warm-up pass of set-up and the smoke test.
type sizes struct {
	// paper_pipeline
	fractionDiv float64  // Table II fractions are divided by this (1 = the full 244,305 samples)
	apps        []string // applications collected (nil = all that ran on each machine)
	collects    int      // timed Collect calls per run

	// search_tune
	maxEvals     int // SearchBudget.MaxEvals of every search
	searchPasses int // passes of 45 searches

	// measured_kernels
	scaleMul   float64 // multiplies each kernel's pinned scale
	kernelReps int     // timed reps per series (warm-up 1)

	// runtime_overheads
	opsDiv int // divides each cell's operation count
	rounds int // interleaved rounds over the 26 cells

	// probeDiv divides the repetition counts of the traced run's probes.
	probeDiv int

	// pins are the values nothing may change by doing less; nil where the
	// sizes are not the benchmark's own.
	pins *pinTable
}

func fullSizes() sizes {
	return sizes{
		fractionDiv: 1, collects: 3,
		maxEvals: 300, searchPasses: 15,
		scaleMul: 1, kernelReps: 9,
		opsDiv: 1, rounds: 9,
		probeDiv: 1,
		pins:     &pinned,
	}
}

// reducedSizes is a few seconds of work in all: the shape of every
// workload with none of its weight.
func reducedSizes() sizes {
	return sizes{
		// The seven applications the report's named tables and figures read.
		// Collect walks the whole configuration space whatever the fraction,
		// so fewer applications is what makes the reduced pass short.
		fractionDiv: 8, collects: 1,
		apps:     []string{"Alignment", "BT", "CG", "Health", "Nqueens", "RSBench", "XSbench"},
		maxEvals: 40, searchPasses: 1,
		scaleMul: 0.25, kernelReps: 1,
		opsDiv: 40, rounds: 1,
		probeDiv: 20,
	}
}

// forSeconds is the fixed table from --seconds to pass counts. run_seconds
// in BENCHMARK.json is 20; shorter settings exist for trying things out. A
// traced run makes fewer passes over the same inputs.
func (s sizes) forSeconds(seconds int, traced bool) sizes {
	scale := func(n, half, quick int) int {
		switch {
		case n == 1:
			return 1
		case seconds >= 20 && !traced:
			return n
		case seconds >= 10:
			return half
		default:
			return quick
		}
	}
	s.collects = scale(s.collects, 1, 1)
	s.searchPasses = scale(s.searchPasses, 7, 3)
	s.kernelReps = scale(s.kernelReps, 5, 3)
	s.rounds = scale(s.rounds, 3, 2)
	return s
}
