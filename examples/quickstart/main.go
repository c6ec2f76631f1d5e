// Quickstart: collect a small sweep for one application on one
// architecture, then show how much headroom the LLVM/OpenMP environment
// variables leave over the default configuration and which configuration
// is best — the study's core loop in ~40 lines.
package main

import (
	"fmt"
	"log"

	"omptune"
)

func main() {
	// Sweep 15% of XSBench's configuration space on the AMD Milan model.
	// (The paper's headline outlier: 2.6x from thread binding alone.)
	ds, err := omptune.Collect(omptune.CollectOptions{
		Arches:   []omptune.Arch{omptune.Milan},
		Apps:     []string{"XSbench"},
		Fraction: map[omptune.Arch]float64{omptune.Milan: 0.15},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d samples\n\n", ds.Len())

	// Per setting (thread count), report the best configuration found.
	for _, g := range ds.Groups() {
		best := g.Best()
		fmt.Printf("%s\n", best.SettingKey())
		fmt.Printf("  default: %.3fs   best: %.3fs   speedup: %.2fx\n",
			best.DefaultRuntime, best.MeanRuntime(), best.Speedup())
		fmt.Printf("  best configuration: %s\n\n", best.Config)
	}

	lo, hi := ds.SpeedupRange()
	fmt.Printf("speedup range across settings: %.3f - %.3f (paper Table V: 1.016 - 2.602)\n", lo, hi)
}
