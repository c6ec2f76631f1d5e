// Autotune demonstrates the paper's §VI proposal: use the influence
// analysis to prune the search space, then tune one variable at a time in
// importance order. It compares a naive full-order coordinate descent
// against an influence-guided one restricted to the top-ranked variables,
// showing that most of the speedup is reachable with a fraction of the
// evaluations.
package main

import (
	"fmt"
	"log"

	"omptune"
)

func main() {
	// Step 1: collect a reduced dataset and learn the per-architecture
	// feature influence (the Fig. 3 analysis).
	ds, err := omptune.Collect(omptune.CollectOptions{
		Apps:     []string{"Nqueens", "Health", "XSbench", "MG"},
		Fraction: map[omptune.Arch]float64{omptune.A64FX: 0.1, omptune.Skylake: 0.07, omptune.Milan: 0.07},
	})
	if err != nil {
		log.Fatal(err)
	}
	hm, err := omptune.Influence(ds, omptune.PerArch)
	if err != nil {
		log.Fatal(err)
	}

	// Step 2: keep only the environment variables among the top-ranked
	// features — the search-space pruning of §VI.
	var guided []omptune.VarName
	isVar := map[string]bool{}
	for _, v := range omptune.Variables() {
		isVar[string(v)] = true
	}
	for _, f := range hm.FeatureRank() {
		if isVar[f] {
			guided = append(guided, omptune.VarName(f))
		}
		if len(guided) == 3 {
			break
		}
	}
	fmt.Printf("influence-ranked variables: %v\n\n", guided)

	// Step 3: tune each application on each architecture both ways.
	for _, appName := range []string{"Nqueens", "Health", "XSbench"} {
		app, err := omptune.ApplicationByName(appName)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range omptune.Machines() {
			if !app.RunsOn(m.Arch) {
				continue
			}
			set := app.Settings(m)[0]
			naive := omptune.Tune(nil, m, app, set, nil, 1000)
			pruned := omptune.Tune(nil, m, app, set, guided, 1000)
			fmt.Printf("%-8s %-8s naive: %.2fx in %3d evals | pruned: %.2fx in %3d evals\n",
				appName, m.Arch, naive.Speedup(), naive.Evaluations,
				pruned.Speedup(), pruned.Evaluations)
		}
	}
	fmt.Println("\npruned search reaches comparable speedups with far fewer runs —")
	fmt.Println("the study's qualitative influence analysis acting as a tuning prior.")
}
