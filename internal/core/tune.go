package core

import (
	"context"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// Tune performs the search-space-pruned coordinate descent the paper
// proposes in §VI: vary one variable at a time in the given importance
// order (most influential first, e.g. a Fig. 3 heatmap's features by mean
// influence), keeping the best value before moving on, and stop after a
// full pass with no improvement or when the evaluation budget is exhausted.
//
// The objective is the mean of the repeated measurements — the same
// quantity the study's speedups use — so Tune behaves like a user re-running
// the real application under candidate environments. The ev backend decides
// what "measurement" means: nil (or ModelEvaluator) evaluates the analytic
// model, the measured backend runs the application's kernel on a real
// openmp runtime.
//
// Tune is a convenience wrapper over the "greedy" strategy of the Searcher
// seam (see search.go): best configuration, evaluation count and accepted
// moves (SearchResult.Trajectory) are identical to the pre-seam
// implementation under the analytic backend, and the seam's memoizing
// evaluation cache spares the descent its repeated probes (the budget
// accounting still counts them, as before — only the backend work is saved).
// A default configuration whose series fails leaves no speedup to search
// for: Tune then returns the search's error, which wraps the backend's. A
// failing candidate is skipped, as in every search.
func Tune(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, order []env.VarName, budget int) (SearchResult, error) {
	return greedySearcher{}.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Order: order,
		Evaluator: ev, Budget: SearchBudget{MaxEvals: budget},
	})
}
