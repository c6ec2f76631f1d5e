package sim_test

import (
	"math/rand"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// TestEvaluateSeriesMatchesEvaluate holds EvaluateSeries, and Bound.Series
// under the key's KeyHash, to Evaluate with == on every repetition: the
// sweep's dataset and the searchers' objective are byte-pinned, so sharing
// the repetition-independent work may not move a bit. The draw covers every
// architecture, every application, every setting, and configurations of the
// extended space.
func TestEvaluateSeriesMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(20241117))
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		space := core.ExtendedSpace(m)
		for _, app := range apps.All() {
			for _, set := range app.Settings(m) {
				b := sim.Bind(m, app.Profile, set)
				for draw := 0; draw < 64; draw++ {
					cfg := space[rng.Intn(len(space))]
					key := cfg.Key()
					series := sim.EvaluateSeries(m, app.Profile, cfg, key, set)
					bound := b.Series(cfg, sim.KeyHash(key))
					for rep, got := range series {
						if want := sim.Evaluate(m, app.Profile, cfg, set, rep); got != want || bound[rep] != want {
							t.Fatalf("%s %s %s %s rep %d: series %v, Bound.Series %v, Evaluate %v",
								arch, app.Name, set.Label, cfg, rep, got, bound[rep], want)
						}
					}
				}
			}
		}
	}
}
