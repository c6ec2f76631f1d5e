package sim

import (
	"omptune/internal/env"
	"omptune/internal/topology"
)

// RefSeries and RefExact expose the frozen pre-binding model of
// bound_ref_test.go to the external tests.
func RefSeries(m *topology.Machine, p *Profile, cfg env.Config, key string, set Setting) (out [Reps]float64) {
	s := refNewSeries(m, p, cfg, key, set)
	for rep := range out {
		out[rep] = s.at(rep)
	}
	return out
}

var RefExact = refEvaluateExact
