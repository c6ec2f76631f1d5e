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

// EvaluateExact is Evaluate without measurement noise, drift or
// quantization: the model's "true" runtime, which the tests reason about.
func EvaluateExact(m *topology.Machine, p *Profile, cfg env.Config, set Setting) float64 {
	var b Bound
	b.bindModel(m, p, set)
	return b.exact(&cfg)
}
