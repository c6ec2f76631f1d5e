package env

import (
	"omptune/internal/topology"
	"omptune/openmp"
)

// RuntimeOptions translates a swept configuration into the openmp runtime's
// Options on machine m — the bridge that lets every Config of the sweep
// space reach a real openmp.Runtime instead of only the analytic model.
//
// The four kinds are the runtime's own and pass through as they are. The
// abstract topology places (sockets, ll_caches, numa_domains) need a
// machine model, which is why this bridge exists. NumThreads is set to the
// machine's core count, the same default a full-machine run would use;
// callers running a specific setting override it with the setting's thread
// count.
func (c Config) RuntimeOptions(m *topology.Machine) openmp.Options {
	o := openmp.Options{
		NumThreads:  m.Cores,
		Schedule:    c.Schedule,
		Bind:        c.ProcBind,
		Library:     c.Library,
		BlocktimeMS: c.BlocktimeMS,
		Reduction:   c.ForceReduction,
		AlignAlloc:  c.AlignAlloc,
	}
	if c.Places != topology.PlaceUnset {
		// Resolve the place kind against the machine model, falling back to
		// cores for kinds the model cannot partition (as the sim does).
		places, err := m.Partition(c.Places)
		if err != nil {
			places, _ = m.Partition(topology.PlaceCores)
		}
		// Partition's places are the call's own, so the specs take their
		// cores as they are.
		o.Places = make([]openmp.PlaceSpec, len(places))
		for i, p := range places {
			o.Places[i] = openmp.PlaceSpec{Cores: p.Cores}
		}
		// Give the runtime the machine's place-distance model so task
		// stealing can prefer NUMA-near victims (and classify steal
		// locality in its stats).
		o.PlaceDistances = m.PlaceDistanceMatrix(places)
	}
	return o
}
