package openmp_test

import (
	"testing"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// TestRuntimeOptionsStealOrderPrefersSameNUMA drives the NUMA-aware
// victim-ordering seam end to end on the study's machine models: env.Config
// → RuntimeOptions (places + PlaceDistanceMatrix) → openmp.New → StealOrder.
// Every thread's steal scan must try all same-NUMA victims before any
// remote one, and never regress to a nearer victim after a farther one.
func TestRuntimeOptionsStealOrderPrefersSameNUMA(t *testing.T) {
	for _, arch := range []topology.Arch{topology.A64FX, topology.Milan} {
		m := topology.MustGet(arch)
		c := env.Default(m)
		c.Places = topology.PlaceNUMA
		c.ProcBind = openmp.BindSpread
		o := c.RuntimeOptions(m)
		if len(o.PlaceDistances) != len(o.Places) {
			t.Fatalf("%s: %d distance rows for %d places", arch, len(o.PlaceDistances), len(o.Places))
		}
		// Two threads per NUMA domain: enough that every thread has both a
		// same-NUMA victim and remote ones, cheap enough to spawn for real.
		o.NumThreads = 2 * m.NUMANodes
		rt, err := openmp.New(o)
		if err != nil {
			t.Fatalf("%s: New: %v", arch, err)
		}
		defer rt.Close()

		order := rt.StealOrder()
		if order == nil {
			t.Fatalf("%s: StealOrder nil despite NUMA places and distances", arch)
		}
		placement := rt.Placement()
		sawRemote := false
		for i, row := range order {
			if len(row) != o.NumThreads-1 {
				t.Fatalf("%s thread %d: %d victims, want %d", arch, i, len(row), o.NumThreads-1)
			}
			prev := -1.0
			for _, v := range row {
				d := o.PlaceDistances[placement[i]][placement[v]]
				if d < prev {
					t.Errorf("%s thread %d: victim %d at distance %v after %v — remote tried before same-NUMA",
						arch, i, v, d, prev)
				}
				prev = d
				if d > 10 {
					sawRemote = true
				}
			}
			// With spread binding over 2*NUMANodes threads, the one same-NUMA
			// peer must be the first victim scanned.
			if first := row[0]; o.PlaceDistances[placement[i]][placement[first]] != 10 {
				t.Errorf("%s thread %d: first victim %d is not NUMA-local", arch, i, first)
			}
		}
		if !sawRemote {
			t.Fatalf("%s: test vacuous — no remote victims in any scan order", arch)
		}
	}
}

// TestNewWithPlacesAllocsPerTeam: binding a team to places costs New the
// thread→place assignment and one flat victim table for the whole team,
// nothing per thread, so at every width New under a place kind makes at
// most 2 allocations more than with places unset.
func TestNewWithPlacesAllocsPerTeam(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	allocs := func(places topology.PlaceKind, threads int) float64 {
		c := env.Default(m)
		c.Places = places
		o := c.RuntimeOptions(m)
		o.NumThreads = threads
		return testing.AllocsPerRun(20, func() {
			rt, err := openmp.New(o)
			if err != nil {
				t.Fatal(err)
			}
			rt.Close()
		})
	}
	for _, threads := range []int{2, 4} {
		unset := allocs(topology.PlaceUnset, threads)
		for _, places := range append(env.PlaceKinds()[1:], topology.PlaceNUMA) {
			if got := allocs(places, threads); got > unset+2 {
				t.Errorf("T = %d, OMP_PLACES=%s: New makes %v allocations, want at most %v (unset's %v + 2)",
					threads, places, got, unset+2, unset)
			}
		}
	}
}
