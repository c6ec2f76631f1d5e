package apps

// Tests for the nested-parallelism applications: registry separation,
// checksum determinism across nesting configurations, and that the kernels
// really execute nested regions (visible in the runtime's stats).

import (
	"testing"

	"omptune/internal/topology"
	"omptune/openmp"
)

func TestNestedRegistrySeparation(t *testing.T) {
	if n := len(All()); n != 15 {
		t.Fatalf("All() has %d apps; the study set is pinned at 15", n)
	}
	nested := NestedApps()
	if len(nested) != 2 {
		t.Fatalf("NestedApps() = %d apps, want 2 (LUNest, TreeNest)", len(nested))
	}
	if nested[0].Name != "LUNest" || nested[1].Name != "TreeNest" {
		t.Errorf("NestedApps order %s, %s; want LUNest, TreeNest", nested[0].Name, nested[1].Name)
	}
	for _, name := range []string{"LUNest", "TreeNest"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if a.Profile.NestedRegions <= 0 || a.Profile.NestedFrac <= 0 {
			t.Errorf("%s profile has no nesting parameters", name)
		}
		for _, arch := range topology.Arches() {
			if !a.RunsOn(arch) {
				t.Errorf("%s excluded on %s; nested apps run everywhere", name, arch)
			}
		}
	}
}

// TestNestedKernelsDeterministicAcrossConfigs runs each nested kernel under
// a flat runtime, a threaded-nesting runtime and a budget-starved one; the
// checksums must agree exactly (scheduling- and width-independent results).
func TestNestedKernelsDeterministicAcrossConfigs(t *testing.T) {
	mutations := []func(*openmp.Options){
		nil, // flat: nested regions serialize
		func(o *openmp.Options) {
			o.ThreadsPerLevel = []int{3, 2}
			o.MaxActiveLevels = 2
		},
		func(o *openmp.Options) {
			o.ThreadsPerLevel = []int{3, 4}
			o.MaxActiveLevels = 2
			o.ThreadLimit = 4 // partial grants: some inner teams serialize
		},
	}
	for _, a := range NestedApps() {
		var want float64
		for i, mut := range mutations {
			rt := newTestRuntime(t, mut)
			got := a.Kernel(rt, 0.5)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s checksum under config %d = %v, want %v", a.Name, i, got, want)
			}
		}
	}
}

// TestNestedKernelsForkNestedRegions asserts the kernels genuinely nest:
// with a per-level width list configured, the runtime must report nested
// regions after a run.
func TestNestedKernelsForkNestedRegions(t *testing.T) {
	for _, a := range NestedApps() {
		rt := newTestRuntime(t, func(o *openmp.Options) {
			o.ThreadsPerLevel = []int{3, 2}
			o.MaxActiveLevels = 2
		})
		a.Kernel(rt, 0.5)
		st := rt.Stats()
		if st.NestedRegions == 0 {
			t.Errorf("%s ran no nested regions", a.Name)
		}
	}
}
