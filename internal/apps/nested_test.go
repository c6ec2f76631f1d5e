package apps

// Tests for the runtime-only kernels: kept out of the study, checksum
// determinism across nesting configurations, and that the kernels really
// execute nested regions (visible in the runtime's stats).

import (
	"strings"
	"testing"

	"omptune/openmp"
)

// TestRuntimeOnlyKernels: LUNest and TreeNest run on the runtime alone.
// KernelByName finds them; ByName, which every model path resolves through,
// refuses each by name; All, and so every study campaign, leaves them out.
func TestRuntimeOnlyKernels(t *testing.T) {
	if n := len(All()); n != 15 {
		t.Fatalf("All() has %d apps; the study set is pinned at 15", n)
	}
	for _, name := range []string{"LUNest", "TreeNest"} {
		if a, err := KernelByName(name); err != nil || a.Name != name || a.Kernel == nil {
			t.Fatalf("KernelByName(%s) = %v, %v", name, a, err)
		}
		if _, err := ByName(name); err == nil || !strings.Contains(err.Error(), name+" has no model profile") {
			t.Errorf("ByName(%s) error %v, want one naming the app", name, err)
		}
	}
	if a, err := KernelByName("Nqueens"); err != nil || a.Profile == nil {
		t.Errorf("KernelByName(Nqueens) = %v, %v; want the study application", a, err)
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
	for _, a := range runtimeOnly {
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
	for _, a := range runtimeOnly {
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
