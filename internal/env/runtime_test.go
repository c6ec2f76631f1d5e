package env

import (
	"fmt"
	"testing"

	"omptune/internal/topology"
	"omptune/openmp"
)

// TestRuntimeOptionsRoundTrip checks the Config → openmp.Options bridge
// against the string-environment path: every scalar field must agree with
// openmp.OptionsFromEnviron(environOf(c)), and the resolved places must match
// the machine partition of the configured place kind. This closes the gap
// where swept Configs could never reach the real runtime.
func TestRuntimeOptionsRoundTrip(t *testing.T) {
	for _, m := range topology.All() {
		for _, c := range Space(m) {
			o := c.RuntimeOptions(m)

			// The environment path cannot resolve abstract topology places
			// (sockets, ll_caches, numa_domains need a machine model), so the
			// scalar fields are compared on an environ without OMP_PLACES.
			var environ []string
			for _, kv := range environOf(c) {
				if len(kv) >= 11 && kv[:11] == "OMP_PLACES=" {
					continue
				}
				environ = append(environ, kv)
			}
			environ = append(environ, fmt.Sprintf("OMP_NUM_THREADS=%d", m.Cores))
			ref, err := openmp.OptionsFromEnviron(environ)
			if err != nil {
				t.Fatalf("%s %s: OptionsFromEnviron: %v", m.Arch, c, err)
			}
			if o.NumThreads != ref.NumThreads || o.Schedule != ref.Schedule ||
				o.Library != ref.Library || o.BlocktimeMS != ref.BlocktimeMS ||
				o.Reduction != ref.Reduction || o.AlignAlloc != ref.AlignAlloc {
				t.Fatalf("%s %s: RuntimeOptions scalar fields %+v disagree with environ path %+v", m.Arch, c, o, ref)
			}
			if c.Places == topology.PlaceUnset {
				if o.Bind != ref.Bind {
					t.Fatalf("%s %s: bind %v vs environ %v", m.Arch, c, o.Bind, ref.Bind)
				}
				if o.Places != nil {
					t.Fatalf("%s %s: unset places must stay nil, got %d", m.Arch, c, len(o.Places))
				}
				continue
			}

			// Places resolve against the machine model.
			want, err := m.Partition(c.Places)
			if err != nil {
				t.Fatalf("%s: partition %s: %v", m.Arch, c.Places, err)
			}
			if len(o.Places) != len(want) {
				t.Fatalf("%s %s: %d places, want %d", m.Arch, c, len(o.Places), len(want))
			}
			for i, p := range o.Places {
				if len(p.Cores) != len(want[i].Cores) {
					t.Fatalf("%s %s: place %d has %d cores, want %d", m.Arch, c, i, len(p.Cores), len(want[i].Cores))
				}
				for j, core := range p.Cores {
					if core != want[i].Cores[j] {
						t.Fatalf("%s %s: place %d core %d is %d, want %d", m.Arch, c, i, j, core, want[i].Cores[j])
					}
				}
			}
		}
	}
}

// TestRuntimeOptionsBindMatchesEnvironPath checks the bind translation on
// configurations where the environment path can express the same intent.
func TestRuntimeOptionsBindMatchesEnvironPath(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	for _, b := range ProcBinds() {
		c := Default(m)
		c.ProcBind = b
		o := c.RuntimeOptions(m)
		ref, err := openmp.ParseBind(b.String())
		if err != nil {
			t.Fatalf("ParseBind(%q): %v", b, err)
		}
		if o.Bind != ref {
			t.Fatalf("bind %q maps to %v, environ path gives %v", b, o.Bind, ref)
		}
	}
}

// TestRuntimeOptionsConstructsRuntime ensures every swept configuration
// yields Options a real runtime accepts — the property the measured sweep
// backend depends on.
func TestRuntimeOptionsConstructsRuntime(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	for i, c := range Space(m) {
		if i%97 != 0 { // sample the space; New starts real goroutines
			continue
		}
		o := c.RuntimeOptions(m)
		o.NumThreads = 2
		rt, err := openmp.New(o)
		if err != nil {
			t.Fatalf("%s: New: %v", c, err)
		}
		rt.Close()
	}
}

// TestNestedRuntimeOptions: no swept configuration configures nested teams.
// The bridge gives every one the machine-wide width and leaves the per-level
// list and both nesting bounds at the runtime's defaults; a run sets them
// through openmp.OptionsFromEnviron instead (omprun -set).
func TestNestedRuntimeOptions(t *testing.T) {
	for _, m := range topology.All() {
		for _, c := range Space(m) {
			o := c.RuntimeOptions(m)
			if o.NumThreads != m.Cores || o.ThreadsPerLevel != nil || o.MaxActiveLevels != 0 || o.ThreadLimit != 0 {
				t.Fatalf("%s %s: NumThreads %d, ThreadsPerLevel %v, MaxActiveLevels %d, ThreadLimit %d; want %d, nil, 0, 0",
					m.Arch, c, o.NumThreads, o.ThreadsPerLevel, o.MaxActiveLevels, o.ThreadLimit, m.Cores)
			}
		}
	}
}
