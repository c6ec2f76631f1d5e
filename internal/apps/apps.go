// Package apps models the fifteen benchmark applications of the study. Each
// application exists in two coupled forms:
//
//   - a functional kernel written against the openmp runtime, which computes
//     a verifiable numeric result at a test-friendly problem size, and
//   - a sim.Profile that characterizes the application for the performance
//     model (parallelism style, work, memory behaviour, task granularity),
//     calibrated against the observations in the paper's Section V.
//
// A kernel call is the timed phase alone, as NPB times its iterations and
// XSBench/RSBench their lookups: the inputs a kernel reads (sequences,
// matrices, lookup grids) are a pure function of the scale, built once per
// scale on first use and shared read-only by every later call, whatever
// its runtime or goroutine. What a call writes is in a workspace it takes
// from a per-scale free list and puts back, so a warm call allocates
// nothing.
//
// The suites mirror §IV-A: NAS Parallel Benchmarks (BT, CG, EP, FT, LU, MG),
// the BSC OpenMP Tasking Suite (Alignment, Health, NQueens, Sort, Strassen)
// and the proxy applications (RSBench, XSBench, SU3Bench, LULESH).
package apps

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
)

// Suite names an application's benchmark suite.
type Suite string

// The three suites of §IV-A.
const (
	NPB   Suite = "NPB"
	BOTS  Suite = "BOTS"
	Proxy Suite = "proxy"
)

// App couples a functional kernel with its performance-model profile.
type App struct {
	Name    string
	Suite   Suite
	Profile *sim.Profile // nil for a runtime-only kernel (see runtimeOnly)
	// VariesInput selects the sweep style of §IV-B: input-size variation at
	// a fixed thread count (NPB, BOTS) vs. thread-count variation at the
	// default input (proxies).
	VariesInput bool
	// Kernel runs the functional implementation on rt at the given scale
	// (1.0 = the self-test size) and returns a checksum. Inputs and
	// workspaces are kept per scale: a call times the computation, and only
	// the first call at a scale (or past the free workspaces) also builds
	// what it reads and writes.
	Kernel func(rt *openmp.Runtime, scale float64) float64

	refs memo[float64] // Reference's checksums by scale
}

// Reference returns the checksum of the kernel at scale on one thread under
// openmp.DefaultOptions: the value every run of the kernel at that scale
// reproduces, whatever the configuration, up to the rounding of reduction
// order. It runs the kernel once per scale.
func (a *App) Reference(scale float64) float64 {
	return a.refs.get(scale, func(scale float64) float64 {
		o := openmp.DefaultOptions()
		o.NumThreads = 1
		rt := openmp.MustNew(o) // the default options are valid
		defer rt.Close()
		return a.Kernel(rt, scale)
	})
}

// Settings returns the experimental settings for the app on machine m,
// following §IV-B.
func (a *App) Settings(m *topology.Machine) []sim.Setting {
	if a.VariesInput {
		return sim.InputSettings(m)
	}
	return sim.ThreadSettings(m)
}

var registry []*App

func register(a *App) *App {
	registry = append(registry, a)
	return a
}

// All returns every application in suite order (NPB, BOTS, proxies) as used
// throughout the paper's tables.
func All() []*App {
	out := make([]*App, len(registry))
	copy(out, registry)
	rank := map[Suite]int{NPB: 0, BOTS: 1, Proxy: 2}
	sort.SliceStable(out, func(i, j int) bool {
		if rank[out[i].Suite] != rank[out[j].Suite] {
			return rank[out[i].Suite] < rank[out[j].Suite]
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByName returns the named study application. Every path that meets the
// model resolves its applications through ByName, so it refuses a
// runtime-only kernel, which has no model profile, by name. The error of an
// unknown name lists the study's applications.
func ByName(name string) (*App, error) {
	a, err := KernelByName(name)
	switch {
	case err != nil:
		return nil, unknownApp(name, All())
	case a.Profile == nil:
		return nil, fmt.Errorf("apps: %s has no model profile: it runs only on the openmp runtime (omprun -app %s)", name, name)
	}
	return a, nil
}

// KernelByName returns the named application for a run of its kernel on the
// openmp runtime: a study application or a runtime-only kernel. The error of
// an unknown name lists both.
func KernelByName(name string) (*App, error) {
	for _, reg := range [][]*App{registry, runtimeOnly} {
		for _, a := range reg {
			if a.Name == name {
				return a, nil
			}
		}
	}
	return nil, unknownApp(name, append(All(), runtimeOnly...))
}

func unknownApp(name string, valid []*App) error {
	names := make([]string, len(valid))
	for i, a := range valid {
		names[i] = a.Name
	}
	return fmt.Errorf("apps: unknown application %q (valid: %s)", name, strings.Join(names, ", "))
}

// Setting resolves the app's setting labelled label on m, "" being the
// middle (default-size) one. With m nil the label may name a setting on any
// of the study's machines, the first in presentation order that has it. The
// error of an unknown label lists the labels there are.
func (a *App) Setting(m *topology.Machine, label string) (sim.Setting, error) {
	machines, where := topology.All(), ""
	if m != nil {
		machines, where = []*topology.Machine{m}, " on "+string(m.Arch)
	}
	var labels []string
	for _, m := range machines {
		sets := a.Settings(m)
		for i, s := range sets {
			if s.Label == label || label == "" && i == len(sets)/2 {
				return s, nil
			}
			if !slices.Contains(labels, s.Label) {
				labels = append(labels, s.Label)
			}
		}
	}
	return sim.Setting{}, fmt.Errorf("apps: %s has no setting %q%s (valid: %s)", a.Name, label, where, strings.Join(labels, ", "))
}

// excluded lists the app×arch combinations that were not executed in the
// study: Sort and Strassen were skipped on both x86 machines and EP
// additionally on Skylake due to cluster traffic (§V, Fig. 2 note).
var excluded = map[topology.Arch]map[string]bool{
	topology.Skylake: {"Sort": true, "Strassen": true, "EP": true},
	topology.Milan:   {"Sort": true, "Strassen": true},
}

// RunsOn reports whether the app was part of the study's dataset on arch.
func (a *App) RunsOn(arch topology.Arch) bool {
	return !excluded[arch][a.Name]
}

// OnArch returns the applications measured on arch: 15 on A64FX, 13 on
// Milan and 12 on Skylake, matching Table II.
func OnArch(arch topology.Arch) []*App {
	var out []*App
	for _, a := range All() {
		if a.RunsOn(arch) {
			out = append(out, a)
		}
	}
	return out
}
