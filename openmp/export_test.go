package openmp

import (
	"unsafe"

	"omptune/openmp/profile"
	"omptune/openmp/trace"
)

// The runtime's internals that tests inspect, exported to them alone.

// Placement returns a copy of the thread→place assignment, or nil when
// threads are unbound (OMP_PROC_BIND=false).
func (rt *Runtime) Placement() []int {
	if rt.placement == nil {
		return nil
	}
	out := make([]int, len(rt.placement))
	copy(out, rt.placement)
	return out
}

// StealOrder returns, per thread, the victim scan order task stealing uses:
// the other thread ids sorted by NUMA distance from the thread's bound
// place, nearest first (ring order within a distance class). It returns nil
// when the runtime has no placement or no Options.PlaceDistances model, in
// which case stealing uses a rotating uniform scan instead.
func (rt *Runtime) StealOrder() [][]int {
	if rt.hot == nil || rt.hot.stealOrder == nil {
		return nil
	}
	out := make([][]int, rt.hot.n)
	for i := range out {
		for _, v := range rt.hot.victims(i) {
			out[i] = append(out[i], int(v))
		}
	}
	return out
}

// Alignment reports the largest power-of-two alignment (up to 4096) of the
// address p. It returns 0 for a nil pointer.
func Alignment(p unsafe.Pointer) int {
	if p == nil {
		return 0
	}
	addr := uintptr(p)
	a := 1
	for a < 4096 && addr&uintptr(a) == 0 {
		a <<= 1
	}
	return a
}

// SensorDisagreements lists the profile.Sums fields in which a trace
// summary and a profile, each added up per nesting level, differ.
func SensorDisagreements(sum *trace.Summary, rep *profile.Report) []string {
	return sensorDisagreements(sum, rep)
}
