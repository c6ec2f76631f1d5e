package openmp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PlaceSpec is one place: a set of execution units (core IDs) onto which
// threads may be bound. The study tooling constructs PlaceSpecs from its
// architecture models; hosts without topology information can use
// ParsePlaces with an explicit place list.
type PlaceSpec struct {
	Cores []int
}

// maxPlaceUnits bounds how many execution units one OMP_PLACES value may
// expand to. The largest modelled machine has 96 cores and the largest
// shared-memory nodes a few thousand hardware threads, so no real place list
// comes near it, while a value such as {0:100000000000} is rejected before
// anything is built for it.
const maxPlaceUnits = 1 << 16

// ParsePlaces parses an OMP_PLACES value. Supported forms:
//
//   - explicit place list: "{0,1},{2,3},{4,5}" or interval form "{0:4}",
//     meaning 4 consecutive units starting at 0
//   - abstract names "threads" and "cores", optionally with a count such as
//     "cores(8)": one place per unit (this runtime has no SMT notion, so the
//     two are equivalent)
//
// The topology-dependent abstract names (sockets, ll_caches, numa_domains)
// cannot be resolved without a machine model and yield an error here; the
// tuning study resolves them through its topology package instead.
func ParsePlaces(s string) ([]PlaceSpec, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return nil, nil
	}
	if !strings.HasPrefix(s, "{") {
		name, countStr, hasCount := strings.Cut(s, "(")
		count := 0
		if hasCount {
			digits, closed := strings.CutSuffix(countStr, ")")
			n, err := strconv.Atoi(digits)
			if !closed || err != nil || n < 1 || n > maxPlaceUnits {
				return nil, fmt.Errorf("openmp: invalid place count %q", countStr)
			}
			count = n
		}
		switch strings.TrimSpace(name) {
		case "threads", "cores":
			if count == 0 {
				count = DefaultOptions().NumThreads
			}
			places := make([]PlaceSpec, count)
			for i := range places {
				places[i] = PlaceSpec{Cores: []int{i}}
			}
			return places, nil
		case "sockets", "ll_caches", "numa_domains":
			return nil, fmt.Errorf("openmp: abstract place %q requires a machine topology", name)
		default:
			return nil, fmt.Errorf("openmp: unknown places value %q", s)
		}
	}
	var places []PlaceSpec
	units := 0
	for _, part := range splitPlaceList(s) {
		part = strings.TrimSpace(part)
		if !strings.HasPrefix(part, "{") || !strings.HasSuffix(part, "}") {
			return nil, fmt.Errorf("openmp: malformed place %q", part)
		}
		inner := part[1 : len(part)-1]
		var cores []int
		if strings.Contains(inner, ":") {
			startStr, lenStr, _ := strings.Cut(inner, ":")
			start, err1 := strconv.Atoi(strings.TrimSpace(startStr))
			n, err2 := strconv.Atoi(strings.TrimSpace(lenStr))
			// The interval's last unit, start+n-1, must fit in an int.
			if err1 != nil || err2 != nil || n < 1 || start < 0 || start > math.MaxInt-(n-1) {
				return nil, fmt.Errorf("openmp: malformed place interval %q", part)
			}
			if n > maxPlaceUnits-units {
				return nil, fmt.Errorf("openmp: places value %q expands to more than %d units", s, maxPlaceUnits)
			}
			units += n
			for i := 0; i < n; i++ {
				cores = append(cores, start+i)
			}
		} else {
			for _, c := range strings.Split(inner, ",") {
				id, err := strconv.Atoi(strings.TrimSpace(c))
				if err != nil || id < 0 {
					return nil, fmt.Errorf("openmp: malformed place member %q", c)
				}
				cores = append(cores, id)
			}
		}
		sort.Ints(cores)
		places = append(places, PlaceSpec{Cores: cores})
	}
	return places, nil
}

// splitPlaceList splits "{0,1},{2,3}" at top-level commas only.
func splitPlaceList(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '{':
			depth++
		case '}':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// AssignPlaces computes the thread→place assignment for a team of nthreads
// forked by a primary thread located on masterPlace, following the OpenMP
// binding policies:
//
//   - master: every thread lands on the primary's place
//   - close: consecutive threads fill consecutive places starting at the
//     primary's, ceil(T/P) per place
//   - spread (and true, which LLVM/OpenMP treats equivalently once places
//     exist): threads are distributed evenly across all places, forming
//     subpartitions
//   - false/unset: nil is returned — threads float and the OS may migrate
//     them
//
// The returned slice maps thread index to place index, or is nil when
// threads are unbound. The same routine drives both the functional runtime's
// bookkeeping and the performance model, so placement behaviour cannot
// diverge between them.
func AssignPlaces(nplaces int, policy BindPolicy, nthreads, masterPlace int) []int {
	if nplaces <= 0 || policy == BindNone || policy == BindDefault {
		return nil
	}
	asg := make([]int, nthreads)
	switch policy {
	case BindMaster:
		for i := range asg {
			asg[i] = masterPlace % nplaces
		}
	case BindClose:
		perPlace := (nthreads + nplaces - 1) / nplaces
		for i := range asg {
			asg[i] = (masterPlace + i/perPlace) % nplaces
		}
	case BindSpread, BindTrue:
		if nthreads <= nplaces {
			for i := range asg {
				asg[i] = (masterPlace + i*nplaces/nthreads) % nplaces
			}
		} else {
			perPlace := (nthreads + nplaces - 1) / nplaces
			for i := range asg {
				asg[i] = (masterPlace + i/perPlace) % nplaces
			}
		}
	}
	return asg
}
