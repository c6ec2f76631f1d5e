package openmp

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestParsePlacesExplicitList(t *testing.T) {
	got, err := ParsePlaces("{0,1},{2,3},{4,5}")
	if err != nil {
		t.Fatalf("ParsePlaces: %v", err)
	}
	want := []PlaceSpec{{Cores: []int{0, 1}}, {Cores: []int{2, 3}}, {Cores: []int{4, 5}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParsePlacesInterval(t *testing.T) {
	got, err := ParsePlaces("{0:4},{4:4}")
	if err != nil {
		t.Fatalf("ParsePlaces: %v", err)
	}
	want := []PlaceSpec{{Cores: []int{0, 1, 2, 3}}, {Cores: []int{4, 5, 6, 7}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestParsePlacesAbstract(t *testing.T) {
	got, err := ParsePlaces("cores(3)")
	if err != nil {
		t.Fatalf("ParsePlaces: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("cores(3) yielded %d places, want 3", len(got))
	}
	for i, p := range got {
		if len(p.Cores) != 1 || p.Cores[i%1] != i {
			t.Errorf("place %d = %v, want {[%d]}", i, p, i)
		}
	}
	if _, err := ParsePlaces("sockets"); err == nil {
		t.Error("sockets without topology should error")
	}
	if _, err := ParsePlaces(""); err != nil {
		t.Errorf("empty places: %v", err)
	}
}

func TestParsePlacesErrors(t *testing.T) {
	bad := []string{"{0,1", "cores(0)", "cores(x)", "moon", "{a,b}", "{0:-1}", "{-1,2}"}
	for _, s := range bad {
		if _, err := ParsePlaces(s); err == nil {
			t.Errorf("ParsePlaces(%q): want error", s)
		}
	}
}

// TestParsePlacesBounds rejects values that would wrap a core id, leave a
// count unclosed, or expand to more than maxPlaceUnits units, and accepts the
// largest values on the right side of each bound.
func TestParsePlacesBounds(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	for _, tc := range []struct {
		in    string
		units int // total units on success; -1 = must fail
	}{
		{"{" + maxInt + ":2}", -1},
		{"{" + maxInt + ":1}", 1},
		{"{" + strconv.Itoa(math.MaxInt-1) + ":2}", 2},
		{"threads(3", -1},
		{"cores(3", -1},
		{"cores(3)", 3},
		{"{0:100000000000}", -1},
		{"cores(100000000000)", -1},
		{"threads(" + strconv.Itoa(maxPlaceUnits+1) + ")", -1},
		{"threads(" + strconv.Itoa(maxPlaceUnits) + ")", maxPlaceUnits},
		{"{0:" + strconv.Itoa(maxPlaceUnits) + "}", maxPlaceUnits},
		{"{0:" + strconv.Itoa(maxPlaceUnits) + "},{0:1}", -1},
	} {
		places, err := ParsePlaces(tc.in)
		if tc.units < 0 {
			if err == nil {
				t.Errorf("ParsePlaces(%.40q): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlaces(%.40q): %v", tc.in, err)
			continue
		}
		units := 0
		for _, p := range places {
			units += len(p.Cores)
		}
		if units != tc.units {
			t.Errorf("ParsePlaces(%.40q) has %d units, want %d", tc.in, units, tc.units)
		}
	}
}

func TestAssignPlacesMaster(t *testing.T) {
	asg := AssignPlaces(4, BindMaster, 6, 2)
	for i, p := range asg {
		if p != 2 {
			t.Errorf("master: thread %d on place %d, want 2", i, p)
		}
	}
}

func TestAssignPlacesClose(t *testing.T) {
	// 4 threads over 4 places from master 0: one per place, consecutive.
	if got := AssignPlaces(4, BindClose, 4, 0); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("close 4/4: %v", got)
	}
	// 8 threads over 4 places: pairs packed consecutively.
	if got := AssignPlaces(4, BindClose, 8, 0); !reflect.DeepEqual(got, []int{0, 0, 1, 1, 2, 2, 3, 3}) {
		t.Errorf("close 8/4: %v", got)
	}
	// Master offset rotates the start.
	if got := AssignPlaces(4, BindClose, 4, 2); !reflect.DeepEqual(got, []int{2, 3, 0, 1}) {
		t.Errorf("close 4/4 from 2: %v", got)
	}
}

func TestAssignPlacesSpread(t *testing.T) {
	// 2 threads over 4 places: maximally separated.
	if got := AssignPlaces(4, BindSpread, 2, 0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("spread 2/4: %v", got)
	}
	// 4 threads over 8 places.
	if got := AssignPlaces(8, BindSpread, 4, 0); !reflect.DeepEqual(got, []int{0, 2, 4, 6}) {
		t.Errorf("spread 4/8: %v", got)
	}
	// Oversubscribed: groups of consecutive threads per place.
	if got := AssignPlaces(2, BindSpread, 4, 0); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Errorf("spread 4/2: %v", got)
	}
	// BindTrue behaves like spread.
	if got := AssignPlaces(4, BindTrue, 2, 0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("true 2/4: %v", got)
	}
}

func TestAssignPlacesUnbound(t *testing.T) {
	if got := AssignPlaces(4, BindNone, 4, 0); got != nil {
		t.Errorf("none: %v, want nil", got)
	}
	if got := AssignPlaces(4, BindDefault, 4, 0); got != nil {
		t.Errorf("default: %v, want nil", got)
	}
	if got := AssignPlaces(0, BindSpread, 4, 0); got != nil {
		t.Errorf("no places: %v, want nil", got)
	}
}

func TestAssignPlacesPropertyInRangeAndBalanced(t *testing.T) {
	policies := []BindPolicy{BindMaster, BindClose, BindSpread, BindTrue}
	f := func(np, nt, master, pi uint8) bool {
		nplaces := int(np)%16 + 1
		nthreads := int(nt)%64 + 1
		policy := policies[int(pi)%len(policies)]
		asg := AssignPlaces(nplaces, policy, nthreads, int(master))
		if len(asg) != nthreads {
			return false
		}
		counts := make([]int, nplaces)
		for _, p := range asg {
			if p < 0 || p >= nplaces {
				return false
			}
			counts[p]++
		}
		if policy == BindMaster {
			return counts[int(master)%nplaces] == nthreads
		}
		// close/spread/true: load per place differs by at most the pack size.
		maxC, minC := 0, nthreads+1
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
			if c < minC {
				minC = c
			}
		}
		perPlace := (nthreads + nplaces - 1) / nplaces
		return maxC-minC <= perPlace
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
