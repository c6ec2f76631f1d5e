package env

// Tests for the nesting axis: OMP_NUM_THREADS value lists,
// OMP_MAX_ACTIVE_LEVELS and OMP_THREAD_LIMIT — parsing, round-trips,
// back-compat of flat keys, and the RuntimeOptions bridge.

import (
	"fmt"
	"strings"
	"testing"

	"omptune/internal/topology"
	"omptune/openmp"
)

func TestNestedParseRoundTrip(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	c.NumThreadsList = "4,2"
	c.MaxActiveLevels = 2
	c.ThreadLimit = 8
	got, err := Parse(m, c.Environ())
	if err != nil {
		t.Fatalf("Parse(Environ): %v", err)
	}
	if got != c {
		t.Errorf("round trip: got %+v, want %+v", got, c)
	}
	// The list string must be normalized to canonical comma form.
	got, err = Parse(m, []string{"OMP_NUM_THREADS= 4 , 2 "})
	if err != nil {
		t.Fatalf("Parse spaced list: %v", err)
	}
	if got.NumThreadsList != "4,2" {
		t.Errorf("normalized list %q, want \"4,2\"", got.NumThreadsList)
	}
}

func TestNestedParseErrors(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	for _, environ := range [][]string{
		{"OMP_NUM_THREADS=4,,2"},
		{"OMP_NUM_THREADS=many"},
		{"OMP_NUM_THREADS=0"},
		{"OMP_MAX_ACTIVE_LEVELS=0"},
		{"OMP_MAX_ACTIVE_LEVELS=deep"},
		{"OMP_THREAD_LIMIT=-1"},
	} {
		if _, err := Parse(m, environ); err == nil {
			t.Errorf("Parse(%v): want error, got nil", environ)
		}
	}
}

// TestFlatConfigBackCompat pins the representation of flat (nesting-unset)
// configurations: Key and Environ must be byte-identical to the
// pre-nesting format so existing datasets and checkpoints stay joinable.
func TestFlatConfigBackCompat(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	if k := c.Key(); strings.Contains(k, "nthreads") || strings.Contains(k, "maxlevels") ||
		strings.Contains(k, "threadlimit") {
		t.Errorf("flat Key %q leaks nesting fields", k)
	}
	for _, kv := range c.Environ() {
		if strings.HasPrefix(kv, "OMP_NUM_THREADS") ||
			strings.HasPrefix(kv, "OMP_MAX_ACTIVE_LEVELS") ||
			strings.HasPrefix(kv, "OMP_THREAD_LIMIT") {
			t.Errorf("flat Environ emits %q", kv)
		}
	}
	if c != Default(m) {
		t.Error("flat default no longer equals Default")
	}
	c.NumThreadsList = "4,2"
	if c == Default(m) {
		t.Error("nested config reported as default")
	}
	if !strings.Contains(c.Key(), "|nthreads=4,2") {
		t.Errorf("nested Key %q missing nthreads field", c.Key())
	}
}

func TestNestedSetAndValue(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	for _, step := range []struct {
		v   VarName
		val string
	}{
		{VarNumThreads, "8,2"},
		{VarMaxActiveLevels, "2"},
		{VarThreadLimit, "16"},
	} {
		var err error
		c, err = c.Set(step.v, step.val)
		if err != nil {
			t.Fatalf("Set(%s, %s): %v", step.v, step.val, err)
		}
		if got := c.Value(step.v); got != step.val {
			t.Errorf("Value(%s) = %q, want %q", step.v, got, step.val)
		}
	}
	if _, err := c.Set(VarNumThreads, "bogus"); err == nil {
		t.Error("Set(VarNumThreads, bogus): want error")
	}
	// Unsetting returns to the flat default encoding.
	c, err := c.Set(VarNumThreads, "")
	if err != nil {
		t.Fatalf("Set unset: %v", err)
	}
	if c.NumThreadsList != "" || c.Feature(VarNumThreads) != 0 {
		t.Errorf("unset list: %q feature %v, want empty and 0", c.NumThreadsList, c.Feature(VarNumThreads))
	}
}

func TestNestedDomainsAndFeatures(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	lists := NumThreadsLists(m)
	if len(lists) != 3 || lists[0] != "" {
		t.Fatalf("NumThreadsLists = %v, want unset first of 3", lists)
	}
	for _, s := range lists[1:] {
		if _, err := openmp.ParseThreadList(s); err != nil {
			t.Errorf("swept list %q does not parse: %v", s, err)
		}
	}
	if got := Values(m, VarNumThreads); fmt.Sprint(got) != fmt.Sprint(lists) {
		t.Errorf("Values(VarNumThreads) = %v, want %v", got, lists)
	}
	c := Default(m)
	c.NumThreadsList = "4,2,2"
	if f := c.Feature(VarNumThreads); f != 3 {
		t.Errorf("Feature(VarNumThreads) = %v, want 3 (list depth)", f)
	}
	if names := NestedNames(); len(names) != 3 || names[0] != VarNumThreads {
		t.Errorf("NestedNames = %v", names)
	}
	if len(Names()) != 7 {
		t.Errorf("Names() grew to %d entries; the canonical order is pinned at 7", len(Names()))
	}
}

// TestNestedRuntimeOptions checks the Config→openmp.Options bridge carries
// the nesting axis: list head as the outer width, full list per level, and
// the two bounds.
func TestNestedRuntimeOptions(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	c := Default(m)
	c.NumThreadsList = "4,2"
	c.MaxActiveLevels = 2
	c.ThreadLimit = 8
	o := c.RuntimeOptions(m)
	if o.NumThreads != 4 {
		t.Errorf("NumThreads %d, want 4 (list head)", o.NumThreads)
	}
	if fmt.Sprint(o.ThreadsPerLevel) != "[4 2]" {
		t.Errorf("ThreadsPerLevel %v, want [4 2]", o.ThreadsPerLevel)
	}
	if o.MaxActiveLevels != 2 || o.ThreadLimit != 8 {
		t.Errorf("MaxActiveLevels=%d ThreadLimit=%d, want 2 and 8", o.MaxActiveLevels, o.ThreadLimit)
	}
	// Flat configs must keep the machine-wide default width.
	o = Default(m).RuntimeOptions(m)
	if o.NumThreads != m.Cores || o.ThreadsPerLevel != nil {
		t.Errorf("flat options NumThreads=%d ThreadsPerLevel=%v, want %d and nil",
			o.NumThreads, o.ThreadsPerLevel, m.Cores)
	}
}
