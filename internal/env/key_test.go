package env_test

import (
	"fmt"
	"strconv"
	"testing"

	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// sprintfKey is Config.Key as it was written before the append builder: the
// reference the builder must reproduce byte for byte, since keys are dataset
// join keys, sampling-hash input and noise-seed input.
func sprintfKey(c env.Config) string {
	bt := "infinite"
	if c.BlocktimeMS != openmp.BlocktimeInfinite {
		bt = strconv.Itoa(c.BlocktimeMS)
	}
	k := fmt.Sprintf("places=%s|bind=%s|sched=%s|lib=%s|blocktime=%s|red=%s|align=%d",
		c.Places, c.ProcBind, c.Schedule, c.Library, bt, c.ForceReduction, c.AlignAlloc)
	if c.NumThreadsList != "" {
		k += "|nthreads=" + c.NumThreadsList
	}
	if c.MaxActiveLevels != 0 {
		k += "|maxlevels=" + strconv.Itoa(c.MaxActiveLevels)
	}
	if c.ThreadLimit != 0 {
		k += "|threadlimit=" + strconv.Itoa(c.ThreadLimit)
	}
	return k
}

// TestKeyMatchesSprintfReference walks every configuration any sweep can
// plan — the flat, extended and nested spaces of all three machines.
func TestKeyMatchesSprintfReference(t *testing.T) {
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for name, space := range map[string][]env.Config{
			"Space": env.Space(m), "ExtendedSpace": core.ExtendedSpace(m), "NestedSpace": core.NestedSpace(m),
		} {
			for _, c := range space {
				if got, want := c.Key(), sprintfKey(c); got != want {
					t.Fatalf("%s %s: Key() = %q, reference %q", arch, name, got, want)
				}
			}
		}
	}
}

// TestKeyOneAlloc pins the point of the builder: the returned string is the
// only allocation, also for a nested key longer than a flat one.
func TestKeyOneAlloc(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	nested := core.NestedSpace(m)
	for _, c := range []env.Config{env.Default(m), nested[len(nested)-1]} {
		if n := testing.AllocsPerRun(100, func() { _ = c.Key() }); n > 1 {
			t.Errorf("Key() of %s: %v allocs, want <= 1", c, n)
		}
	}
}

// FuzzKeyMatchesSprintfReference drives the fields no enumerated space
// covers freely: arbitrary nesting values (negative, huge, odd lists) and
// out-of-domain integers must render as fmt rendered them.
func FuzzKeyMatchesSprintfReference(f *testing.F) {
	f.Add("", 0, 0, 200, 64)
	f.Add("48,2", 2, 96, -1, 256)
	f.Add("4,2,2", 3, -7, 0, -64)
	f.Add("|nthreads=|", 1<<40, -1<<40, -2, 0)
	f.Fuzz(func(t *testing.T, list string, maxLevels, threadLimit, blocktime, align int) {
		c := env.Default(topology.MustGet(topology.Skylake))
		c.NumThreadsList, c.MaxActiveLevels, c.ThreadLimit = list, maxLevels, threadLimit
		c.BlocktimeMS, c.AlignAlloc = blocktime, align
		if got, want := c.Key(), sprintfKey(c); got != want {
			t.Fatalf("Key() = %q, reference %q", got, want)
		}
	})
}
