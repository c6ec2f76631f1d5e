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
	return fmt.Sprintf("places=%s|bind=%s|sched=%s|lib=%s|blocktime=%s|red=%s|align=%d",
		c.Places, c.ProcBind, c.Schedule, c.Library, bt, c.ForceReduction, c.AlignAlloc)
}

// TestKeyMatchesSprintfReference walks every configuration any sweep can
// plan — the flat and extended spaces of all three machines.
func TestKeyMatchesSprintfReference(t *testing.T) {
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for name, space := range map[string][]env.Config{
			"Space": env.Space(m), "ExtendedSpace": core.ExtendedSpace(m),
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
// only allocation, also for the longest key a sweep plans.
func TestKeyOneAlloc(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	for _, c := range []env.Config{env.Default(m), longestKey(core.ExtendedSpace(m))} {
		if n := testing.AllocsPerRun(100, func() { _ = c.Key() }); n > 1 {
			t.Errorf("Key() of %s: %v allocs, want <= 1", c, n)
		}
	}
}

// longestKey returns the configuration of space with the longest key.
func longestKey(space []env.Config) env.Config {
	long := space[0]
	for _, c := range space {
		if len(c.Key()) > len(long.Key()) {
			long = c
		}
	}
	return long
}

// FuzzKeyMatchesSprintfReference drives the integer fields no enumerated
// space covers freely: out-of-domain values (negative, huge) must render as
// fmt rendered them.
func FuzzKeyMatchesSprintfReference(f *testing.F) {
	f.Add(200, 64)
	f.Add(-1, 256)
	f.Add(0, -64)
	f.Add(-2, 1<<40)
	f.Add(-1<<40, 0)
	f.Fuzz(func(t *testing.T, blocktime, align int) {
		c := env.Default(topology.MustGet(topology.Skylake))
		c.BlocktimeMS, c.AlignAlloc = blocktime, align
		if got, want := c.Key(), sprintfKey(c); got != want {
			t.Fatalf("Key() = %q, reference %q", got, want)
		}
	})
}
