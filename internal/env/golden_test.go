package env_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// variableGolden is the sha256 TestVariableGolden computes. It was recorded
// by running this test, unchanged, at commit 8825f19 — the last commit whose
// Config also held the nesting axis (per-level OMP_NUM_THREADS lists,
// OMP_MAX_ACTIVE_LEVELS, OMP_THREAD_LIMIT) — so every rendering of the flat
// and extended spaces is held to the bytes it had beside that axis. Its
// predecessor, recorded at commit 9927307 over the nested space too, held the
// variable table to the hand-written per-variable switches it replaced.
const variableGolden = "875e7880b7d10f33bdba5fe2809be3c2ffcac8728d2f57e52f59d6a1220926aa"

// TestVariableGolden hashes every rendering of every configuration a sweep
// can plan: Key, Environ, and the Value and Feature of each variable (plus
// one unknown name), over the flat and extended spaces of the three
// machines, and each variable's swept domain.
func TestVariableGolden(t *testing.T) {
	names := append(env.Names(), "NO_SUCH_VARIABLE")
	h := sha256.New()
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for _, v := range names {
			fmt.Fprintf(h, "%s %s %q\n", arch, v, env.Values(m, v))
		}
		for _, space := range [][]env.Config{env.Space(m), core.ExtendedSpace(m)} {
			for _, c := range space {
				fmt.Fprintf(h, "%s\n%s\n", c.Key(), strings.Join(env.EnvironOf(c), " "))
				for _, v := range names {
					fmt.Fprintf(h, "%q %v\n", c.Value(v), c.Feature(v))
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != variableGolden {
		t.Errorf("variable renderings hash to %s, want %s", got, variableGolden)
	}
}

// TestAppendValueIsValue: AppendValue appends Value's bytes, for every
// variable (and an unknown name) of every configuration a sweep can plan,
// and allocates nothing into a buffer that has room.
func TestAppendValueIsValue(t *testing.T) {
	names := append(env.Names(), "NO_SUCH_VARIABLE")
	buf := make([]byte, 0, 64)
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for _, space := range [][]env.Config{env.Space(m), core.ExtendedSpace(m)} {
			for _, c := range space {
				for _, v := range names {
					if got := c.AppendValue(buf[:0], v); string(got) != c.Value(v) {
						t.Fatalf("%s %s: AppendValue %q, Value %q", arch, c, got, c.Value(v))
					}
				}
			}
			c := space[len(space)-1]
			if n := testing.AllocsPerRun(10, func() {
				for _, v := range names {
					buf = c.AppendValue(buf[:0], v)
				}
			}); n != 0 {
				t.Errorf("%s %s: AppendValue allocates %.0f times", arch, c, n)
			}
		}
	}
}
