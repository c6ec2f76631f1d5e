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
// by running this test, unchanged, at commit 9927307 — the last commit where
// Validate, Environ, Parse, Feature, Set, Values and Value were seven
// hand-written per-variable switches — so the variable table is held to the
// bytes those switches produced.
const variableGolden = "e4d9d150210a397636bd0f43de7b6c097bd8b6476de9085de0d5ee0097aec3ee"

// TestVariableGolden hashes every rendering of every configuration a sweep
// can plan: Key, Environ, and the Value and Feature of each flat and nested
// variable (plus one unknown name), over the flat, extended and nested
// spaces of the three machines, and each variable's swept domain.
func TestVariableGolden(t *testing.T) {
	names := append(append(env.Names(), env.NestedNames()...), "NO_SUCH_VARIABLE")
	h := sha256.New()
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for _, v := range names {
			fmt.Fprintf(h, "%s %s %q\n", arch, v, env.Values(m, v))
		}
		for _, space := range [][]env.Config{env.Space(m), core.ExtendedSpace(m), core.NestedSpace(m)} {
			for _, c := range space {
				fmt.Fprintf(h, "%s\n%s\n", c.Key(), strings.Join(c.Environ(), " "))
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
	names := append(append(env.Names(), env.NestedNames()...), "NO_SUCH_VARIABLE")
	buf := make([]byte, 0, 64)
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		for _, space := range [][]env.Config{env.Space(m), core.ExtendedSpace(m), core.NestedSpace(m)} {
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
