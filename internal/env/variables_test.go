package env

// Tests that hold the variables table to being the single definition of a
// variable: Key and lookup (the per-variable lists outside it) cover every
// row, both entry points apply one rule per variable, and whatever Parse
// accepts means the same to the runtime's own environment path.

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"omptune/internal/topology"
	"omptune/openmp"
)

// TestLookupIndexesTable fails for a row lookup does not find by its name,
// for a name lookup finds that no row holds, and for a row that lacks an
// accessor every variable needs (feature is optional, and a row spells its
// values through get, count or both).
func TestLookupIndexesTable(t *testing.T) {
	for i := range variables {
		row := &variables[i]
		if lookup(row.name) != row {
			t.Errorf("lookup(%s) is not row %d", row.name, i)
		}
		if row.domain == nil || (row.get == nil && row.count == nil) || row.set == nil ||
			row.setIndex == nil || row.index == nil || row.valid == nil {
			t.Errorf("%s: row lacks an accessor", row.name)
		}
	}
	for _, v := range []VarName{"", "OMP_NUM_THREADS", "omp_places", "OMP_PLACES "} {
		if row := lookup(v); row != nil {
			t.Errorf("lookup(%q) = row %s, want none", v, row.name)
		}
	}
}

// TestIndexIsTheStringPath holds SetIndex and Index to the string path on
// every machine, variable and domain index: SetIndex(m, v, k) is
// Set(v, Values(m, v)[k]) and Index(m, v) == k exactly when
// Value(v) == Values(m, v)[k]. The starts include values outside the swept
// domain that Validate accepts and values it rejects.
func TestIndexIsTheStringPath(t *testing.T) {
	for _, m := range topology.All() {
		def := Default(m)
		starts := []Config{def}
		for _, f := range []func(*Config){
			// Valid, outside the sweep.
			func(c *Config) { c.Places = topology.PlaceThreads },
			func(c *Config) { c.Places = topology.PlaceNUMA },
			func(c *Config) { c.Library = openmp.LibSerial },
			func(c *Config) { c.BlocktimeMS = 1000 },
			// Rejected by Validate.
			func(c *Config) { c.Places = topology.PlaceKind(99) },
			func(c *Config) { c.ProcBind = openmp.BindPolicy(42) },
			func(c *Config) { c.Schedule = openmp.ScheduleKind(-3) },
			func(c *Config) { c.Library = openmp.LibraryMode(7) },
			func(c *Config) { c.BlocktimeMS = -5 },
			func(c *Config) { c.ForceReduction = openmp.ReductionMethod(9) },
			func(c *Config) { c.AlignAlloc = 96 },
			func(c *Config) { c.AlignAlloc, c.Schedule = 4096, openmp.ScheduleAuto },
		} {
			c := def
			f(&c)
			starts = append(starts, c)
		}
		for _, c := range starts {
			for _, row := range variables {
				dom := Values(m, row.name)
				matches := 0
				for k, val := range dom {
					want, err := c.Set(row.name, val)
					if err != nil {
						t.Fatalf("%s %s: Set(%q): %v", m.Arch, row.name, val, err)
					}
					if got := c.SetIndex(m, row.name, k); got != want {
						t.Errorf("%s %s from %s: SetIndex(%d) = %s, want %s", m.Arch, row.name, c, k, got, want)
					}
					if (c.Index(m, row.name) == k) != (c.Value(row.name) == val) {
						t.Errorf("%s %s from %s: Index = %d, Value = %q, domain[%d] = %q",
							m.Arch, row.name, c, c.Index(m, row.name), c.Value(row.name), k, val)
					}
					if c.Value(row.name) == val {
						matches++
					}
				}
				if matches == 0 && c.Index(m, row.name) != -1 {
					t.Errorf("%s %s from %s: Index = %d for a value outside the domain", m.Arch, row.name, c, c.Index(m, row.name))
				}
			}
		}
	}
	m := topology.All()[0]
	if c := Default(m); c.Index(m, "OMP_NUM_THREADS") != -1 || c.SetIndex(m, "OMP_NUM_THREADS", 0) != c {
		t.Error("an unknown variable has an index or is set")
	}
}

// TestKeyCoversTable fails for a table row Key has no tag for: two distinct
// values of the row's swept domain must give two keys.
func TestKeyCoversTable(t *testing.T) {
	for _, m := range topology.All() {
		for _, row := range variables {
			dom := Values(m, row.name)
			if len(dom) < 2 || dom[0] == dom[1] {
				t.Fatalf("%s %s: domain %q lacks two distinct values", m.Arch, row.name, dom)
			}
			a, errA := Default(m).Set(row.name, dom[0])
			b, errB := Default(m).Set(row.name, dom[1])
			if errA != nil || errB != nil {
				t.Fatalf("%s %s: Set: %v, %v", m.Arch, row.name, errA, errB)
			}
			if a.Key() == b.Key() {
				t.Errorf("%s %s: values %q and %q share the key %s", m.Arch, row.name, dom[0], dom[1], a.Key())
			}
		}
	}
}

// TestOneRulePerVariable drives Parse and Set (followed by Validate, as the
// tuner does) with the same values. The two agree on every value, and every
// rejection, from Parse, Set or Validate, is worded the same.
func TestOneRulePerVariable(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	type tc struct {
		value      string
		parse, set bool
	}
	ok, bad := func(v string) tc { return tc{v, true, true} },
		func(v string) tc { return tc{v, false, false} }
	cases := map[VarName][]tc{
		VarPlaces: {ok("cores"), ok("unset"), ok("Sockets"), ok("numa_domains"), ok("threads"),
			bad("clouds"), bad(""), bad("{0,1}"), bad("cores(4)")},
		VarProcBind:       {ok("spread"), ok("unset"), ok("FALSE"), bad("left"), bad(""), bad("primary")},
		VarSchedule:       {ok("guided"), ok(" AUTO "), bad("fair"), bad("static,4"), bad("")},
		VarLibrary:        {ok("turnaround"), ok("serial"), bad("interpretive"), bad("")},
		VarBlocktime:      {ok("0"), ok("200"), ok("1000"), ok("Infinite"), bad("-5"), bad("-1"), bad("forever"), bad("")},
		VarForceReduction: {ok("tree"), ok("unset"), bad("quantum"), bad("")},
		VarAlignAlloc:     {ok("64"), ok("512"), bad("96"), bad("-64"), bad("striped"), bad("")},
	}
	// The study's domains are stricter than the runtime's parser, which
	// takes each of these.
	for _, kv := range []string{"OMP_PROC_BIND=primary", "OMP_PROC_BIND=", "OMP_PLACES={0,1}",
		"OMP_PLACES=cores(4)", "OMP_SCHEDULE=static,4"} {
		if _, err := openmp.OptionsFromEnviron([]string{kv}); err != nil {
			t.Errorf("OptionsFromEnviron(%s): %v", kv, err)
		}
	}
	for _, row := range variables {
		if len(cases[row.name]) == 0 {
			t.Errorf("%s: no accept/reject cases", row.name)
		}
		for _, c := range cases[row.name] {
			wantErr := row.invalid(strings.ToLower(strings.TrimSpace(c.value))).Error()

			parsed, err := parse(m, []string{string(row.name) + "=" + c.value})
			if (err == nil) != c.parse {
				t.Errorf("parse(%s=%q): error %v, want accepted = %v", row.name, c.value, err, c.parse)
			} else if err != nil && err.Error() != wantErr {
				t.Errorf("parse(%s=%q): error %q, want %q", row.name, c.value, err, wantErr)
			}

			set, err := Default(m).Set(row.name, c.value)
			if err == nil {
				err = set.Validate(m)
			}
			if (err == nil) != c.set {
				t.Errorf("Set(%s, %q) + Validate: error %v, want accepted = %v", row.name, c.value, err, c.set)
			} else if err != nil && err.Error() != wantErr {
				t.Errorf("Set(%s, %q) + Validate: error %q, want %q", row.name, c.value, err, wantErr)
			}
			if c.parse && parsed != set {
				t.Errorf("%s=%q: Parse gives %s, Set gives %s", row.name, c.value, parsed, set)
			}
		}
	}
}

// FuzzParse feeds parse newline-separated environment entries. It must not
// panic, and what it accepts must be valid, must survive Environ → Parse, and
// must configure a runtime through RuntimeOptions exactly as the runtime's
// own string-environment path does from the same entries (OMP_PLACES aside:
// that path cannot resolve the abstract place kinds, so bind is compared
// with places unset).
func FuzzParse(f *testing.F) {
	m := topology.MustGet(topology.Milan)
	f.Add(strings.Join(environOf(Default(m)), "\n"))
	f.Add("OMP_NUM_THREADS= 64 , 2\nOMP_MAX_ACTIVE_LEVELS=2\nOMP_THREAD_LIMIT=128\nOMP_PLACES=ll_caches")
	f.Add("omp_proc_bind=SPREAD\nKMP_BLOCKTIME=Infinite\nKMP_LIBRARY=serial\nKMP_FORCE_REDUCTION=atomic\nPATH=/bin")
	f.Add("OMP_NUM_THREADS=4,,2")
	f.Add("OMP_NUM_THREADS=\nOMP_MAX_ACTIVE_LEVELS=0")
	f.Add("KMP_BLOCKTIME=-1\nKMP_ALIGN_ALLOC=96")
	f.Add("OMP_SCHEDULE")
	f.Fuzz(func(t *testing.T, entries string) {
		c, err := parse(m, strings.Split(entries, "\n"))
		if err != nil {
			return
		}
		if err := c.Validate(m); err != nil {
			t.Fatalf("Parse accepted %q as %s, which Validate rejects: %v", entries, c, err)
		}
		if back, err := parse(m, environOf(c)); err != nil || back != c {
			t.Fatalf("%s: parse(Environ()) = %s, %v", c, back, err)
		}

		c.Places = topology.PlaceUnset
		environ := append(environOf(c), "OMP_NUM_THREADS="+strconv.Itoa(m.Cores))
		ref, err := openmp.OptionsFromEnviron(environ)
		if err != nil {
			t.Fatalf("%s: OptionsFromEnviron(%q): %v", c, environ, err)
		}
		o := c.RuntimeOptions(m)
		if o.Schedule != ref.Schedule || o.Bind != ref.Bind || o.Library != ref.Library ||
			o.BlocktimeMS != ref.BlocktimeMS || o.Reduction != ref.Reduction || o.AlignAlloc != ref.AlignAlloc ||
			o.NumThreads != ref.NumThreads || !slices.Equal(o.ThreadsPerLevel, ref.ThreadsPerLevel) ||
			o.MaxActiveLevels != ref.MaxActiveLevels || o.ThreadLimit != ref.ThreadLimit {
			t.Fatalf("%s: RuntimeOptions %+v disagrees with the environment path %+v", c, o, ref)
		}
	})
}
