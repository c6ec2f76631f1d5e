package numflag

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestHelpShowsDomainAndDefault pins what -help prints for a numeric flag:
// its type word after the name, its domain after the usage, and its
// default, a zero one too.
func TestHelpShowsDomainAndDefault(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Var(fs, "reps", 1, ">= 1", "timed repetitions")
	Var(fs, "warmup", 0, ">= 0", "untimed runs")
	Var(fs, "buf", 65536, "in [1, 16777216]", "ring capacity")
	Var(fs, "frac", 0.0, "in [0, 1]", "fraction (0 = all)")
	Var(fs, "alpha", 0.05, "in (0, 1)", "level")
	Var(fs, "scale", 1.0, "> 0", "input scale")
	Var(fs, "linger", time.Duration(0), ">= 0", "linger (0 = none)")
	Var(fs, "heartbeat", 30*time.Second, "> 0", "period")
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	want := `  -alpha float
    	level (finite float in (0, 1)) (default 0.05)
  -buf int
    	ring capacity (int in [1, 16777216]) (default 65536)
  -frac float
    	fraction (0 = all) (finite float in [0, 1]) (default 0)
  -heartbeat duration
    	period (duration > 0) (default 30s)
  -linger duration
    	linger (0 = none) (duration >= 0) (default 0s)
  -reps int
    	timed repetitions (int >= 1) (default 1)
  -scale float
    	input scale (finite float > 0) (default 1)
  -warmup int
    	untimed runs (int >= 0) (default 0)
`
	if b.String() != want {
		t.Errorf("PrintDefaults:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestParseRefuses holds the error a refused value gets from Parse, and
// the values each end of a domain admits.
func TestParseRefuses(t *testing.T) {
	for _, tc := range []struct {
		float  bool
		domain string
		args   []string
		want   string // "" when Parse accepts
	}{
		{false, ">= 1", []string{"1", "0x10", "1_000"}, ""},
		{false, ">= 1", []string{"0"}, `invalid value "0" for flag -x: want int >= 1`},
		{false, ">= 1", []string{"1.5", "9223372036854775808", ""}, "want int >= 1"},
		{false, "in [1, 16777216]", []string{"16777216"}, ""},
		{false, "in [1, 16777216]", []string{"16777217"}, `invalid value "16777217" for flag -x: want int in [1, 16777216]`},
		{true, "in (0, 1)", []string{"1e-300", "0.999"}, ""},
		{true, "in (0, 1)", []string{"0", "1", "NaN"}, "want finite float in (0, 1)"},
		{true, ">= 0", []string{"-0", "1e308"}, ""},
		{true, ">= 0", []string{"+Inf", "1e400", "-1e-300"}, "want finite float >= 0"},
		{true, "> 0", []string{"5e-324"}, ""},
		{true, "> 0", []string{"0", "-Inf"}, "want finite float > 0"},
	} {
		for _, arg := range tc.args {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if tc.float {
				Var(fs, "x", 0.5, tc.domain, "")
			} else {
				Var(fs, "x", 1, tc.domain, "")
			}
			err := fs.Parse([]string{"-x", arg})
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("-x %q in %s: error %v, want %q", arg, tc.domain, err, tc.want)
			}
		}
	}
	for _, d := range []string{"> 0", ">= 0"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Var(fs, "x", time.Second, d, "")
		if err := fs.Parse([]string{"-x", "-1ns"}); err == nil || !strings.Contains(err.Error(), "want duration "+d) {
			t.Errorf("-x -1ns in %s: error %v", d, err)
		}
	}
}

// TestVarRefusesItsOwnDefault: a default outside its domain, or a domain
// Var cannot read, is a bug in the command, caught at registration.
func TestVarRefusesItsOwnDefault(t *testing.T) {
	for _, tc := range []struct {
		def    int
		domain string
	}{{0, ">= 1"}, {1, "in [2, 4]"}, {1, ">= one"}, {1, "in [1, ]"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Var(default %d, %q) did not panic", tc.def, tc.domain)
				}
			}()
			Var(flag.NewFlagSet("t", flag.ContinueOnError), "x", tc.def, tc.domain, "")
		}()
	}
}

// FuzzSet holds Set, for any input and each domain the commands use, to
// the flag package's own parser of the same type and to the domain written
// out as a predicate: Set stores a value only inside the domain, refuses
// none the plain flag reads inside it, never panics, and what String
// prints of a stored value parses back to the same value.
func FuzzSet(f *testing.F) {
	for _, s := range []string{"0", "1", "-1", "2", "0.5", "-0", "NaN", "+Inf", "-Inf", "1e400", "5e-324",
		"0x10", "0b11", "1_000", "16777216", "16777217", "9223372036854775807", "1s", "-1ns", "2562047h47m16.854775807s", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ints := func(fs *flag.FlagSet) *int { return fs.Int("x", 0, "") }
		floats := func(fs *flag.FlagSet) *float64 { return fs.Float64("x", 0, "") }
		durations := func(fs *flag.FlagSet) *time.Duration { return fs.Duration("x", 0, "") }
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		checkSet(t, s, 0, ">= 0", ints, func(x int) bool { return x >= 0 })
		checkSet(t, s, 1, ">= 1", ints, func(x int) bool { return x >= 1 })
		checkSet(t, s, 2, ">= 2", ints, func(x int) bool { return x >= 2 })
		checkSet(t, s, 1, "in [1, 16777216]", ints, func(x int) bool { return x >= 1 && x <= 1<<24 })
		checkSet(t, s, 1, "> 0", floats, func(x float64) bool { return finite(x) && x > 0 })
		checkSet(t, s, 0, ">= 0", floats, func(x float64) bool { return finite(x) && x >= 0 })
		checkSet(t, s, 0, "in [0, 1]", floats, func(x float64) bool { return x >= 0 && x <= 1 })
		checkSet(t, s, 0.5, "in (0, 1)", floats, func(x float64) bool { return x > 0 && x < 1 })
		checkSet(t, s, 0, ">= 0", durations, func(x time.Duration) bool { return x >= 0 })
		checkSet(t, s, time.Second, "> 0", durations, func(x time.Duration) bool { return x > 0 })
	})
}

func checkSet[T int | float64 | time.Duration](t *testing.T, s string, def T, domain string, plain func(*flag.FlagSet) *T, in func(T) bool) {
	t.Helper()
	fs, ref := flag.NewFlagSet("t", flag.ContinueOnError), flag.NewFlagSet("ref", flag.ContinueOnError)
	p, q := Var(fs, "x", def, domain, ""), plain(ref)
	err, refErr := fs.Set("x", s), ref.Set("x", s)
	switch {
	case err == nil && !in(*p):
		t.Fatalf("%s: Set(%q) stored %v outside the domain", domain, s, *p)
	case err == nil && (refErr != nil || *p != *q):
		t.Fatalf("%s: Set(%q) stored %v, the plain flag read %v (error %v)", domain, s, *p, *q, refErr)
	case err != nil && refErr == nil && in(*q):
		t.Fatalf("%s: Set(%q) refused %v, which lies in the domain: %v", domain, s, *q, err)
	case err != nil && *p != def:
		t.Fatalf("%s: refused Set(%q) changed the value to %v", domain, s, *p)
	case err != nil:
		return
	}
	again := flag.NewFlagSet("again", flag.ContinueOnError)
	r := Var(again, "x", def, domain, "")
	if printed := fs.Lookup("x").Value.String(); again.Set("x", printed) != nil || *r != *p {
		t.Fatalf("%s: %v printed as %q reads back as %v", domain, *p, printed, *r)
	}
}

// TestExitReturnsOnHelp: Exit returns on a nil error and on -help's
// flag.ErrHelp, wrapped or not, so main returns and the process exits 0.
func TestExitReturnsOnHelp(t *testing.T) {
	Exit("t", nil)
	Exit("t", flag.ErrHelp)
	Exit("t", fmt.Errorf("parse: %w", flag.ErrHelp))
}
