// Package numflag registers numeric command-line flags with the domain
// their values must lie in. A value outside it fails inside
// flag.FlagSet.Parse, as `invalid value "…" for flag -name: want …`, and
// -help shows the domain beside the registered default. Exit ends a
// command on its run's error.
package numflag

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// Exit ends command name's main on its run's error: "name: err" on stderr
// and exit 1, except for nil and flag.ErrHelp (-help: Parse printed the
// listing), on which it returns, so the process exits 0.
func Exit(name string, err error) {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

type value[T int | float64 | time.Duration] struct {
	p              *T
	domain         string // the type word, back-quoted, and the domain
	lo, hi         float64
	loOpen, hiOpen bool
}

// Var registers the flag name on fs with default def and returns the
// variable it sets. domain is ">= lo", "> lo" or "in [lo, hi]", where "("
// or ")" opens an end; a duration's bounds are in nanoseconds. NaN and ±Inf
// lie in no domain.
func Var[T int | float64 | time.Duration](fs *flag.FlagSet, name string, def T, domain, usage string) *T {
	op, bounds, _ := strings.Cut(domain, " ")
	lo, hi, _ := strings.Cut(strings.Trim(bounds, "[]()"), ", ")
	// The type word, keyed by T's zero value; flag.PrintDefaults shows the
	// back-quoted word after -name.
	kind := map[any]string{0: "`int`", 0.0: "finite `float`", time.Duration(0): "`duration`"}[any(T(0))]
	v := &value[T]{p: &def, domain: kind + " " + domain, hi: math.Inf(1),
		loOpen: op == ">" || strings.HasPrefix(bounds, "("), hiOpen: strings.HasSuffix(bounds, ")")}
	var err error
	if v.lo, err = strconv.ParseFloat(lo, 64); err == nil && op == "in" {
		v.hi, err = strconv.ParseFloat(hi, 64)
	}
	if err != nil || !v.holds(def) {
		panic(fmt.Sprintf("numflag: -%s: domain %q is malformed or excludes the default %v", name, domain, def))
	}
	fs.Var(v, name, usage+" ("+v.domain+")")
	return v.p
}

// String prints the value as Set reads it. The zero value, which
// flag.PrintDefaults builds to tell a zero default, prints "", so -help
// shows every default.
func (v *value[T]) String() string {
	if v.p == nil {
		return ""
	}
	return fmt.Sprint(*v.p)
}

// Set parses s as flag.FlagSet's Int, Float64 and Duration flags do, and
// stores it if it lies in the domain.
func (v *value[T]) Set(s string) error {
	var x T
	var err error
	switch p := any(&x).(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(n)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	if err != nil || !v.holds(x) {
		return fmt.Errorf("want %s", strings.ReplaceAll(v.domain, "`", ""))
	}
	*v.p = x
	return nil
}

func (v *value[T]) holds(x T) bool {
	f := float64(x)
	return !math.IsNaN(f) && !math.IsInf(f, 0) && (f > v.lo || f == v.lo && !v.loOpen) &&
		(f < v.hi || f == v.hi && !v.hiOpen)
}
