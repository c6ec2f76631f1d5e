// Package env models the LLVM/OpenMP environment variables studied by the
// paper (§III): OMP_PLACES, OMP_PROC_BIND, OMP_SCHEDULE, KMP_LIBRARY,
// KMP_BLOCKTIME, KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC.
//
// A Config holds one value assignment in the openmp runtime's own kinds. The
// package knows each variable's value domain (per architecture where it
// matters), applies the runtime's default-derivation rules — e.g.
// OMP_PROC_BIND defaulting to spread once OMP_PLACES is set, or the
// thread-count-dependent reduction heuristic — which live on those kinds,
// and can enumerate the full cartesian sweep space used for data collection.
package env

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omptune/internal/topology"
	"omptune/openmp"
)

// Schedules returns the OMP_SCHEDULE domain: the paper sweeps all four kinds
// and no chunk sizes (§III-3).
func Schedules() []openmp.ScheduleKind {
	return []openmp.ScheduleKind{openmp.ScheduleStatic, openmp.ScheduleDynamic, openmp.ScheduleGuided, openmp.ScheduleAuto}
}

// ProcBinds returns the OMP_PROC_BIND domain swept by the paper (§III-2). The
// order is the feature encoding order (§IV-D's naive numeric scheme): it runs
// from the binding that concentrates threads hardest (master) through the
// unbound settings to the spreading policies, so that the encoded value is
// roughly monotone in how well the policy distributes a team.
func ProcBinds() []openmp.BindPolicy {
	return []openmp.BindPolicy{
		openmp.BindMaster, openmp.BindNone, openmp.BindDefault, openmp.BindClose, openmp.BindTrue, openmp.BindSpread,
	}
}

// Libraries returns the KMP_LIBRARY domain swept by the paper (§III-4).
// Serial exists in the runtime but is excluded from the sweep because it
// forces serial execution.
func Libraries() []openmp.LibraryMode {
	return []openmp.LibraryMode{openmp.LibThroughput, openmp.LibTurnaround}
}

// Reductions returns the KMP_FORCE_REDUCTION domain swept by the paper
// (§III-6).
func Reductions() []openmp.ReductionMethod {
	return []openmp.ReductionMethod{
		openmp.ReductionDefault, openmp.ReductionTree, openmp.ReductionCritical, openmp.ReductionAtomic,
	}
}

// The runtime's default KMP_LIBRARY mode and KMP_BLOCKTIME (§III-4, §III-5).
const (
	LibThroughput      = openmp.LibThroughput
	DefaultBlocktimeMS = openmp.DefaultBlocktimeMS
)

// Blocktimes returns the KMP_BLOCKTIME values swept by the paper:
// 0, 200 and infinite.
func Blocktimes() []int { return []int{0, DefaultBlocktimeMS, openmp.BlocktimeInfinite} }

// PlaceKinds returns the OMP_PLACES domain swept by the paper. The threads
// and numa_domains values are excluded (§III-1: no SMT machines, no hwloc).
func PlaceKinds() []topology.PlaceKind {
	return []topology.PlaceKind{
		topology.PlaceUnset, topology.PlaceCores, topology.PlaceLLCs, topology.PlaceSockets,
	}
}

// Config is one assignment to the seven studied environment variables. The
// four kinds are the openmp runtime's own, so each spelling is its String()
// and each default rule its method. Config is comparable: datasets and
// caches key on it.
type Config struct {
	Places         topology.PlaceKind     // OMP_PLACES
	ProcBind       openmp.BindPolicy      // OMP_PROC_BIND
	Schedule       openmp.ScheduleKind    // OMP_SCHEDULE (kind only, no chunk)
	Library        openmp.LibraryMode     // KMP_LIBRARY
	BlocktimeMS    int                    // KMP_BLOCKTIME; openmp.BlocktimeInfinite = never sleep
	ForceReduction openmp.ReductionMethod // KMP_FORCE_REDUCTION
	AlignAlloc     int                    // KMP_ALIGN_ALLOC in bytes
}

// Default returns the runtime's default configuration on machine m (§III):
// everything unset, static schedule, throughput library, 200 ms blocktime,
// heuristic reduction, and the cache-line size as allocation alignment.
func Default(m *topology.Machine) Config {
	return Config{
		Places:         topology.PlaceUnset,
		ProcBind:       openmp.BindDefault,
		Schedule:       openmp.ScheduleStatic,
		Library:        openmp.LibThroughput,
		BlocktimeMS:    DefaultBlocktimeMS,
		ForceReduction: openmp.ReductionDefault,
		AlignAlloc:     m.CacheLineBytes,
	}
}

// EffectiveBind resolves an unset OMP_PROC_BIND by the runtime's rule
// (§III-2, openmp.BindPolicy.Resolve).
func (c Config) EffectiveBind() openmp.BindPolicy {
	return c.ProcBind.Resolve(c.Places != topology.PlaceUnset)
}

// EffectiveReduction resolves an unset KMP_FORCE_REDUCTION for a team of
// threads by the runtime's heuristic (§III-6, openmp.ReductionMethod.Resolve).
func (c Config) EffectiveReduction(threads int) openmp.ReductionMethod {
	return c.ForceReduction.Resolve(threads)
}

// EffectiveBlocktimeMS resolves the wait budget: KMP_LIBRARY=turnaround
// spins forever (§III, openmp.LibraryMode.Blocktime).
func (c Config) EffectiveBlocktimeMS() int { return c.Library.Blocktime(c.BlocktimeMS) }

// Validate checks every field against its domain on machine m.
func (c Config) Validate(m *topology.Machine) error {
	for i := range variables {
		if row := &variables[i]; !row.valid(c, m) {
			return row.invalid(row.value(c))
		}
	}
	return nil
}

// Key returns a stable, human-readable identifier for the configuration,
// used as the dataset join key.
//
// The key is appended into a stack buffer: the returned string is the only
// allocation.
func (c Config) Key() string {
	var buf [128]byte // the longest swept key is 102 bytes
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to b and returns the extended slice, for a
// caller that only reads the key (the model hashes it into a series seed)
// and need not allocate it.
func (c Config) AppendKey(b []byte) []byte {
	b = append(append(b, "places="...), c.Places.String()...)
	b = append(append(b, "|bind="...), c.ProcBind.String()...)
	b = append(append(b, "|sched="...), c.Schedule.String()...)
	b = append(append(b, "|lib="...), c.Library.String()...)
	if b = append(b, "|blocktime="...); c.BlocktimeMS == openmp.BlocktimeInfinite {
		b = append(b, "infinite"...)
	} else {
		b = strconv.AppendInt(b, int64(c.BlocktimeMS), 10)
	}
	b = append(append(b, "|red="...), c.ForceReduction.String()...)
	return strconv.AppendInt(append(b, "|align="...), int64(c.AlignAlloc), 10)
}

// String implements fmt.Stringer with the Key representation.
func (c Config) String() string { return c.Key() }

// An Assignment is one exported variable: its name and its value.
type Assignment struct {
	Name  VarName
	Value string
}

// ParseAssignments builds a Config from assignments applied in order, with
// the default rules of Default(m) for absent variables. Names and values are
// trimmed, names upper-cased and values lower-cased; names the package does
// not know are ignored, as a real runtime ignores foreign variables. No
// value is kept: a caller may reuse the strings it passes.
func ParseAssignments(m *topology.Machine, as []Assignment) (Config, error) {
	c := Default(m)
	for _, a := range as {
		row := lookup(VarName(strings.ToUpper(strings.TrimSpace(string(a.Name)))))
		if row == nil {
			continue
		}
		val := strings.TrimSpace(strings.ToLower(a.Value))
		var ok bool
		if c, ok = row.set(c, val); !ok {
			return Config{}, row.invalid(val)
		}
	}
	if err := c.Validate(m); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Space enumerates the full cartesian sweep space on machine m in a stable
// order: 4 places x 6 binds x 4 schedules x 2 libraries x 3 blocktimes x
// 4 reductions x |align(m)| alignments — 4608 configurations on A64FX and
// 9216 on the x86 machines.
func Space(m *topology.Machine) []Config {
	var out []Config
	for _, p := range PlaceKinds() {
		for _, b := range ProcBinds() {
			for _, s := range Schedules() {
				for _, l := range Libraries() {
					for _, bt := range Blocktimes() {
						for _, r := range Reductions() {
							for _, a := range m.AlignAllocValues() {
								out = append(out, Config{
									Places: p, ProcBind: b, Schedule: s, Library: l,
									BlocktimeMS: bt, ForceReduction: r, AlignAlloc: a,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// VarName identifies one studied environment variable; the order of Names is
// the canonical feature order used by the analysis and the heatmaps.
type VarName string

// The seven studied variables plus the two context features the paper adds
// when grouping data (§IV-D).
const (
	VarPlaces         VarName = "OMP_PLACES"
	VarProcBind       VarName = "OMP_PROC_BIND"
	VarSchedule       VarName = "OMP_SCHEDULE"
	VarLibrary        VarName = "KMP_LIBRARY"
	VarBlocktime      VarName = "KMP_BLOCKTIME"
	VarForceReduction VarName = "KMP_FORCE_REDUCTION"
	VarAlignAlloc     VarName = "KMP_ALIGN_ALLOC"
)

// Names returns the canonical variable order.
func Names() []VarName {
	out := make([]VarName, len(variables))
	for i := range variables {
		out[i] = variables[i].name
	}
	return out
}

// ParseNames resolves a comma-separated list of variable names, such as a
// search's variable order; "" is none. The error of an unknown name lists
// the variables.
func ParseNames(list string) ([]VarName, error) {
	if list == "" {
		return nil, nil
	}
	var out []VarName
	for _, raw := range strings.Split(list, ",") {
		v := VarName(strings.TrimSpace(raw))
		if lookup(v) == nil {
			return nil, unknownVariable(v)
		}
		out = append(out, v)
	}
	return out, nil
}

func unknownVariable(v VarName) error {
	names := make([]string, len(variables))
	for i := range variables {
		names[i] = string(variables[i].name)
	}
	return fmt.Errorf("env: unknown variable %q (valid: %s)", v, strings.Join(names, ", "))
}

// variable is everything the package knows about one environment variable.
// Validate, ParseAssignments, Set, SetIndex, Index, Value, Values and
// Feature are loops or lookups over the variables table, so adding a
// variable is a Config field, a row, and a tag in Key. The accessors take
// the Config by value: through a func value a pointer would move the
// caller's copy to the heap.
type variable struct {
	name VarName

	domain func(m *topology.Machine) []string // swept values on m, in sweep order
	// get spells the value in c. A numeric variable gives count instead,
	// spelled in decimal where ok; get spells the rest (an infinite
	// blocktime). See value and appendValue.
	get   func(c Config) string
	count func(c Config) (n int, ok bool)
	// set parses a lower-cased, trimmed value; ok is false for one that is
	// not a spelling of the variable's type.
	set func(c Config, value string) (_ Config, ok bool)
	// setIndex assigns domain(m)[k] without spelling it; index is the
	// position of c's value in domain(m), -1 when it lies outside.
	setIndex func(c Config, m *topology.Machine, k int) Config
	index    func(c Config, m *topology.Machine) int
	valid    func(c Config, m *topology.Machine) bool
	// feature is Feature's encoding; nil means index, which must then not
	// read m.
	feature func(c Config) float64
}

// variables is in Names order.
var variables = [...]variable{
	{name: VarPlaces,
		domain:   func(*topology.Machine) []string { return spellings(PlaceKinds()) },
		get:      func(c Config) string { return c.Places.String() },
		set:      func(c Config, s string) (_ Config, ok bool) { c.Places, ok = parseKind(placeKinds(), s); return c, ok },
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.Places = PlaceKinds()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(PlaceKinds(), c.Places) },
		valid:    func(c Config, _ *topology.Machine) bool { return contains(placeKinds(), c.Places) }},
	{name: VarProcBind,
		domain:   func(*topology.Machine) []string { return spellings(ProcBinds()) },
		get:      func(c Config) string { return c.ProcBind.String() },
		set:      func(c Config, s string) (_ Config, ok bool) { c.ProcBind, ok = parseKind(ProcBinds(), s); return c, ok },
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.ProcBind = ProcBinds()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(ProcBinds(), c.ProcBind) },
		valid:    func(c Config, _ *topology.Machine) bool { return contains(ProcBinds(), c.ProcBind) }},
	{name: VarSchedule,
		domain:   func(*topology.Machine) []string { return spellings(Schedules()) },
		get:      func(c Config) string { return c.Schedule.String() },
		set:      func(c Config, s string) (_ Config, ok bool) { c.Schedule, ok = parseKind(Schedules(), s); return c, ok },
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.Schedule = Schedules()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(Schedules(), c.Schedule) },
		valid:    func(c Config, _ *topology.Machine) bool { return contains(Schedules(), c.Schedule) }},
	{name: VarLibrary,
		domain:   func(*topology.Machine) []string { return spellings(Libraries()) },
		get:      func(c Config) string { return c.Library.String() },
		set:      func(c Config, s string) (_ Config, ok bool) { c.Library, ok = parseKind(libraries(), s); return c, ok },
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.Library = Libraries()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(Libraries(), c.Library) },
		valid:    func(c Config, _ *topology.Machine) bool { return contains(libraries(), c.Library) }},
	{name: VarBlocktime,
		domain: func(*topology.Machine) []string {
			out := make([]string, 0, 3)
			for _, b := range Blocktimes() {
				out = append(out, blocktimeString(b))
			}
			return out
		},
		count: func(c Config) (int, bool) { return c.BlocktimeMS, c.BlocktimeMS != openmp.BlocktimeInfinite },
		get:   func(Config) string { return "infinite" },
		set: func(c Config, s string) (_ Config, ok bool) {
			if s == "infinite" {
				c.BlocktimeMS = openmp.BlocktimeInfinite
				return c, true
			}
			c.BlocktimeMS, ok = atoiCount(s)
			return c, ok
		},
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.BlocktimeMS = Blocktimes()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(Blocktimes(), c.BlocktimeMS) },
		valid:    func(c Config, _ *topology.Machine) bool { return c.BlocktimeMS >= openmp.BlocktimeInfinite }},
	{name: VarForceReduction,
		domain: func(*topology.Machine) []string { return spellings(Reductions()) },
		get:    func(c Config) string { return c.ForceReduction.String() },
		set: func(c Config, s string) (_ Config, ok bool) {
			c.ForceReduction, ok = parseKind(Reductions(), s)
			return c, ok
		},
		setIndex: func(c Config, _ *topology.Machine, k int) Config { c.ForceReduction = Reductions()[k]; return c },
		index:    func(c Config, _ *topology.Machine) int { return indexOf(Reductions(), c.ForceReduction) },
		valid:    func(c Config, _ *topology.Machine) bool { return contains(Reductions(), c.ForceReduction) }},
	{name: VarAlignAlloc,
		domain:   func(m *topology.Machine) []string { return itoas(m.AlignAllocValues()) },
		count:    func(c Config) (int, bool) { return c.AlignAlloc, true },
		set:      func(c Config, s string) (_ Config, ok bool) { c.AlignAlloc, ok = atoiCount(s); return c, ok },
		setIndex: func(c Config, m *topology.Machine, k int) Config { c.AlignAlloc = m.AlignAllocValues()[k]; return c },
		index:    func(c Config, m *topology.Machine) int { return indexOf(m.AlignAllocValues(), c.AlignAlloc) },
		valid:    func(c Config, m *topology.Machine) bool { return containsInt(m.AlignAllocValues(), c.AlignAlloc) },
		// log2(bytes), so the scale stays comparable with the index encodings.
		feature: func(c Config) float64 { return log2i(c.AlignAlloc) }},
}

// lookup returns v's row of the table, nil for a name it does not hold. The
// switch indexes the table by name: a CSV write looks up every cell's
// variable. TestLookupIndexesTable holds its cases to the rows.
func lookup(v VarName) *variable {
	switch v {
	case VarPlaces:
		return &variables[0]
	case VarProcBind:
		return &variables[1]
	case VarSchedule:
		return &variables[2]
	case VarLibrary:
		return &variables[3]
	case VarBlocktime:
		return &variables[4]
	case VarForceReduction:
		return &variables[5]
	case VarAlignAlloc:
		return &variables[6]
	}
	return nil
}

// invalid is the one wording Parse, Set and Validate reject a value with.
func (row *variable) invalid(value string) error {
	return fmt.Errorf("env: invalid %s %q", row.name, value)
}

// Feature returns the naive ordinal encoding of variable v in c (§IV-D uses
// a naive numeric scheme): the index within the swept domain unless the
// variable's row says otherwise, -1 for a variable the package does not know.
func (c Config) Feature(v VarName) float64 {
	row := lookup(v)
	switch {
	case row == nil:
		return -1
	case row.feature != nil:
		return row.feature(c)
	}
	return float64(row.index(c, nil))
}

// Set assigns the given value (by string) to variable v, returning an
// updated copy. It is used by the search-space-pruning tuner. Set accepts
// what Parse accepts; like Parse's, its result is Validate's to check
// against a machine.
func (c Config) Set(v VarName, value string) (Config, error) {
	row := lookup(v)
	if row == nil {
		return c, unknownVariable(v)
	}
	value = strings.ToLower(strings.TrimSpace(value))
	nc, ok := row.set(c, value)
	if !ok {
		return c, row.invalid(value)
	}
	return nc, nil
}

// SetIndex returns c with variable v assigned the k-th value of its swept
// domain on m: c.Set(v, Values(m, v)[k]), without spelling or parsing the
// value. k must index that domain; an unknown v leaves c as it is.
func (c Config) SetIndex(m *topology.Machine, v VarName, k int) Config {
	if row := lookup(v); row != nil {
		return row.setIndex(c, m, k)
	}
	return c
}

// Index returns the position of c's value of variable v in Values(m, v): k
// where c.Value(v) == Values(m, v)[k], -1 when no swept value matches or v
// is unknown.
func (c Config) Index(m *topology.Machine, v VarName) int {
	if row := lookup(v); row != nil {
		return row.index(c, m)
	}
	return -1
}

// Values returns the swept string domain of variable v on machine m, in
// sweep order.
func Values(m *topology.Machine, v VarName) []string {
	if row := lookup(v); row != nil {
		return row.domain(m)
	}
	return nil
}

// Value returns the string value of variable v in configuration c.
func (c Config) Value(v VarName) string {
	if row := lookup(v); row != nil {
		return row.value(c)
	}
	return ""
}

// AppendValue appends Value(v)'s bytes to b, allocating nothing beyond b's
// growth: a writer that spells many configurations renders them in place.
func (c Config) AppendValue(b []byte, v VarName) []byte {
	if row := lookup(v); row != nil {
		return row.appendValue(b, c)
	}
	return b
}

func (row *variable) value(c Config) string {
	if row.count != nil {
		if n, ok := row.count(c); ok {
			return strconv.Itoa(n)
		}
	}
	return row.get(c)
}

func (row *variable) appendValue(b []byte, c Config) []byte {
	if row.count != nil {
		if n, ok := row.count(c); ok {
			return strconv.AppendInt(b, int64(n), 10)
		}
	}
	return append(b, row.get(c)...)
}

func blocktimeString(ms int) string {
	if ms == openmp.BlocktimeInfinite {
		return "infinite"
	}
	return strconv.Itoa(ms)
}

// atoiCount parses a non-negative integer.
func atoiCount(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0
}

func itoas(dom []int) []string {
	out := make([]string, len(dom))
	for i, n := range dom {
		out[i] = strconv.Itoa(n)
	}
	return out
}

func contains[T comparable](dom []T, v T) bool { return indexOf(dom, v) >= 0 }

func containsInt(dom []int, v int) bool {
	i := sort.SearchInts(dom, v)
	return i < len(dom) && dom[i] == v
}

func indexOf[T comparable](dom []T, v T) int {
	for i, d := range dom {
		if d == v {
			return i
		}
	}
	return -1
}

// placeKinds is every OMP_PLACES kind a Config may hold: the swept four plus
// threads and numa_domains, which §III-1 leaves out of the study's sweep
// (the extended sweep adds numa_domains).
func placeKinds() []topology.PlaceKind {
	return []topology.PlaceKind{
		topology.PlaceUnset, topology.PlaceThreads, topology.PlaceCores,
		topology.PlaceLLCs, topology.PlaceSockets, topology.PlaceNUMA,
	}
}

// libraries is every KMP_LIBRARY mode a Config may hold: the swept two and
// serial. A literal, not an append to Libraries(): a setter runs once per
// first-seen configuration and must not allocate.
func libraries() []openmp.LibraryMode {
	return []openmp.LibraryMode{openmp.LibThroughput, openmp.LibTurnaround, openmp.LibSerial}
}

// kind is a variable's runtime type: a small integer whose String() is its
// spelling.
type kind interface {
	~int
	String() string
}

// parseKind returns the kind of dom that s spells; ok is false for a
// spelling outside dom. The study parses its own domains rather than the
// runtime's, which accepts more (primary, an empty value, a chunk).
func parseKind[T kind](dom []T, s string) (k T, ok bool) {
	for _, k := range dom {
		if k.String() == s {
			return k, true
		}
	}
	return k, false
}

// spellings renders a domain in order.
func spellings[T kind](dom []T) []string {
	out := make([]string, len(dom))
	for i, k := range dom {
		out[i] = k.String()
	}
	return out
}

func log2i(n int) float64 {
	f := 0.0
	for n > 1 {
		n >>= 1
		f++
	}
	return f
}
