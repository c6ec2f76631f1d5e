// Package env models the LLVM/OpenMP environment variables studied by the
// paper (§III): OMP_PLACES, OMP_PROC_BIND, OMP_SCHEDULE, KMP_LIBRARY,
// KMP_BLOCKTIME, KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC.
//
// A Config holds one value assignment. The package knows each variable's
// value domain (per architecture where it matters), the default-derivation
// rules of the real runtime — e.g. OMP_PROC_BIND defaulting to spread once
// OMP_PLACES is set, or the thread-count-dependent reduction heuristic — and
// can enumerate the full cartesian sweep space used for data collection.
package env

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omptune/internal/topology"
	"omptune/openmp"
)

// Schedule is the worksharing-loop schedule kind (OMP_SCHEDULE, §III-3).
type Schedule string

// Schedule kinds. The paper sweeps all four and no chunk sizes.
const (
	ScheduleStatic  Schedule = "static"
	ScheduleDynamic Schedule = "dynamic"
	ScheduleGuided  Schedule = "guided"
	ScheduleAuto    Schedule = "auto"
)

// Schedules returns the OMP_SCHEDULE domain.
func Schedules() []Schedule {
	return []Schedule{ScheduleStatic, ScheduleDynamic, ScheduleGuided, ScheduleAuto}
}

// ProcBind is the thread affinity policy (OMP_PROC_BIND, §III-2).
type ProcBind string

// ProcBind values. BindUnset resolves to BindFalse unless OMP_PLACES is set,
// in which case it resolves to BindSpread.
const (
	BindUnset  ProcBind = "unset"
	BindMaster ProcBind = "master"
	BindClose  ProcBind = "close"
	BindSpread ProcBind = "spread"
	BindTrue   ProcBind = "true"
	BindFalse  ProcBind = "false"
)

// ProcBinds returns the OMP_PROC_BIND domain swept by the paper. The order
// is the feature encoding order (§IV-D's naive numeric scheme): it runs
// from the binding that concentrates threads hardest (master) through the
// unbound settings to the spreading policies, so that the encoded value is
// roughly monotone in how well the policy distributes a team.
func ProcBinds() []ProcBind {
	return []ProcBind{BindMaster, BindFalse, BindUnset, BindClose, BindTrue, BindSpread}
}

// Library selects the runtime execution mode (KMP_LIBRARY, §III-4).
type Library string

// Library values. Serial exists in the real runtime but is excluded from the
// sweep because it forces serial execution.
const (
	LibSerial     Library = "serial"
	LibThroughput Library = "throughput"
	LibTurnaround Library = "turnaround"
)

// Libraries returns the KMP_LIBRARY domain swept by the paper.
func Libraries() []Library { return []Library{LibThroughput, LibTurnaround} }

// Reduction selects the cross-thread reduction method
// (KMP_FORCE_REDUCTION, §III-6).
type Reduction string

// Reduction methods. ReductionUnset lets a heuristic pick at runtime.
const (
	ReductionUnset    Reduction = "unset"
	ReductionTree     Reduction = "tree"
	ReductionCritical Reduction = "critical"
	ReductionAtomic   Reduction = "atomic"
)

// Reductions returns the KMP_FORCE_REDUCTION domain swept by the paper.
func Reductions() []Reduction {
	return []Reduction{ReductionUnset, ReductionTree, ReductionCritical, ReductionAtomic}
}

// BlocktimeInfinite is the KMP_BLOCKTIME sentinel preventing worker threads
// from ever sleeping.
const BlocktimeInfinite = -1

// DefaultBlocktimeMS is the runtime's default KMP_BLOCKTIME (§III-5).
const DefaultBlocktimeMS = 200

// Blocktimes returns the KMP_BLOCKTIME values swept by the paper:
// 0, 200 and infinite.
func Blocktimes() []int { return []int{0, DefaultBlocktimeMS, BlocktimeInfinite} }

// PlaceKinds returns the OMP_PLACES domain swept by the paper. The threads
// and numa_domains values are excluded (§III-1: no SMT machines, no hwloc).
func PlaceKinds() []topology.PlaceKind {
	return []topology.PlaceKind{
		topology.PlaceUnset, topology.PlaceCores, topology.PlaceLLCs, topology.PlaceSockets,
	}
}

// Config is one assignment to the seven studied environment variables, plus
// the optional nesting axis (per-level thread lists, active-level and
// thread-limit bounds). The nesting fields are scalars with zero meaning
// "unset" so Config stays comparable (IsDefault, dataset join keys) and a
// flat Config renders byte-identically to the pre-nesting format.
type Config struct {
	Places         topology.PlaceKind // OMP_PLACES
	ProcBind       ProcBind           // OMP_PROC_BIND
	Schedule       Schedule           // OMP_SCHEDULE (kind only, no chunk)
	Library        Library            // KMP_LIBRARY
	BlocktimeMS    int                // KMP_BLOCKTIME; BlocktimeInfinite = never sleep
	ForceReduction Reduction          // KMP_FORCE_REDUCTION
	AlignAlloc     int                // KMP_ALIGN_ALLOC in bytes

	// NumThreadsList is the OMP_NUM_THREADS per-level list as its canonical
	// comma-separated string ("4,2"); empty means unset (the machine-wide
	// flat default). Kept as a string so Config remains comparable.
	NumThreadsList string
	// MaxActiveLevels is OMP_MAX_ACTIVE_LEVELS; 0 means unset (nesting depth
	// then follows the NumThreadsList length, or stays serialized).
	MaxActiveLevels int
	// ThreadLimit is OMP_THREAD_LIMIT, bounding the whole contention group
	// across nesting levels; 0 means unset (unlimited).
	ThreadLimit int
}

// Default returns the runtime's default configuration on machine m (§III):
// everything unset, static schedule, throughput library, 200 ms blocktime,
// heuristic reduction, and the cache-line size as allocation alignment.
func Default(m *topology.Machine) Config {
	return Config{
		Places:         topology.PlaceUnset,
		ProcBind:       BindUnset,
		Schedule:       ScheduleStatic,
		Library:        LibThroughput,
		BlocktimeMS:    DefaultBlocktimeMS,
		ForceReduction: ReductionUnset,
		AlignAlloc:     m.CacheLineBytes,
	}
}

// EffectiveBind resolves BindUnset per the rule in §III-2: false unless
// OMP_PLACES is set, in which case spread.
func (c Config) EffectiveBind() ProcBind {
	if c.ProcBind != BindUnset {
		return c.ProcBind
	}
	if c.Places != topology.PlaceUnset {
		return BindSpread
	}
	return BindFalse
}

// EffectiveReduction resolves ReductionUnset with the runtime heuristic of
// §III-6: a single thread needs no synchronization (tree degenerates to it),
// 2–4 threads use critical, larger counts use the tree method.
func (c Config) EffectiveReduction(threads int) Reduction {
	if c.ForceReduction != ReductionUnset {
		return c.ForceReduction
	}
	switch {
	case threads <= 1:
		return ReductionTree // degenerate: no synchronization needed
	case threads <= 4:
		return ReductionCritical
	default:
		return ReductionTree
	}
}

// EffectiveBlocktimeMS resolves the wait budget: KMP_LIBRARY=turnaround
// dedicates the machine to the application and spins indefinitely, which the
// real runtime expresses by deriving OMP_WAIT_POLICY from KMP_LIBRARY and
// KMP_BLOCKTIME together (§III).
func (c Config) EffectiveBlocktimeMS() int {
	if c.Library == LibTurnaround {
		return BlocktimeInfinite
	}
	return c.BlocktimeMS
}

// Validate checks every field against its domain on machine m.
func (c Config) Validate(m *topology.Machine) error {
	for i := range variables {
		if row := &variables[i]; !row.valid(c, m) {
			return row.invalid(row.get(c))
		}
	}
	return nil
}

// IsDefault reports whether c equals the default configuration on m.
func (c Config) IsDefault(m *topology.Machine) bool { return c == Default(m) }

// Key returns a stable, human-readable identifier for the configuration,
// used as the dataset join key. Nesting fields are appended only when set,
// so flat configurations keep their pre-nesting keys (existing datasets
// stay joinable).
//
// The key is appended into a stack buffer: the returned string is the only
// allocation.
func (c Config) Key() string {
	var buf [192]byte // the longest nested-space key is ~130 bytes
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to b and returns the extended slice, for a
// caller that only reads the key (the model hashes it into a series seed)
// and need not allocate it.
func (c Config) AppendKey(b []byte) []byte {
	b = append(append(b, "places="...), c.Places...)
	b = append(append(b, "|bind="...), c.ProcBind...)
	b = append(append(b, "|sched="...), c.Schedule...)
	b = append(append(b, "|lib="...), c.Library...)
	if b = append(b, "|blocktime="...); c.BlocktimeMS == BlocktimeInfinite {
		b = append(b, "infinite"...)
	} else {
		b = strconv.AppendInt(b, int64(c.BlocktimeMS), 10)
	}
	b = append(append(b, "|red="...), c.ForceReduction...)
	b = strconv.AppendInt(append(b, "|align="...), int64(c.AlignAlloc), 10)
	if c.NumThreadsList != "" {
		b = append(append(b, "|nthreads="...), c.NumThreadsList...)
	}
	if c.MaxActiveLevels != 0 {
		b = strconv.AppendInt(append(b, "|maxlevels="...), int64(c.MaxActiveLevels), 10)
	}
	if c.ThreadLimit != 0 {
		b = strconv.AppendInt(append(b, "|threadlimit="...), int64(c.ThreadLimit), 10)
	}
	return b
}

// String implements fmt.Stringer with the Key representation.
func (c Config) String() string { return c.Key() }

// Environ renders the configuration as KEY=VALUE strings in the style a user
// would export before launching an application. Unset variables are omitted,
// matching how the study drives the real runtime.
func (c Config) Environ() []string {
	out := make([]string, 0, len(variables))
	for i := range variables {
		row := &variables[i]
		if val := row.get(c); !row.optional || val != row.unset {
			out = append(out, string(row.name)+"="+val)
		}
	}
	return out
}

// Parse builds a Config from KEY=VALUE pairs (or a process-style environment
// slice), applying the default rules of Default(m) for absent keys. A
// malformed entry is reported before any value is read.
func Parse(m *topology.Machine, environ []string) (Config, error) {
	as := make([]Assignment, len(environ))
	for i, kv := range environ {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("env: malformed entry %q", kv)
		}
		as[i] = Assignment{VarName(key), val}
	}
	return ParseAssignments(m, as)
}

// An Assignment is one exported variable: its name and its value.
type Assignment struct {
	Name  VarName
	Value string
}

// ParseAssignments builds a Config from assignments applied in order, with
// the default rules of Default(m) for absent variables. Names and values are
// trimmed, names upper-cased and values lower-cased; names the package does
// not know are ignored, as a real runtime ignores foreign variables. The
// Config keeps the value strings themselves (Places, ProcBind, …), so a
// caller passes strings it will not overwrite. Parse is ParseAssignments
// over KEY=VALUE entries.
func ParseAssignments(m *topology.Machine, as []Assignment) (Config, error) {
	c := Default(m)
	for _, a := range as {
		row := lookup(VarName(strings.ToUpper(strings.TrimSpace(string(a.Name)))))
		if row == nil {
			continue
		}
		val := strings.TrimSpace(strings.ToLower(a.Value))
		// An exported nesting variable must carry a value: its unset spelling
		// is how Set and Values say "not exported", not something to export.
		var ok bool
		if c, ok = row.set(c, val); !ok || row.nested && row.get(c) == row.unset {
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

// The nesting-axis variables. They are deliberately NOT part of Names():
// the canonical seven-variable feature order (and every dataset keyed on
// it) is pinned; nesting sweeps opt in through NestedNames.
const (
	VarNumThreads      VarName = "OMP_NUM_THREADS"
	VarMaxActiveLevels VarName = "OMP_MAX_ACTIVE_LEVELS"
	VarThreadLimit     VarName = "OMP_THREAD_LIMIT"
)

// Names returns the canonical variable order.
func Names() []VarName { return names(false) }

// NestedNames returns the nesting-axis variable order, appended after
// Names() when a sweep enables the nesting dimension.
func NestedNames() []VarName { return names(true) }

func names(nested bool) []VarName {
	out := make([]VarName, 0, len(variables))
	for i := range variables {
		if variables[i].nested == nested {
			out = append(out, variables[i].name)
		}
	}
	return out
}

// NumThreadsLists returns the OMP_NUM_THREADS per-level lists swept when
// the nesting axis is enabled on machine m: unset (flat full-machine
// default), a depth-2 split forking 2-wide inner teams from a full-width
// outer team, and a depth-3 split halving the outer team to leave headroom
// for two threaded inner levels.
func NumThreadsLists(m *topology.Machine) []string {
	half := m.Cores / 2
	if half < 1 {
		half = 1
	}
	return []string{
		"",
		fmt.Sprintf("%d,2", m.Cores),
		fmt.Sprintf("%d,2,2", half),
	}
}

// MaxActiveLevelsValues returns the OMP_MAX_ACTIVE_LEVELS domain swept on
// the nesting axis: unset (list-depth default), nesting capped at two
// active levels, and at three.
func MaxActiveLevelsValues() []int { return []int{0, 2, 3} }

// ThreadLimits returns the OMP_THREAD_LIMIT domain swept on the nesting
// axis: unset (unlimited), the core count (inner forks must serialize once
// the outer team fills the machine), and twice the core count
// (oversubscription headroom for nested teams).
func ThreadLimits(m *topology.Machine) []int { return []int{0, m.Cores, 2 * m.Cores} }

// variable is everything the package knows about one environment variable.
// Validate, Parse, Environ, Set, Value, Values and Feature are loops or
// lookups over the variables table, so adding a variable is a Config field,
// a row, and a tag in Key. The accessors take the Config by value: through a
// func value a pointer would move the caller's copy to the heap.
type variable struct {
	name   VarName
	nested bool // on the nesting axis: listed by NestedNames, not Names
	// An optional variable is left unexported while its Value is unset.
	optional bool
	unset    string

	domain func(m *topology.Machine) []string // swept values on m, in sweep order
	get    func(c Config) string
	// set parses a lower-cased, trimmed value; ok is false for one that is
	// not a spelling of the variable's type.
	set     func(c Config, value string) (_ Config, ok bool)
	valid   func(c Config, m *topology.Machine) bool
	feature func(c Config) float64 // see Feature
}

// variables is in Environ order: the nesting axis, then the seven of Names.
var variables = [...]variable{
	{name: VarNumThreads, nested: true, optional: true, unset: "",
		domain: NumThreadsLists,
		get:    func(c Config) string { return c.NumThreadsList },
		set: func(c Config, s string) (Config, bool) {
			if s == "" || s == "unset" {
				c.NumThreadsList = ""
				return c, true
			}
			list, err := openmp.ParseThreadList(s)
			c.NumThreadsList = strings.Join(itoas(list), ",") // canonical: no spaces
			return c, err == nil
		},
		valid: func(c Config, _ *topology.Machine) bool {
			if c.NumThreadsList == "" {
				return true
			}
			_, err := openmp.ParseThreadList(c.NumThreadsList)
			return err == nil
		},
		// The list depth: 0 = unset/flat, 2 = depth-2 split, … roughly
		// monotone in how much nesting the list enables.
		feature: func(c Config) float64 {
			if c.NumThreadsList == "" {
				return 0
			}
			return float64(strings.Count(c.NumThreadsList, ",") + 1)
		}},
	{name: VarMaxActiveLevels, nested: true, optional: true, unset: "0",
		domain:  func(*topology.Machine) []string { return itoas(MaxActiveLevelsValues()) },
		get:     func(c Config) string { return strconv.Itoa(c.MaxActiveLevels) },
		set:     func(c Config, s string) (_ Config, ok bool) { c.MaxActiveLevels, ok = atoiCount(s); return c, ok },
		valid:   func(c Config, _ *topology.Machine) bool { return c.MaxActiveLevels >= 0 },
		feature: func(c Config) float64 { return float64(c.MaxActiveLevels) }},
	{name: VarThreadLimit, nested: true, optional: true, unset: "0",
		domain: func(m *topology.Machine) []string { return itoas(ThreadLimits(m)) },
		get:    func(c Config) string { return strconv.Itoa(c.ThreadLimit) },
		set:    func(c Config, s string) (_ Config, ok bool) { c.ThreadLimit, ok = atoiCount(s); return c, ok },
		valid:  func(c Config, _ *topology.Machine) bool { return c.ThreadLimit >= 0 },
		// 0 = unset; the logarithm keeps the scale comparable.
		feature: func(c Config) float64 { return log2i(c.ThreadLimit) }},
	{name: VarPlaces, optional: true, unset: string(topology.PlaceUnset),
		domain: func(*topology.Machine) []string { return stringsOf(PlaceKinds()) },
		get:    func(c Config) string { return string(c.Places) },
		set:    func(c Config, s string) (Config, bool) { c.Places = topology.PlaceKind(s); return c, true },
		valid: func(c Config, _ *topology.Machine) bool {
			return contains(PlaceKinds(), c.Places) || c.Places == topology.PlaceThreads || c.Places == topology.PlaceNUMA
		},
		feature: func(c Config) float64 { return float64(indexOf(PlaceKinds(), c.Places)) }},
	{name: VarProcBind, optional: true, unset: string(BindUnset),
		domain:  func(*topology.Machine) []string { return stringsOf(ProcBinds()) },
		get:     func(c Config) string { return string(c.ProcBind) },
		set:     func(c Config, s string) (Config, bool) { c.ProcBind = ProcBind(s); return c, true },
		valid:   func(c Config, _ *topology.Machine) bool { return contains(ProcBinds(), c.ProcBind) },
		feature: func(c Config) float64 { return float64(indexOf(ProcBinds(), c.ProcBind)) }},
	{name: VarSchedule,
		domain:  func(*topology.Machine) []string { return stringsOf(Schedules()) },
		get:     func(c Config) string { return string(c.Schedule) },
		set:     func(c Config, s string) (Config, bool) { c.Schedule = Schedule(s); return c, true },
		valid:   func(c Config, _ *topology.Machine) bool { return contains(Schedules(), c.Schedule) },
		feature: func(c Config) float64 { return float64(indexOf(Schedules(), c.Schedule)) }},
	{name: VarLibrary,
		domain: func(*topology.Machine) []string { return stringsOf(Libraries()) },
		get:    func(c Config) string { return string(c.Library) },
		set:    func(c Config, s string) (Config, bool) { c.Library = Library(s); return c, true },
		valid: func(c Config, _ *topology.Machine) bool {
			return c.Library == LibSerial || contains(Libraries(), c.Library)
		},
		feature: func(c Config) float64 { return float64(indexOf(Libraries(), c.Library)) }},
	{name: VarBlocktime,
		domain: func(*topology.Machine) []string {
			out := make([]string, 0, 3)
			for _, b := range Blocktimes() {
				out = append(out, blocktimeString(b))
			}
			return out
		},
		get: func(c Config) string { return blocktimeString(c.BlocktimeMS) },
		set: func(c Config, s string) (_ Config, ok bool) {
			if s == "infinite" {
				c.BlocktimeMS = BlocktimeInfinite
				return c, true
			}
			c.BlocktimeMS, ok = atoiCount(s)
			return c, ok
		},
		valid:   func(c Config, _ *topology.Machine) bool { return c.BlocktimeMS >= BlocktimeInfinite },
		feature: func(c Config) float64 { return float64(indexOf(Blocktimes(), c.BlocktimeMS)) }},
	{name: VarForceReduction, optional: true, unset: string(ReductionUnset),
		domain:  func(*topology.Machine) []string { return stringsOf(Reductions()) },
		get:     func(c Config) string { return string(c.ForceReduction) },
		set:     func(c Config, s string) (Config, bool) { c.ForceReduction = Reduction(s); return c, true },
		valid:   func(c Config, _ *topology.Machine) bool { return contains(Reductions(), c.ForceReduction) },
		feature: func(c Config) float64 { return float64(indexOf(Reductions(), c.ForceReduction)) }},
	{name: VarAlignAlloc,
		domain: func(m *topology.Machine) []string { return itoas(m.AlignAllocValues()) },
		get:    func(c Config) string { return strconv.Itoa(c.AlignAlloc) },
		set:    func(c Config, s string) (_ Config, ok bool) { c.AlignAlloc, ok = atoiCount(s); return c, ok },
		valid:  func(c Config, m *topology.Machine) bool { return containsInt(m.AlignAllocValues(), c.AlignAlloc) },
		// log2(bytes), so the scale stays comparable with the index encodings.
		feature: func(c Config) float64 { return log2i(c.AlignAlloc) }},
}

// lookup returns v's row of the table, nil for a name it does not hold.
func lookup(v VarName) *variable {
	for i := range variables {
		if variables[i].name == v {
			return &variables[i]
		}
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
	if row := lookup(v); row != nil {
		return row.feature(c)
	}
	return -1
}

// Set assigns the given value (by string) to variable v, returning an
// updated copy. It is used by the search-space-pruning tuner. Set accepts
// what Parse accepts, plus the unset spelling Values lists for a nesting
// variable; like Parse's, its result is Validate's to check against a
// machine.
func (c Config) Set(v VarName, value string) (Config, error) {
	row := lookup(v)
	if row == nil {
		return c, fmt.Errorf("env: unknown variable %q", v)
	}
	value = strings.ToLower(strings.TrimSpace(value))
	nc, ok := row.set(c, value)
	if !ok {
		return c, row.invalid(value)
	}
	return nc, nil
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
		return row.get(c)
	}
	return ""
}

func blocktimeString(ms int) string {
	if ms == BlocktimeInfinite {
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

func stringsOf[T ~string](dom []T) []string {
	out := make([]string, len(dom))
	for i, d := range dom {
		out[i] = string(d)
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
