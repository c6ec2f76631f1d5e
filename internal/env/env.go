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
	if !contains(PlaceKinds(), c.Places) && c.Places != topology.PlaceThreads && c.Places != topology.PlaceNUMA {
		return fmt.Errorf("env: invalid OMP_PLACES %q", c.Places)
	}
	if !contains(ProcBinds(), c.ProcBind) {
		return fmt.Errorf("env: invalid OMP_PROC_BIND %q", c.ProcBind)
	}
	if !contains(Schedules(), c.Schedule) {
		return fmt.Errorf("env: invalid OMP_SCHEDULE %q", c.Schedule)
	}
	if c.Library != LibSerial && !contains(Libraries(), c.Library) {
		return fmt.Errorf("env: invalid KMP_LIBRARY %q", c.Library)
	}
	if c.BlocktimeMS < BlocktimeInfinite {
		return fmt.Errorf("env: invalid KMP_BLOCKTIME %d", c.BlocktimeMS)
	}
	if !contains(Reductions(), c.ForceReduction) {
		return fmt.Errorf("env: invalid KMP_FORCE_REDUCTION %q", c.ForceReduction)
	}
	if !containsInt(m.AlignAllocValues(), c.AlignAlloc) {
		return fmt.Errorf("env: invalid KMP_ALIGN_ALLOC %d for %s", c.AlignAlloc, m.Arch)
	}
	if c.NumThreadsList != "" {
		if _, err := ParseNumThreadsList(c.NumThreadsList); err != nil {
			return err
		}
	}
	if c.MaxActiveLevels < 0 {
		return fmt.Errorf("env: invalid OMP_MAX_ACTIVE_LEVELS %d", c.MaxActiveLevels)
	}
	if c.ThreadLimit < 0 {
		return fmt.Errorf("env: invalid OMP_THREAD_LIMIT %d", c.ThreadLimit)
	}
	return nil
}

// ParseNumThreadsList parses an OMP_NUM_THREADS value list ("4,2"): one
// positive integer per nesting level, comma-separated. Malformed lists —
// empty entries, non-integers, values below one — are rejected with an
// error naming the offending entry.
func ParseNumThreadsList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("env: OMP_NUM_THREADS list %q has an empty entry", s)
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("env: OMP_NUM_THREADS entry %q: want a positive integer", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// formatThreadList renders a parsed list back to canonical comma-separated
// form (no spaces), the representation stored in Config.NumThreadsList.
func formatThreadList(list []int) string {
	parts := make([]string, len(list))
	for i, n := range list {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// IsDefault reports whether c equals the default configuration on m.
func (c Config) IsDefault(m *topology.Machine) bool { return c == Default(m) }

// Key returns a stable, human-readable identifier for the configuration,
// used as the dataset join key. Nesting fields are appended only when set,
// so flat configurations keep their pre-nesting keys (existing datasets
// stay joinable).
//
// The sweep plan and every search probe key configurations, so the key is
// appended into a stack buffer: the returned string is the only allocation.
func (c Config) Key() string {
	var buf [192]byte // the longest nested-space key is ~130 bytes
	b := append(append(buf[:0], "places="...), c.Places...)
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
	return string(b)
}

// String implements fmt.Stringer with the Key representation.
func (c Config) String() string { return c.Key() }

// Environ renders the configuration as KEY=VALUE strings in the style a user
// would export before launching an application. Unset variables are omitted,
// matching how the study drives the real runtime.
func (c Config) Environ() []string {
	var out []string
	if c.NumThreadsList != "" {
		out = append(out, "OMP_NUM_THREADS="+c.NumThreadsList)
	}
	if c.MaxActiveLevels != 0 {
		out = append(out, "OMP_MAX_ACTIVE_LEVELS="+strconv.Itoa(c.MaxActiveLevels))
	}
	if c.ThreadLimit != 0 {
		out = append(out, "OMP_THREAD_LIMIT="+strconv.Itoa(c.ThreadLimit))
	}
	if c.Places != topology.PlaceUnset {
		out = append(out, "OMP_PLACES="+string(c.Places))
	}
	if c.ProcBind != BindUnset {
		out = append(out, "OMP_PROC_BIND="+string(c.ProcBind))
	}
	out = append(out,
		"OMP_SCHEDULE="+string(c.Schedule),
		"KMP_LIBRARY="+string(c.Library),
		"KMP_BLOCKTIME="+blocktimeString(c.BlocktimeMS),
	)
	if c.ForceReduction != ReductionUnset {
		out = append(out, "KMP_FORCE_REDUCTION="+string(c.ForceReduction))
	}
	out = append(out, "KMP_ALIGN_ALLOC="+strconv.Itoa(c.AlignAlloc))
	return out
}

// Parse builds a Config from KEY=VALUE pairs (or a process-style environment
// slice), applying the default rules of Default(m) for absent keys.
func Parse(m *topology.Machine, environ []string) (Config, error) {
	c := Default(m)
	for _, kv := range environ {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Config{}, fmt.Errorf("env: malformed entry %q", kv)
		}
		val = strings.TrimSpace(strings.ToLower(val))
		switch strings.ToUpper(strings.TrimSpace(key)) {
		case "OMP_NUM_THREADS":
			list, err := ParseNumThreadsList(val)
			if err != nil {
				return Config{}, err
			}
			c.NumThreadsList = formatThreadList(list)
		case "OMP_MAX_ACTIVE_LEVELS":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("env: invalid OMP_MAX_ACTIVE_LEVELS %q", val)
			}
			c.MaxActiveLevels = n
		case "OMP_THREAD_LIMIT":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Config{}, fmt.Errorf("env: invalid OMP_THREAD_LIMIT %q", val)
			}
			c.ThreadLimit = n
		case "OMP_PLACES":
			c.Places = topology.PlaceKind(val)
		case "OMP_PROC_BIND":
			c.ProcBind = ProcBind(val)
		case "OMP_SCHEDULE":
			c.Schedule = Schedule(val)
		case "KMP_LIBRARY":
			c.Library = Library(val)
		case "KMP_BLOCKTIME":
			if val == "infinite" {
				c.BlocktimeMS = BlocktimeInfinite
			} else {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return Config{}, fmt.Errorf("env: invalid KMP_BLOCKTIME %q", val)
				}
				c.BlocktimeMS = n
			}
		case "KMP_FORCE_REDUCTION":
			c.ForceReduction = Reduction(val)
		case "KMP_ALIGN_ALLOC":
			n, err := strconv.Atoi(val)
			if err != nil {
				return Config{}, fmt.Errorf("env: invalid KMP_ALIGN_ALLOC %q", val)
			}
			c.AlignAlloc = n
		default:
			// Foreign variables are ignored, as a real runtime would.
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

// SpaceSize returns len(Space(m)) without materializing it.
func SpaceSize(m *topology.Machine) int {
	return len(PlaceKinds()) * len(ProcBinds()) * len(Schedules()) *
		len(Libraries()) * len(Blocktimes()) * len(Reductions()) * len(m.AlignAllocValues())
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
func Names() []VarName {
	return []VarName{VarPlaces, VarProcBind, VarSchedule, VarLibrary,
		VarBlocktime, VarForceReduction, VarAlignAlloc}
}

// NestedNames returns the nesting-axis variable order, appended after
// Names() when a sweep enables the nesting dimension.
func NestedNames() []VarName {
	return []VarName{VarNumThreads, VarMaxActiveLevels, VarThreadLimit}
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

// Feature returns the naive ordinal encoding of variable v in c (§IV-D uses
// a naive numeric scheme). The encoding is the index within the swept
// domain; alignment is encoded as log2(bytes) so the scale stays comparable.
func (c Config) Feature(v VarName) float64 {
	switch v {
	case VarPlaces:
		return float64(indexOf(PlaceKinds(), c.Places))
	case VarProcBind:
		return float64(indexOf(ProcBinds(), c.ProcBind))
	case VarSchedule:
		return float64(indexOf(Schedules(), c.Schedule))
	case VarLibrary:
		return float64(indexOf(Libraries(), c.Library))
	case VarBlocktime:
		return float64(indexOf(Blocktimes(), c.BlocktimeMS))
	case VarForceReduction:
		return float64(indexOf(Reductions(), c.ForceReduction))
	case VarAlignAlloc:
		return log2i(c.AlignAlloc)
	case VarNumThreads:
		// Encoded as the list depth: 0 = unset/flat, 2 = depth-2 split, …
		// roughly monotone in how much nesting the list enables.
		if c.NumThreadsList == "" {
			return 0
		}
		return float64(strings.Count(c.NumThreadsList, ",") + 1)
	case VarMaxActiveLevels:
		return float64(c.MaxActiveLevels)
	case VarThreadLimit:
		return log2i(c.ThreadLimit) // 0 = unset; log keeps the scale comparable
	default:
		return -1
	}
}

// Set assigns the given domain value (by string) to variable v, returning an
// updated copy. It is used by the search-space-pruning tuner.
func (c Config) Set(v VarName, value string) (Config, error) {
	value = strings.ToLower(strings.TrimSpace(value))
	switch v {
	case VarPlaces:
		c.Places = topology.PlaceKind(value)
	case VarProcBind:
		c.ProcBind = ProcBind(value)
	case VarSchedule:
		c.Schedule = Schedule(value)
	case VarLibrary:
		c.Library = Library(value)
	case VarBlocktime:
		if value == "infinite" {
			c.BlocktimeMS = BlocktimeInfinite
		} else {
			n, err := strconv.Atoi(value)
			if err != nil {
				return c, fmt.Errorf("env: bad blocktime %q", value)
			}
			c.BlocktimeMS = n
		}
	case VarForceReduction:
		c.ForceReduction = Reduction(value)
	case VarAlignAlloc:
		n, err := strconv.Atoi(value)
		if err != nil {
			return c, fmt.Errorf("env: bad alignment %q", value)
		}
		c.AlignAlloc = n
	case VarNumThreads:
		if value == "" || value == "unset" {
			c.NumThreadsList = ""
			break
		}
		list, err := ParseNumThreadsList(value)
		if err != nil {
			return c, err
		}
		c.NumThreadsList = formatThreadList(list)
	case VarMaxActiveLevels:
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return c, fmt.Errorf("env: bad max active levels %q", value)
		}
		c.MaxActiveLevels = n
	case VarThreadLimit:
		n, err := strconv.Atoi(value)
		if err != nil || n < 0 {
			return c, fmt.Errorf("env: bad thread limit %q", value)
		}
		c.ThreadLimit = n
	default:
		return c, fmt.Errorf("env: unknown variable %q", v)
	}
	return c, nil
}

// Values returns the swept string domain of variable v on machine m, in
// sweep order.
func Values(m *topology.Machine, v VarName) []string {
	switch v {
	case VarPlaces:
		return stringsOf(PlaceKinds())
	case VarProcBind:
		return stringsOf(ProcBinds())
	case VarSchedule:
		return stringsOf(Schedules())
	case VarLibrary:
		return stringsOf(Libraries())
	case VarBlocktime:
		out := make([]string, 0, 3)
		for _, b := range Blocktimes() {
			out = append(out, blocktimeString(b))
		}
		return out
	case VarForceReduction:
		return stringsOf(Reductions())
	case VarAlignAlloc:
		out := make([]string, 0, 4)
		for _, a := range m.AlignAllocValues() {
			out = append(out, strconv.Itoa(a))
		}
		return out
	case VarNumThreads:
		return NumThreadsLists(m)
	case VarMaxActiveLevels:
		out := make([]string, 0, 3)
		for _, v := range MaxActiveLevelsValues() {
			out = append(out, strconv.Itoa(v))
		}
		return out
	case VarThreadLimit:
		out := make([]string, 0, 3)
		for _, v := range ThreadLimits(m) {
			out = append(out, strconv.Itoa(v))
		}
		return out
	default:
		return nil
	}
}

// Value returns the string value of variable v in configuration c.
func (c Config) Value(v VarName) string {
	switch v {
	case VarPlaces:
		return string(c.Places)
	case VarProcBind:
		return string(c.ProcBind)
	case VarSchedule:
		return string(c.Schedule)
	case VarLibrary:
		return string(c.Library)
	case VarBlocktime:
		return blocktimeString(c.BlocktimeMS)
	case VarForceReduction:
		return string(c.ForceReduction)
	case VarAlignAlloc:
		return strconv.Itoa(c.AlignAlloc)
	case VarNumThreads:
		return c.NumThreadsList
	case VarMaxActiveLevels:
		return strconv.Itoa(c.MaxActiveLevels)
	case VarThreadLimit:
		return strconv.Itoa(c.ThreadLimit)
	default:
		return ""
	}
}

func blocktimeString(ms int) string {
	if ms == BlocktimeInfinite {
		return "infinite"
	}
	return strconv.Itoa(ms)
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
