// Package openmp is a from-scratch, goroutine-based runtime library that
// mirrors the execution model and tuning surface of the LLVM/OpenMP CPU
// runtime: fork–join parallel regions, worksharing loops with the four
// standard schedules, explicit tasking with work stealing, tree / critical /
// atomic reductions, and the implementation-defined controls KMP_LIBRARY,
// KMP_BLOCKTIME, KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC.
//
// The package is self-contained so it can be adopted independently of the
// tuning study built on top of it. Configuration arrives either through an
// Options struct or by parsing OMP_*/KMP_* environment entries with
// OptionsFromEnviron.
package openmp

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
)

// ScheduleKind selects how worksharing-loop iterations are divided among
// threads (OMP_SCHEDULE).
type ScheduleKind int

// Worksharing schedules. ScheduleAuto delegates the choice to the runtime,
// which — like LLVM/OpenMP — resolves it to static.
const (
	ScheduleStatic ScheduleKind = iota
	ScheduleDynamic
	ScheduleGuided
	ScheduleAuto
)

// String returns the OMP_SCHEDULE spelling of the kind.
func (s ScheduleKind) String() string {
	switch s {
	case ScheduleStatic:
		return "static"
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleGuided:
		return "guided"
	case ScheduleAuto:
		return "auto"
	}
	return fmt.Sprintf("ScheduleKind(%d)", int(s))
}

// ParseSchedule parses an OMP_SCHEDULE kind (an optional ",chunk" suffix is
// accepted and returned separately; chunk 0 means unspecified).
func ParseSchedule(s string) (ScheduleKind, int, error) {
	kind, chunkStr, hasChunk := strings.Cut(strings.ToLower(strings.TrimSpace(s)), ",")
	chunk := 0
	if hasChunk {
		n, err := strconv.Atoi(strings.TrimSpace(chunkStr))
		if err != nil || n < 1 {
			return 0, 0, fmt.Errorf("openmp: invalid schedule chunk %q", chunkStr)
		}
		chunk = n
	}
	switch strings.TrimSpace(kind) {
	case "static":
		return ScheduleStatic, chunk, nil
	case "dynamic":
		return ScheduleDynamic, chunk, nil
	case "guided":
		return ScheduleGuided, chunk, nil
	case "auto":
		return ScheduleAuto, chunk, nil
	}
	return 0, 0, fmt.Errorf("openmp: unknown schedule %q", kind)
}

// BindPolicy is the OMP_PROC_BIND affinity policy applied when a team forks.
type BindPolicy int

// Binding policies. BindDefault resolves to BindNone unless places are
// configured, in which case it resolves to BindSpread — the same derivation
// the LLVM runtime applies.
const (
	BindDefault BindPolicy = iota
	BindNone               // "false": threads float between places
	BindTrue               // "true": bind without changing the assignment policy
	BindMaster             // all threads on the primary thread's place
	BindClose              // pack threads on places near the primary
	BindSpread             // spread threads across places
)

// String returns the OMP_PROC_BIND spelling of the policy.
func (b BindPolicy) String() string {
	switch b {
	case BindDefault:
		return "unset"
	case BindNone:
		return "false"
	case BindTrue:
		return "true"
	case BindMaster:
		return "master"
	case BindClose:
		return "close"
	case BindSpread:
		return "spread"
	}
	return fmt.Sprintf("BindPolicy(%d)", int(b))
}

// ParseBind parses an OMP_PROC_BIND value. "primary" is accepted as the
// non-deprecated spelling of "master".
func ParseBind(s string) (BindPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "unset":
		return BindDefault, nil
	case "false":
		return BindNone, nil
	case "true":
		return BindTrue, nil
	case "master", "primary":
		return BindMaster, nil
	case "close":
		return BindClose, nil
	case "spread":
		return BindSpread, nil
	}
	return 0, fmt.Errorf("openmp: unknown proc_bind %q", s)
}

// Resolve applies the OMP_PROC_BIND default rule: BindDefault is BindNone
// unless places are set, in which case it is BindSpread. Any other policy
// resolves to itself.
func (b BindPolicy) Resolve(placesSet bool) BindPolicy {
	switch {
	case b != BindDefault:
		return b
	case placesSet:
		return BindSpread
	}
	return BindNone
}

// LibraryMode is the KMP_LIBRARY execution mode.
type LibraryMode int

// Execution modes. Turnaround assumes a dedicated machine and keeps workers
// spinning; throughput shares the machine and lets workers sleep after the
// blocktime; serial disables worker threads entirely.
const (
	LibThroughput LibraryMode = iota
	LibTurnaround
	LibSerial
)

// String returns the KMP_LIBRARY spelling of the mode.
func (l LibraryMode) String() string {
	switch l {
	case LibThroughput:
		return "throughput"
	case LibTurnaround:
		return "turnaround"
	case LibSerial:
		return "serial"
	}
	return fmt.Sprintf("LibraryMode(%d)", int(l))
}

// ParseLibrary parses a KMP_LIBRARY value.
func ParseLibrary(s string) (LibraryMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "throughput":
		return LibThroughput, nil
	case "turnaround":
		return LibTurnaround, nil
	case "serial":
		return LibSerial, nil
	}
	return 0, fmt.Errorf("openmp: unknown library mode %q", s)
}

// Blocktime resolves the spin budget a blocktime of ms gives under the mode:
// turnaround dedicates the machine and spins forever, which the real runtime
// expresses by deriving OMP_WAIT_POLICY from KMP_LIBRARY and KMP_BLOCKTIME
// together; the other modes keep ms.
func (l LibraryMode) Blocktime(ms int) int {
	if l == LibTurnaround {
		return BlocktimeInfinite
	}
	return ms
}

// ReductionMethod is the KMP_FORCE_REDUCTION cross-thread reduction method.
type ReductionMethod int

// Reduction methods. ReductionDefault applies the runtime heuristic: one
// thread needs no synchronization, 2–4 threads use the critical method, and
// larger teams use the tree method.
const (
	ReductionDefault ReductionMethod = iota
	ReductionTree
	ReductionCritical
	ReductionAtomic
)

// String returns the KMP_FORCE_REDUCTION spelling of the method.
func (r ReductionMethod) String() string {
	switch r {
	case ReductionDefault:
		return "unset"
	case ReductionTree:
		return "tree"
	case ReductionCritical:
		return "critical"
	case ReductionAtomic:
		return "atomic"
	}
	return fmt.Sprintf("ReductionMethod(%d)", int(r))
}

// ParseReduction parses a KMP_FORCE_REDUCTION value.
func ParseReduction(s string) (ReductionMethod, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "unset":
		return ReductionDefault, nil
	case "tree":
		return ReductionTree, nil
	case "critical":
		return ReductionCritical, nil
	case "atomic":
		return ReductionAtomic, nil
	}
	return 0, fmt.Errorf("openmp: unknown reduction method %q", s)
}

// Resolve applies the KMP_FORCE_REDUCTION heuristic to ReductionDefault for
// a team of threads: one thread needs no synchronization (tree degenerates
// to it), 2–4 threads use critical, larger teams the tree method. A forced
// method resolves to itself.
func (r ReductionMethod) Resolve(threads int) ReductionMethod {
	switch {
	case r != ReductionDefault:
		return r
	case threads > 1 && threads <= 4:
		return ReductionCritical
	}
	return ReductionTree
}

// BlocktimeInfinite keeps waiting threads spinning forever — between
// regions and at barriers alike (KMP_BLOCKTIME=infinite).
const BlocktimeInfinite = -1

// DefaultBlocktimeMS is the KMP_BLOCKTIME of an unset variable.
const DefaultBlocktimeMS = 200

// Options configures a Runtime. The zero value is NOT ready to use; call
// DefaultOptions (or fill every field) to obtain the library defaults.
type Options struct {
	// NumThreads is the team size of parallel regions. Defaults to
	// runtime.NumCPU().
	NumThreads int
	// Schedule and ChunkSize control worksharing loops; ChunkSize 0 lets the
	// runtime pick (static: block partition; dynamic/guided: 1).
	Schedule  ScheduleKind
	ChunkSize int
	// Bind and Places control the logical thread placement bookkeeping.
	// Binding in this runtime is advisory — goroutines cannot be pinned to
	// cores — but the assignment is computed with the same algorithm the
	// real runtime uses and is observable through Runtime.Placement.
	Bind   BindPolicy
	Places []PlaceSpec
	// PlaceDistances optionally gives the pairwise distance between Places
	// (PlaceDistances[i][j], in SLIT-style units where a place's
	// self-distance is its minimum). When provided and threads are bound,
	// task stealing tries NUMA-near victims before far ones and the Stats
	// steal-locality breakdown becomes meaningful. Leave empty for uniform
	// (rotating-scan) stealing; topology.Machine.PlaceDistanceMatrix builds
	// one from a machine model.
	PlaceDistances [][]float64
	// Library selects the execution mode (see LibraryMode).
	Library LibraryMode
	// BlocktimeMS is how long, in milliseconds, a waiting thread spins
	// before sleeping — both workers idling between regions and threads
	// waiting at a team barrier. BlocktimeInfinite disables sleeping.
	// Turnaround mode overrides this to BlocktimeInfinite, mirroring the
	// OMP_WAIT_POLICY derivation in the LLVM runtime.
	BlocktimeMS int
	// Reduction forces a reduction method (ReductionDefault = heuristic).
	Reduction ReductionMethod
	// AlignAlloc is the byte alignment of Runtime-allocated buffers
	// (KMP_ALIGN_ALLOC). Must be a power of two >= 8. Defaults to 64.
	AlignAlloc int
	// ThreadsPerLevel is the per-nesting-level team width list from an
	// OMP_NUM_THREADS value list ("4,2"): level 0 regions use entry 0,
	// their inner regions entry 1, and deeper levels reuse the last entry.
	// Empty means every level uses NumThreads. When set, entry 0 should
	// match NumThreads (OptionsFromEnviron keeps them consistent).
	ThreadsPerLevel []int
	// MaxActiveLevels is OMP_MAX_ACTIVE_LEVELS: how many nesting levels may
	// run with more than one thread. 0 (unset) derives the default from
	// ThreadsPerLevel — a multi-entry list enables as many levels as it has
	// entries, otherwise only level 0 is active and inner regions
	// serialize, matching the disabled-nesting default of the real runtime.
	MaxActiveLevels int
	// ThreadLimit is OMP_THREAD_LIMIT: an upper bound on the live threads
	// of the whole contention group (outer team plus every nested team).
	// 0 means unlimited. The outer team is clamped to it; nested forks
	// draw from the remaining budget and serialize gracefully when it runs
	// out.
	ThreadLimit int
}

// DefaultOptions returns the library defaults used when a variable is unset:
// as many threads as CPUs, static schedule, no binding, throughput mode,
// a 200 ms blocktime, the heuristic reduction, and 64-byte alignment.
func DefaultOptions() Options {
	return Options{
		NumThreads:  runtime.NumCPU(),
		Schedule:    ScheduleStatic,
		Bind:        BindDefault,
		Library:     LibThroughput,
		BlocktimeMS: DefaultBlocktimeMS,
		Reduction:   ReductionDefault,
		AlignAlloc:  64,
	}
}

// OptionsFromEnviron builds Options from KEY=VALUE entries, starting from
// DefaultOptions. Recognized keys: OMP_NUM_THREADS (a single count or a
// per-nesting-level comma list like "4,2"), OMP_MAX_ACTIVE_LEVELS,
// OMP_THREAD_LIMIT, OMP_SCHEDULE, OMP_PROC_BIND, OMP_PLACES, KMP_LIBRARY,
// KMP_BLOCKTIME, KMP_FORCE_REDUCTION, KMP_ALIGN_ALLOC. Unknown keys are
// ignored.
func OptionsFromEnviron(environ []string) (Options, error) {
	o := DefaultOptions()
	for _, kv := range environ {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Options{}, fmt.Errorf("openmp: malformed environment entry %q", kv)
		}
		var err error
		switch strings.ToUpper(strings.TrimSpace(key)) {
		case "OMP_NUM_THREADS":
			var list []int
			list, err = ParseThreadList(val)
			if err == nil {
				o.NumThreads = list[0]
				o.ThreadsPerLevel = nil
				if len(list) > 1 {
					o.ThreadsPerLevel = list
				}
			}
		case "OMP_MAX_ACTIVE_LEVELS":
			o.MaxActiveLevels, err = strconv.Atoi(strings.TrimSpace(val))
			if err != nil || o.MaxActiveLevels < 1 {
				err = fmt.Errorf("openmp: OMP_MAX_ACTIVE_LEVELS %q: want a positive integer", val)
			}
		case "OMP_THREAD_LIMIT":
			o.ThreadLimit, err = strconv.Atoi(strings.TrimSpace(val))
			if err != nil || o.ThreadLimit < 1 {
				err = fmt.Errorf("openmp: OMP_THREAD_LIMIT %q: want a positive integer", val)
			}
		case "OMP_SCHEDULE":
			o.Schedule, o.ChunkSize, err = ParseSchedule(val)
		case "OMP_PROC_BIND":
			o.Bind, err = ParseBind(val)
		case "OMP_PLACES":
			o.Places, err = ParsePlaces(val)
		case "KMP_LIBRARY":
			o.Library, err = ParseLibrary(val)
		case "KMP_BLOCKTIME":
			v := strings.ToLower(strings.TrimSpace(val))
			if v == "infinite" {
				o.BlocktimeMS = BlocktimeInfinite
			} else {
				o.BlocktimeMS, err = strconv.Atoi(v)
				if err == nil && o.BlocktimeMS < 0 {
					err = fmt.Errorf("openmp: KMP_BLOCKTIME must be >= 0")
				}
			}
		case "KMP_FORCE_REDUCTION":
			o.Reduction, err = ParseReduction(val)
		case "KMP_ALIGN_ALLOC":
			o.AlignAlloc, err = strconv.Atoi(strings.TrimSpace(val))
		}
		if err != nil {
			return Options{}, err
		}
	}
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

// ParseThreadList parses an OMP_NUM_THREADS value: a single thread count or
// a comma-separated per-nesting-level list ("4,2"). Every entry must be a
// positive integer; empty entries ("4,,2", a trailing comma) are rejected
// with a clear error.
func ParseThreadList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("openmp: OMP_NUM_THREADS list %q has an empty entry", s)
		}
		n, err := strconv.Atoi(p)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("openmp: OMP_NUM_THREADS entry %q: want a positive integer", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func (o Options) validate() error {
	if o.NumThreads < 1 {
		return fmt.Errorf("openmp: NumThreads %d < 1", o.NumThreads)
	}
	for _, n := range o.ThreadsPerLevel {
		if n < 1 {
			return fmt.Errorf("openmp: ThreadsPerLevel entry %d < 1", n)
		}
	}
	if o.MaxActiveLevels < 0 {
		return fmt.Errorf("openmp: MaxActiveLevels %d < 0", o.MaxActiveLevels)
	}
	if o.ThreadLimit < 0 {
		return fmt.Errorf("openmp: ThreadLimit %d < 0", o.ThreadLimit)
	}
	if o.AlignAlloc < 8 || o.AlignAlloc&(o.AlignAlloc-1) != 0 {
		return fmt.Errorf("openmp: AlignAlloc %d is not a power of two >= 8", o.AlignAlloc)
	}
	if o.BlocktimeMS < BlocktimeInfinite {
		return fmt.Errorf("openmp: BlocktimeMS %d invalid", o.BlocktimeMS)
	}
	if o.ChunkSize < 0 {
		return fmt.Errorf("openmp: ChunkSize %d < 0", o.ChunkSize)
	}
	if len(o.PlaceDistances) > 0 {
		if len(o.PlaceDistances) != len(o.Places) {
			return fmt.Errorf("openmp: PlaceDistances is %d×…, want %d×%d to match Places",
				len(o.PlaceDistances), len(o.Places), len(o.Places))
		}
		for i, row := range o.PlaceDistances {
			if len(row) != len(o.Places) {
				return fmt.Errorf("openmp: PlaceDistances row %d has %d entries, want %d",
					i, len(row), len(o.Places))
			}
		}
	}
	return nil
}

// effectiveMaxActiveLevels resolves MaxActiveLevels 0: a multi-entry
// OMP_NUM_THREADS list opts into as many active levels as it has entries;
// otherwise nesting stays serialized (one active level), the same default
// as the real runtime with nesting disabled.
func (o Options) effectiveMaxActiveLevels() int {
	if o.MaxActiveLevels > 0 {
		return o.MaxActiveLevels
	}
	if len(o.ThreadsPerLevel) > 1 {
		return len(o.ThreadsPerLevel)
	}
	return 1
}

// widthForLevel is the requested team width for a region at the given
// nesting level (before budget clamping): the level's ThreadsPerLevel
// entry, the last entry for deeper levels, or NumThreads without a list.
func (o Options) widthForLevel(level int) int {
	if len(o.ThreadsPerLevel) == 0 {
		return o.NumThreads
	}
	if level < len(o.ThreadsPerLevel) {
		return o.ThreadsPerLevel[level]
	}
	return o.ThreadsPerLevel[len(o.ThreadsPerLevel)-1]
}

// peakThreads is how many threads a runtime whose outer team is n wide runs
// at once when every nesting level OMP_MAX_ACTIVE_LEVELS allows forks its
// requested width, capped by OMP_THREAD_LIMIT. Its only use is the wait
// policy's oversubscription test, where a miscount costs a bounded spin.
func (o Options) peakThreads(n int) int {
	levels := o.effectiveMaxActiveLevels()
	if o.Library == LibSerial {
		levels = 1
	}
	for level := 1; level < levels && n <= budgetUnlimited; level++ {
		w := o.widthForLevel(level)
		if w == 1 && level >= len(o.ThreadsPerLevel) {
			break // every deeper level is as narrow
		}
		n *= min(w, budgetUnlimited)
	}
	if o.ThreadLimit > 0 {
		n = min(n, o.ThreadLimit)
	}
	return n
}
