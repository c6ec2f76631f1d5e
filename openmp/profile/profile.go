// Package profile implements a streaming per-region efficiency profiler for
// the openmp runtime. It aggregates POP-style efficiency metrics online —
// parallel efficiency, load balance, barrier-wait share, scheduling-overhead
// share, steal rate and locality split, parks/wakes — per region, keyed by
// construct identity (the program counter of the Parallel call site) and
// nesting level, so LUNest/TreeNest inner regions never alias their
// enclosing region's numbers.
//
// The per-region record is one type, Sums, and it is added to in one place,
// Sums.Add; its metrics are derived in one place too, Sums.Derive, which
// the trace summary calls for its regions as well. Data flows in three
// stages:
//
//  1. While a region runs, each thread writes timestamps and counters into
//     its own padded Scratch slot, which its team owns (one per thread,
//     built with the team, so every thread of every team has one) —
//     owner-written only, so recording is plain stores with no sharing.
//  2. At region quiescence (the primary thread has passed the join barrier,
//     so every worker's scratch writes happen-before by the barrier's
//     release/acquire edges) the primary folds the team's scratch into one
//     Sums: busy time from the arrival stamps, barrier wait as fold-time
//     minus arrival, arrival imbalance as the arrival spread.
//  3. That Sums is added to the region's row of the table, a map from the
//     packed (pc, level) key to *Sums under one mutex — one short critical
//     section per region instance, shared only with folds of nested teams
//     and with Snapshot, which copies the rows under the same lock.
//
// A key's first fold allocates its row; every later fold of it allocates
// nothing, so steady state is 0 allocs per region with the profiler on. The
// table holds at most tableSize rows; folds of further keys are counted in
// Report.Dropped.
//
// Scratch slots carry the region id they were stamped for; a fold skips
// (and counts as missing) any slot whose stamp does not match, so a thread
// that did not stamp the region it is folded for — a fault, since the
// runtime hands every region one observer snapshot — is discarded, never
// misattributed.
//
// Snapshot resolves construct PCs to function names and source lines (cold
// path, allocates freely) and derives the efficiency metrics; Report can
// render itself as a table, JSON, or collapsed flamegraph stacks.
package profile

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tableSize is the region-table capacity. Distinct (call site, level) pairs
// beyond it are counted in Dropped.
const tableSize = 512

// Sums is the per-region record: the raw accumulators of one (call site,
// level) over every instance folded so far. It is what a thread's scratch
// slot counts into, what a fold adds to the table, what an Aggregator merges
// across runtimes and what a RegionProfile reports; the derived metrics are
// functions of it (Derive).
type Sums struct {
	Count   int64 `json:"count"`             // region instances
	Threads int   `json:"threads"`           // widest team seen
	Samples int64 `json:"samples"`           // thread-samples attributed
	Missing int64 `json:"missing,omitempty"` // thread-samples discarded (stale stamp)

	WallNS        int64 `json:"wall_ns"`         // Σ fork-to-join wall
	ThreadNS      int64 `json:"thread_ns"`       // Σ wall × attributed threads
	BusyNS        int64 `json:"busy_ns"`         // Σ implicit-task time (start→arrival)
	MaxBusyNS     int64 `json:"max_busy_ns"`     // Σ per-region max thread busy
	ImbalanceNS   int64 `json:"imbalance_ns"`    // Σ per-region arrival spread (max−min)
	SchedNS       int64 `json:"sched_ns"`        // Σ chunk-claim overhead
	ExplicitBarNS int64 `json:"explicit_bar_ns"` // Σ mid-region barrier wait
	FinalBarNS    int64 `json:"final_bar_ns"`    // Σ end-of-region barrier wait (fold − arrival)

	Chunks       int64 `json:"chunks"`
	TasksCreated int64 `json:"tasks_created"`
	TasksRun     int64 `json:"tasks_run"`
	TasksStolen  int64 `json:"tasks_stolen"`
	StealBatches int64 `json:"steal_batches"`
	StealsLocal  int64 `json:"steals_local"`
	StealsRemote int64 `json:"steals_remote"`
	Parks        int64 `json:"parks"`
	Wakes        int64 `json:"wakes"`
}

// BarrierNS is the total barrier wait: explicit mid-region barriers plus
// the end-of-region join barrier.
func (s *Sums) BarrierNS() int64 { return s.ExplicitBarNS + s.FinalBarNS }

// Add merges o into s: every field sums except Threads, which keeps the
// widest team seen.
func (s *Sums) Add(o *Sums) {
	s.Count += o.Count
	s.Threads = max(s.Threads, o.Threads)
	s.Samples += o.Samples
	s.Missing += o.Missing
	s.WallNS += o.WallNS
	s.ThreadNS += o.ThreadNS
	s.BusyNS += o.BusyNS
	s.MaxBusyNS += o.MaxBusyNS
	s.ImbalanceNS += o.ImbalanceNS
	s.SchedNS += o.SchedNS
	s.ExplicitBarNS += o.ExplicitBarNS
	s.FinalBarNS += o.FinalBarNS
	s.Chunks += o.Chunks
	s.TasksCreated += o.TasksCreated
	s.TasksRun += o.TasksRun
	s.TasksStolen += o.TasksStolen
	s.StealBatches += o.StealBatches
	s.StealsLocal += o.StealsLocal
	s.StealsRemote += o.StealsRemote
	s.Parks += o.Parks
	s.Wakes += o.Wakes
}

// Scratch is one thread's recording slot for the region its team is running:
// a team owns one per thread (openmp's Team.prof), the thread writes only its
// own, and the team primary reads them all only after the end-of-region
// barrier's happens-before edge. The runtime counts into Sums (overheads,
// chunks, tasks, steals, parks); the fields a fold derives from the stamps
// stay zero there. Padded to four cache lines so neighbouring threads'
// slots never false-share.
type Scratch struct {
	Region   uint64 // region id the slot was stamped for (fold guard)
	StartNS  int64  // implicit-task start
	ArriveNS int64  // arrival at the end-of-region barrier
	Sums     Sums

	_ [256 - 24*8]byte
}

// table is the region table of a Profiler or an Aggregator: one row of Sums
// per packed (call site, level) key, at most tableSize of them, under one
// lock. dropped counts what was not attributed — folds that found the table
// full and, for a profiler, levels the key cannot hold.
type table struct {
	mu      sync.Mutex
	rows    map[uint64]*Sums
	dropped atomic.Uint64
}

// add merges one region's sums into its row, allocating the row at the key's
// first fold; past capacity the fold is dropped and counted.
func (t *table) add(key uint64, s *Sums) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := t.rows[key]
	if row == nil {
		if len(t.rows) >= tableSize {
			t.dropped.Add(1)
			return
		}
		if t.rows == nil {
			t.rows = make(map[uint64]*Sums)
		}
		row = new(Sums)
		t.rows[key] = row
	}
	row.Add(s)
}

// Snapshot renders the table into a Report, resolving call sites to
// function names and source lines. Cold path: safe to call while folds
// continue; each row is copied whole under the table's lock, so a row never
// mixes two folds. Rows of equal thread-time and level keep key order.
func (t *table) Snapshot() *Report {
	type keyed struct {
		key  uint64
		sums Sums
	}
	t.mu.Lock()
	rows := make([]keyed, 0, len(t.rows))
	for key, row := range t.rows {
		rows = append(rows, keyed{key, *row})
	}
	t.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })

	r := &Report{Dropped: t.dropped.Load(), Regions: make([]RegionProfile, len(rows))}
	for i, row := range rows {
		pc := uintptr(row.key >> 8)
		rp := &r.Regions[i]
		*rp = RegionProfile{PC: fmt.Sprintf("%#x", pc), Level: int(row.key & 0xff), Sums: row.sums}
		rp.Name, rp.File, rp.Line = resolvePC(pc)
		rp.Derived = rp.Derive()
	}
	r.sort()
	return r
}

// Profiler collects per-region efficiency data for one runtime. Create one
// with New (Runtime.StartProfile does, and attaches it) and snapshot with
// Runtime.Profile. The runtime records into its teams' Scratch slots on this
// profiler's clock and hands each finished region to Fold; nothing allocates
// but a call site's first Fold (its table row).
type Profiler struct {
	start time.Time
	table
}

// New builds a profiler whose clock starts now.
func New() *Profiler { return &Profiler{start: time.Now()} }

// Now returns the profiler's monotonic clock reading in nanoseconds.
func (p *Profiler) Now() int64 { return int64(time.Since(p.start)) }

// packKey builds the table key for a call site and level.
func packKey(pc uintptr, level int) uint64 {
	return uint64(pc)<<8 | uint64(level)
}

// Fold merges one finished region instance into its table row. It must be
// called by the region's primary thread after it has passed the join
// barrier (region quiescence): every worker's scratch writes then
// happen-before this read. slots are the team's Scratch slots in thread
// order; forkNS is the profiler-clock reading taken at dispatch. A slot not
// stamped for region is counted as missing, never attributed, and a level
// that does not fit the key's low 8 bits is counted in Dropped.
func (p *Profiler) Fold(pc uintptr, level int, region uint64, forkNS int64, slots []Scratch) {
	if uint(level) > 0xff {
		p.dropped.Add(1)
		return
	}
	now := p.Now()
	wall := max(now-forkNS, 0)

	s := Sums{Count: 1, Threads: len(slots), WallNS: wall}
	var minArr, maxArr int64
	for i := range slots {
		sc := &slots[i]
		if sc.Region != region {
			s.Missing++
			continue
		}
		busy := max(sc.ArriveNS-sc.StartNS, 0)
		if s.Samples == 0 || sc.ArriveNS < minArr {
			minArr = sc.ArriveNS
		}
		if s.Samples == 0 || sc.ArriveNS > maxArr {
			maxArr = sc.ArriveNS
		}
		s.Add(&sc.Sums) // what the runtime counted for the thread
		s.BusyNS += busy
		s.MaxBusyNS = max(s.MaxBusyNS, busy)
		s.FinalBarNS += max(now-sc.ArriveNS, 0)
		s.Samples++
	}
	s.ThreadNS = wall * s.Samples
	s.ImbalanceNS = maxArr - minArr
	p.add(packKey(pc, level), &s)
}

// resolvePC maps a Parallel call-site pc to (function, file, line), with
// inlining expanded the way runtime.CallersFrames does.
func resolvePC(pc uintptr) (name, file string, line int) {
	if pc == 0 {
		return "unknown", "", 0
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	f, _ := frames.Next()
	if f.Function == "" {
		return "unknown", "", 0
	}
	return f.Function, shortFile(f.File), f.Line
}

// shortFile trims a source path to its last two components.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
