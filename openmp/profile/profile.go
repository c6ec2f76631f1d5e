// Package profile implements a streaming per-region efficiency profiler for
// the openmp runtime. It aggregates POP-style efficiency metrics online —
// parallel efficiency, load balance, barrier-wait share, scheduling-overhead
// share, steal rate and locality split, parks/wakes — per region, keyed by
// construct identity (the program counter of the Parallel call site) and
// nesting level, so LUNest/TreeNest inner regions never alias their
// enclosing region's numbers.
//
// Data flows in three stages, none of which allocates on the hot path:
//
//  1. While a region runs, each thread writes timestamps and counters into
//     its own padded scratch slot — one slot per (global thread id, nesting
//     level), owner-written only, so recording is plain stores with no
//     sharing.
//  2. At region quiescence (the primary thread has passed the join barrier,
//     so every worker's scratch writes happen-before by the barrier's
//     release/acquire edges) the primary folds the team's scratch into the
//     region's table entry: busy time from the arrival stamps, barrier wait
//     as fold-time minus arrival, arrival imbalance as the arrival spread.
//  3. The table is a fixed-capacity open-addressed map whose entries are
//     claimed by CAS on the packed (pc, level) key and accumulated with
//     atomic adds, so concurrent folds from nested teams never lock.
//
// Scratch slots carry the region id they were stamped for; a fold skips
// (and counts as missing) any slot whose stamp does not match, which makes
// mid-region attach/detach of the profiler safe — stale data is discarded,
// never misattributed.
//
// Snapshot resolves construct PCs to function names and source lines (cold
// path, allocates freely) and derives the efficiency metrics; Report can
// render itself as a table, JSON, or collapsed flamegraph stacks.
package profile

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

const (
	// MaxLevels bounds the nesting depth the profiler attributes; regions
	// deeper than this are counted in Report.Dropped instead of recorded.
	MaxLevels = 8

	// tableSize is the fixed region-table capacity (power of two). Distinct
	// (call site, level) pairs beyond it are counted in Dropped.
	tableSize = 512
	tableMask = tableSize - 1
)

// scratch is one thread's private recording slot for one nesting level:
// owner-written plain fields, read by the team primary only after the
// end-of-region barrier's happens-before edge. Padded to two cache lines so
// adjacent global thread ids never false-share.
type scratch struct {
	region   uint64 // region id this slot was stamped for (fold guard)
	startNS  int64  // implicit-task start (ThreadStart)
	arriveNS int64  // arrival at the end-of-region barrier (ThreadArrive)

	barrierNS    int64 // explicit (mid-region) barrier wait
	schedNS      int64 // worksharing chunk-claim overhead
	chunks       int64
	tasksCreated int64
	tasksRun     int64
	tasksStolen  int64
	stealBatches int64
	stealsLocal  int64
	stealsRemote int64
	parks        int64
	wakes        int64

	_ [128 - 14*8]byte
}

// shard holds one global thread id's scratch slots, one per nesting level.
// An inner team's thread 0 reuses its parent's gtid (one goroutine), which
// is exactly why slots are per level: the goroutine records its outer region
// at level 0 and its nested region at level 1 without clobbering either.
type shard struct {
	levels [MaxLevels]scratch
}

// entry is one region's accumulator row. The key packs (pc << 8 | level+1)
// so zero means empty; all counters are atomic adds, allowing concurrent
// folds from nested teams.
type entry struct {
	key atomic.Uint64

	count   atomic.Int64 // region instances folded
	threads atomic.Int64 // last team width observed
	samples atomic.Int64 // thread-samples attributed
	missing atomic.Int64 // thread-samples skipped (stale stamp, unknown gtid)

	wallNS    atomic.Int64 // Σ region wall time (fork to fold)
	threadNS  atomic.Int64 // Σ wall × attributed samples
	busyNS    atomic.Int64 // Σ per-thread implicit-task time (start→arrival)
	maxBusyNS atomic.Int64 // Σ per-region max per-thread busy
	imbalNS   atomic.Int64 // Σ per-region arrival spread (max−min)
	schedNS   atomic.Int64
	xbarNS    atomic.Int64 // explicit barrier waits
	finalNS   atomic.Int64 // end-of-region barrier waits (fold − arrival)

	chunks       atomic.Int64
	tasksCreated atomic.Int64
	tasksRun     atomic.Int64
	tasksStolen  atomic.Int64
	stealBatches atomic.Int64
	stealsLocal  atomic.Int64
	stealsRemote atomic.Int64
	parks        atomic.Int64
	wakes        atomic.Int64
}

// Profiler collects per-region efficiency data for one runtime. Create one
// with New sized for the runtime's live global thread ids (Runtime.StartProfile
// does, and attaches it), and snapshot with Runtime.Profile. All recording methods are safe for concurrent use under
// the ownership rules above and never allocate.
type Profiler struct {
	start   time.Time
	shards  []shard
	table   [tableSize]entry
	dropped atomic.Uint64
}

// New builds a profiler with scratch slots for global thread ids
// [0, threads). Threads created after the profiler (inner-team workers of
// not-yet-forked nested teams) have no slot and are counted as missing —
// run nested regions once before attaching, exactly like StartTrace.
func New(threads int) *Profiler {
	if threads < 1 {
		threads = 1
	}
	return &Profiler{
		start:  time.Now(),
		shards: make([]shard, threads),
	}
}

// Now returns the profiler's monotonic clock reading in nanoseconds.
func (p *Profiler) Now() int64 { return int64(time.Since(p.start)) }

// sc returns the scratch slot for (gtid, level), or nil when either is out
// of range (untraced gtid -1, too-deep nesting).
func (p *Profiler) sc(gtid, level int) *scratch {
	if uint(gtid) >= uint(len(p.shards)) || uint(level) >= MaxLevels {
		return nil
	}
	return &p.shards[gtid].levels[level]
}

// ThreadStart stamps the begin of a thread's implicit task for one region:
// it zeroes the slot's per-region fields and records the region id the fold
// will validate against.
func (p *Profiler) ThreadStart(gtid, level int, region uint64) {
	sc := p.sc(gtid, level)
	if sc == nil {
		return
	}
	*sc = scratch{region: region, startNS: p.Now()}
}

// ThreadArrive stamps the thread's arrival at the end-of-region barrier.
func (p *Profiler) ThreadArrive(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.arriveNS = p.Now()
	}
}

// AddBarrier accumulates an explicit (mid-region) barrier wait.
func (p *Profiler) AddBarrier(gtid, level int, d int64) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.barrierNS += d
	}
}

// AddSched accumulates worksharing chunk-claim overhead.
func (p *Profiler) AddSched(gtid, level int, d int64) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.schedNS += d
	}
}

// AddChunk counts one dispatched worksharing chunk.
func (p *Profiler) AddChunk(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.chunks++
	}
}

// TaskCreated counts one explicit task spawn.
func (p *Profiler) TaskCreated(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.tasksCreated++
	}
}

// TaskRan counts one explicit task execution.
func (p *Profiler) TaskRan(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.tasksRun++
	}
}

// Locality classes for TaskStolen, matching the trace package's split.
const (
	StealUnknown = iota
	StealLocal
	StealRemote
)

// TaskStolen counts one steal visit that took n not-yet-stolen tasks from a
// victim of the given locality class (openmp.Stats defines what counts).
func (p *Profiler) TaskStolen(gtid, level, n, locality int) {
	sc := p.sc(gtid, level)
	if sc == nil {
		return
	}
	sc.tasksStolen += int64(n)
	sc.stealBatches++
	switch locality {
	case StealLocal:
		sc.stealsLocal += int64(n)
	case StealRemote:
		sc.stealsRemote += int64(n)
	}
}

// Park counts one in-region task-wait park; Wake its wakeup. End-of-region
// barrier parks are not counted here (a worker may park after the primary
// has folded); their time is covered by the barrier-wait metric instead.
func (p *Profiler) Park(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.parks++
	}
}

// Wake counts the wakeup matching a Park.
func (p *Profiler) Wake(gtid, level int) {
	if sc := p.sc(gtid, level); sc != nil {
		sc.wakes++
	}
}

// packKey builds the table key for a call site and level; +1 keeps a zero
// pc at level 0 distinct from the empty-slot sentinel.
func packKey(pc uintptr, level int) uint64 {
	return uint64(pc)<<8 | uint64(level+1)
}

// slot finds or CAS-claims the table entry for key, probing linearly from
// the key's hash. Returns nil when the table is full.
func (p *Profiler) slot(key uint64) *entry {
	h := key * 0x9e3779b97f4a7c15
	for i := uint64(0); i < tableSize; i++ {
		e := &p.table[(h+i)&tableMask]
		k := e.key.Load()
		if k == key {
			return e
		}
		if k == 0 {
			if e.key.CompareAndSwap(0, key) || e.key.Load() == key {
				return e
			}
		}
	}
	return nil
}

// Fold merges one finished region instance into its table entry. It must be
// called by the region's primary thread after it has passed the join
// barrier (region quiescence): every worker's scratch writes then
// happen-before this read. gtids lists the team's global thread ids in
// thread order; forkNS is the profiler-clock reading taken at dispatch.
func (p *Profiler) Fold(pc uintptr, level int, region uint64, gtids []int32, forkNS int64) {
	if uint(level) >= MaxLevels {
		p.dropped.Add(1)
		return
	}
	now := p.Now()
	wall := now - forkNS
	if wall < 0 {
		wall = 0
	}

	var busy, maxBusy, minArr, maxArr, sched, xbar, final int64
	var chunks, tcre, trun, tstl, tbat, tloc, trem, parks, wakes int64
	samples, missing := 0, 0
	for _, g := range gtids {
		sc := p.sc(int(g), level)
		if sc == nil || sc.region != region {
			missing++
			continue
		}
		b := sc.arriveNS - sc.startNS
		if b < 0 {
			b = 0
		}
		w := now - sc.arriveNS
		if w < 0 {
			w = 0
		}
		if samples == 0 || sc.arriveNS < minArr {
			minArr = sc.arriveNS
		}
		if samples == 0 || sc.arriveNS > maxArr {
			maxArr = sc.arriveNS
		}
		if b > maxBusy {
			maxBusy = b
		}
		busy += b
		final += w
		sched += sc.schedNS
		xbar += sc.barrierNS
		chunks += sc.chunks
		tcre += sc.tasksCreated
		trun += sc.tasksRun
		tstl += sc.tasksStolen
		tbat += sc.stealBatches
		tloc += sc.stealsLocal
		trem += sc.stealsRemote
		parks += sc.parks
		wakes += sc.wakes
		samples++
	}

	e := p.slot(packKey(pc, level))
	if e == nil {
		p.dropped.Add(1)
		return
	}
	e.count.Add(1)
	e.threads.Store(int64(len(gtids)))
	e.samples.Add(int64(samples))
	e.missing.Add(int64(missing))
	e.wallNS.Add(wall)
	e.threadNS.Add(wall * int64(samples))
	e.busyNS.Add(busy)
	e.maxBusyNS.Add(maxBusy)
	if samples > 0 {
		e.imbalNS.Add(maxArr - minArr)
	}
	e.schedNS.Add(sched)
	e.xbarNS.Add(xbar)
	e.finalNS.Add(final)
	e.chunks.Add(chunks)
	e.tasksCreated.Add(tcre)
	e.tasksRun.Add(trun)
	e.tasksStolen.Add(tstl)
	e.stealBatches.Add(tbat)
	e.stealsLocal.Add(tloc)
	e.stealsRemote.Add(trem)
	e.parks.Add(parks)
	e.wakes.Add(wakes)
}

// Snapshot renders the table into a Report, resolving call sites to
// function names and source lines. Cold path: safe to call while profiling
// continues, with the same torn-read contract as Runtime.Stats — counters
// are individually atomic, a snapshot taken at region quiescence is exact.
func (p *Profiler) Snapshot() *Report {
	r := &Report{Dropped: p.dropped.Load()}
	for i := range p.table {
		e := &p.table[i]
		key := e.key.Load()
		if key == 0 {
			continue
		}
		pc := uintptr(key >> 8)
		level := int(key&0xff) - 1
		rp := RegionProfile{
			PC:    fmt.Sprintf("%#x", pc),
			Level: level,

			Count:   e.count.Load(),
			Threads: int(e.threads.Load()),
			Samples: e.samples.Load(),
			Missing: e.missing.Load(),

			WallNS:        e.wallNS.Load(),
			ThreadNS:      e.threadNS.Load(),
			BusyNS:        e.busyNS.Load(),
			MaxBusyNS:     e.maxBusyNS.Load(),
			ImbalanceNS:   e.imbalNS.Load(),
			SchedNS:       e.schedNS.Load(),
			ExplicitBarNS: e.xbarNS.Load(),
			FinalBarNS:    e.finalNS.Load(),

			Chunks:       e.chunks.Load(),
			TasksCreated: e.tasksCreated.Load(),
			TasksRun:     e.tasksRun.Load(),
			TasksStolen:  e.tasksStolen.Load(),
			StealBatches: e.stealBatches.Load(),
			StealsLocal:  e.stealsLocal.Load(),
			StealsRemote: e.stealsRemote.Load(),
			Parks:        e.parks.Load(),
			Wakes:        e.wakes.Load(),
		}
		rp.Name, rp.File, rp.Line = resolvePC(pc)
		rp.finalize()
		r.Regions = append(r.Regions, rp)
	}
	r.sort()
	return r
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
