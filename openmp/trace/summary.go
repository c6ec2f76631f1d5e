package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"omptune/openmp/profile"
)

// RegionMetrics are the derived per-region statistics — the quantities the
// paper attributes knob effects to, computed from the raw event stream.
type RegionMetrics struct {
	// Gen is the region's id (the runtime's global region counter, shared
	// across nesting levels).
	Gen uint64 `json:"gen"`
	// Level is the region's nesting depth: 0 for outer regions, 1 for
	// regions forked from inside a level-0 region, and so on.
	Level int `json:"level"`
	// Threads is the team size recorded at the fork, or the number of
	// threads that reported an implicit task when the fork was not traced.
	Threads int `json:"threads"`
	// Wall is the fork→join duration on the primary thread.
	Wall time.Duration `json:"wall_ns"`
	// BarrierWait is the total time team threads spent inside barrier
	// waits (spinning or parked) during the region, summed over threads.
	BarrierWait time.Duration `json:"barrier_wait_ns"`
	// WaitShare is BarrierWait divided by Threads×Wall, at most 1: the
	// fraction of the region's aggregate thread-time lost to barrier
	// waiting (profile.Sums.Derive's barrier-wait share).
	WaitShare float64 `json:"wait_share"`
	// Imbalance is the arrival spread (max−min enter timestamp) at the
	// region's final barrier — the end-of-region barrier every thread
	// passes — i.e. how unevenly the body's work was distributed.
	Imbalance time.Duration `json:"imbalance_ns"`
	// Chunks counts worksharing chunks dispatched in the region, and
	// ChunksPerThread is its per-thread breakdown (histogram).
	Chunks          int   `json:"chunks"`
	ChunksPerThread []int `json:"chunks_per_thread,omitempty"`
	// TasksCreated / TasksRun / TasksStolen count explicit-task activity.
	TasksCreated int `json:"tasks_created"`
	TasksRun     int `json:"tasks_run"`
	TasksStolen  int `json:"tasks_stolen"`
	// StealBatches counts the steal visits behind TasksStolen — each task is
	// counted once, at its first steal (openmp.Stats), so
	// TasksStolen <= TasksRun and TasksStolen/StealBatches is the mean
	// number of fresh tasks a visit took; StealsLocal/StealsRemote split
	// TasksStolen by the victim's NUMA locality (both zero when locality was
	// unknown).
	StealBatches int `json:"steal_batches"`
	StealsLocal  int `json:"steals_local"`
	StealsRemote int `json:"steals_remote"`
}

// Summary is the reduction of a trace to per-region metrics plus
// whole-trace aggregates.
type Summary struct {
	Threads int             `json:"threads"`
	Events  int             `json:"events"`
	Dropped uint64          `json:"dropped"`
	Regions []RegionMetrics `json:"regions,omitempty"`

	// Aggregates over all regions (and, for parks/wakes, between them).
	TotalWall        time.Duration `json:"total_wall_ns"`
	TotalBarrierWait time.Duration `json:"total_barrier_wait_ns"`
	WaitShare        float64       `json:"wait_share"` // TotalBarrierWait / Σ(threads×wall), at most 1
	AvgImbalance     time.Duration `json:"avg_imbalance_ns"`
	MaxImbalance     time.Duration `json:"max_imbalance_ns"`
	Chunks           int           `json:"chunks"`
	ChunksPerThread  []int         `json:"chunks_per_thread,omitempty"`
	TasksCreated     int           `json:"tasks_created"`
	TasksRun         int           `json:"tasks_run"`
	TasksStolen      int           `json:"tasks_stolen"`
	StealRate        float64       `json:"steal_rate"` // TasksStolen / TasksRun, at most 1
	StealBatches     int           `json:"steal_batches"`
	StealsLocal      int           `json:"steals_local"`
	StealsRemote     int           `json:"steals_remote"`
	AvgStealBatch    float64       `json:"avg_steal_batch"` // TasksStolen / StealBatches
	Parks            int           `json:"parks"`
	Wakes            int           `json:"wakes"`

	// NestedRegions counts regions at nesting level ≥ 1; Levels breaks the
	// trace down per nesting depth (ascending, level 0 first).
	NestedRegions int            `json:"nested_regions"`
	Levels        []LevelMetrics `json:"levels,omitempty"`
}

// LevelMetrics aggregate the regions of one nesting depth.
type LevelMetrics struct {
	Level   int `json:"level"`
	Regions int `json:"regions"`
	// MaxThreads is the widest team observed at this level.
	MaxThreads int `json:"max_threads"`
	// TotalWall sums the fork→join walls of this level's regions. Inner
	// walls are nested inside outer walls, so levels overlap in time.
	TotalWall time.Duration `json:"total_wall_ns"`
}

// regionAcc is one region during the scan: the profile.Sums its events
// count into, plus the state only the scan needs — stamps and per-thread maps
// that finish reduces into the rest of the record. The trace does not tell
// the end-of-region barrier from explicit ones, so every wait counts into
// FinalBarNS; only their sum, BarrierNS, is read.
type regionAcc struct {
	gen          uint64
	level        int
	sums         profile.Sums
	forkTS       int64
	joinTS       int64
	hasFork      bool
	hasJoin      bool
	implicit     map[int32]bool
	barrierEnter map[int32]int64 // pending enter per tid
	lastEnter    map[int32]int64 // latest barrier arrival per tid
	chunks       map[int32]int
}

func newRegionAcc(gen uint64) *regionAcc {
	return &regionAcc{
		gen:          gen,
		sums:         profile.Sums{Count: 1},
		implicit:     map[int32]bool{},
		barrierEnter: map[int32]int64{},
		lastEnter:    map[int32]int64{},
		chunks:       map[int32]int{},
	}
}

// finish completes the region's Sums with what the scan could not count
// directly — team width when the fork was not traced, wall and thread-time,
// chunks, arrival imbalance — and renders its row, with the wait share from
// the shared derivation (Sums.Derive). imbalanced reports whether at least
// two threads reached a barrier, i.e. whether Imbalance is a measurement.
func (a *regionAcc) finish(threads int) (m RegionMetrics, imbalanced bool) {
	s := &a.sums
	if s.Threads == 0 {
		s.Threads = len(a.implicit)
	}
	if a.hasFork && a.hasJoin {
		s.WallNS = a.joinTS - a.forkTS
	}
	if s.WallNS > 0 {
		s.ThreadNS = s.WallNS * int64(s.Threads)
	}
	m.ChunksPerThread = make([]int, threads)
	for tid, n := range a.chunks {
		if int(tid) < threads {
			m.ChunksPerThread[tid] += n
		}
		s.Chunks += int64(n)
	}
	if imbalanced = len(a.lastEnter) >= 2; imbalanced {
		minTS, maxTS := int64(math.MaxInt64), int64(math.MinInt64)
		for _, ts := range a.lastEnter {
			minTS, maxTS = min(minTS, ts), max(maxTS, ts)
		}
		s.ImbalanceNS = maxTS - minTS
	}
	m.Gen, m.Level, m.Threads = a.gen, a.level, s.Threads
	m.Wall, m.BarrierWait = time.Duration(s.WallNS), time.Duration(s.BarrierNS())
	m.WaitShare = s.Derive().BarrierWaitShare
	m.Imbalance = time.Duration(s.ImbalanceNS)
	m.Chunks = int(s.Chunks)
	m.TasksCreated, m.TasksRun, m.TasksStolen = int(s.TasksCreated), int(s.TasksRun), int(s.TasksStolen)
	m.StealBatches, m.StealsLocal, m.StealsRemote = int(s.StealBatches), int(s.StealsLocal), int(s.StealsRemote)
	return m, imbalanced
}

// add appends one finished region and counts it into the per-thread chunk
// histogram, the nesting count and its level's row (Levels is indexed by
// level until Summarize compacts it).
func (s *Summary) add(m RegionMetrics) {
	s.Regions = append(s.Regions, m)
	for tid, n := range m.ChunksPerThread {
		s.ChunksPerThread[tid] += n
	}
	if m.Level > 0 {
		s.NestedRegions++
	}
	for len(s.Levels) <= m.Level {
		s.Levels = append(s.Levels, LevelMetrics{Level: len(s.Levels)})
	}
	lm := &s.Levels[m.Level]
	lm.Regions++
	lm.MaxThreads = max(lm.MaxThreads, m.Threads)
	lm.TotalWall += m.Wall
}

// Summarize derives per-region metrics from a collected trace. Incomplete
// spans (from dropped events or a trace stopped mid-stream) are skipped
// rather than guessed at. Each region's events count into a profile.Sums,
// the whole-trace totals are those records added up, and both take their
// wait share and steal rate from Sums.Derive, as the profiler's report does.
func Summarize(d Data) *Summary {
	s := &Summary{Threads: d.Threads, Events: len(d.Events), Dropped: d.Dropped}
	regions := map[uint64]*regionAcc{}
	acc := func(gen uint64) *regionAcc {
		a := regions[gen]
		if a == nil {
			a = newRegionAcc(gen)
			regions[gen] = a
		}
		return a
	}
	for _, e := range d.Events {
		// Park/wake events are between-regions instants; everything else
		// belongs to a region and carries its nesting level.
		switch e.Kind {
		case KindPark:
			s.Parks++
			continue
		case KindWake:
			s.Wakes++
			continue
		}
		a := acc(e.Region)
		a.level = int(e.Level)
		switch e.Kind {
		case KindRegionFork:
			a.forkTS, a.hasFork = e.TS, true
			a.sums.Threads = int(e.Arg)
		case KindRegionJoin:
			a.joinTS, a.hasJoin = e.TS, true
		case KindImplicitBegin:
			a.implicit[e.Tid] = true
		case KindBarrierEnter:
			a.barrierEnter[e.Tid] = e.TS
			a.lastEnter[e.Tid] = e.TS
		case KindBarrierLeave:
			if enter, ok := a.barrierEnter[e.Tid]; ok {
				a.sums.FinalBarNS += e.TS - enter
				delete(a.barrierEnter, e.Tid)
			}
		case KindChunk:
			a.chunks[e.Tid]++
		case KindTaskCreate:
			a.sums.TasksCreated++
		case KindTaskBegin:
			a.sums.TasksRun++
		case KindTaskSteal:
			batch := int64(e.StealBatch())
			a.sums.TasksStolen += batch
			a.sums.StealBatches++
			switch e.StealLocality() {
			case StealLocalityLocal:
				a.sums.StealsLocal += batch
			case StealLocalityRemote:
				a.sums.StealsRemote += batch
			}
		}
	}

	gens := make([]uint64, 0, len(regions))
	for gen := range regions {
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })

	s.ChunksPerThread = make([]int, d.Threads)
	var total profile.Sums
	var imbalanceSum time.Duration
	imbalanced := 0
	for _, gen := range gens {
		a := regions[gen]
		m, hasImbalance := a.finish(d.Threads)
		if hasImbalance {
			imbalanceSum += m.Imbalance
			imbalanced++
			s.MaxImbalance = max(s.MaxImbalance, m.Imbalance)
		}
		total.Add(&a.sums)
		s.add(m)
	}
	s.Levels = slices.DeleteFunc(s.Levels, func(lm LevelMetrics) bool { return lm.Regions == 0 })
	if imbalanced > 0 {
		s.AvgImbalance = imbalanceSum / time.Duration(imbalanced)
	}
	s.TotalWall, s.TotalBarrierWait = time.Duration(total.WallNS), time.Duration(total.BarrierNS())
	s.Chunks = int(total.Chunks)
	s.TasksCreated, s.TasksRun, s.TasksStolen = int(total.TasksCreated), int(total.TasksRun), int(total.TasksStolen)
	s.StealBatches, s.StealsLocal, s.StealsRemote = int(total.StealBatches), int(total.StealsLocal), int(total.StealsRemote)
	shares := total.Derive()
	s.WaitShare, s.StealRate = shares.BarrierWaitShare, shares.StealRate
	if s.StealBatches > 0 {
		s.AvgStealBatch = float64(s.TasksStolen) / float64(s.StealBatches)
	}
	return s
}

// WriteJSON writes the summary as one indented JSON object — the
// machine-readable sibling of String for scripted consumers (durations are
// integer nanoseconds, per the `_ns` field names).
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the summary as a per-region table with aggregate header
// lines, ending with one machine-parseable key=value line.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d threads, %d events (%d dropped), %d regions\n",
		s.Threads, s.Events, s.Dropped, len(s.Regions))
	fmt.Fprintf(&b, "tasks: created %d, run %d, stolen %d (steal rate %.1f%%)\n",
		s.TasksCreated, s.TasksRun, s.TasksStolen, 100*s.StealRate)
	if s.StealBatches > 0 {
		fmt.Fprintf(&b, "steals: %d batches (avg %.1f tasks/batch)", s.StealBatches, s.AvgStealBatch)
		if s.StealsLocal+s.StealsRemote > 0 {
			fmt.Fprintf(&b, ", locality %d local / %d remote", s.StealsLocal, s.StealsRemote)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "chunks: %d dispatched%s\n", s.Chunks, perThread(s.ChunksPerThread))
	fmt.Fprintf(&b, "barriers: total wait %s (share %.1f%% of aggregate thread-time); end-barrier imbalance avg %s, max %s\n",
		round(s.TotalBarrierWait), 100*s.WaitShare, round(s.AvgImbalance), round(s.MaxImbalance))
	fmt.Fprintf(&b, "workers: %d parks, %d wakes between regions\n", s.Parks, s.Wakes)
	if len(s.Levels) > 1 || s.NestedRegions > 0 {
		b.WriteString("nesting:")
		for i, lm := range s.Levels {
			if i > 0 {
				b.WriteString(";")
			}
			fmt.Fprintf(&b, " level %d: %d regions (max %d threads, wall %s)",
				lm.Level, lm.Regions, lm.MaxThreads, round(lm.TotalWall))
		}
		b.WriteString("\n")
	}
	if n := len(s.Regions); n > 0 {
		shown := s.Regions
		const maxRows = 16
		if n > maxRows {
			shown = s.Regions[:maxRows]
		}
		fmt.Fprintf(&b, "%-8s %-4s %-10s %-9s %-10s %-7s %-6s %-6s\n",
			"region", "lvl", "wall", "barwait%", "imbalance", "chunks", "tasks", "steals")
		for _, m := range shown {
			fmt.Fprintf(&b, "#%-7d %-4d %-10s %-9s %-10s %-7d %-6d %-6d\n",
				m.Gen, m.Level, round(m.Wall), fmt.Sprintf("%.1f%%", 100*m.WaitShare),
				round(m.Imbalance), m.Chunks, m.TasksRun, m.TasksStolen)
		}
		if n > maxRows {
			fmt.Fprintf(&b, "… %d more regions\n", n-maxRows)
		}
	}
	fmt.Fprintf(&b, "summary: regions=%d events=%d dropped=%d tasks_run=%d tasks_stolen=%d steal_rate=%.3f steal_batches=%d steals_local=%d steals_remote=%d barrier_wait_ns=%d wait_share=%.4f imbalance_avg_ns=%d chunks=%d parks=%d wakes=%d",
		len(s.Regions), s.Events, s.Dropped, s.TasksRun, s.TasksStolen, s.StealRate,
		s.StealBatches, s.StealsLocal, s.StealsRemote,
		int64(s.TotalBarrierWait), s.WaitShare, int64(s.AvgImbalance), s.Chunks, s.Parks, s.Wakes)
	fmt.Fprintf(&b, " levels=%d nested_regions=%d", len(s.Levels), s.NestedRegions)
	for _, lm := range s.Levels {
		fmt.Fprintf(&b, " level%d_regions=%d level%d_threads=%d",
			lm.Level, lm.Regions, lm.Level, lm.MaxThreads)
	}
	b.WriteString("\n")
	return b.String()
}

// perThread renders a per-thread count breakdown when it is interesting
// (more than one thread saw work).
func perThread(counts []int) string {
	sum, active := 0, 0
	for _, c := range counts {
		sum += c
		if c > 0 {
			active++
		}
	}
	if sum == 0 || len(counts) < 2 {
		return ""
	}
	return fmt.Sprintf(" (per thread min %d / mean %.1f / max %d, %d/%d threads active)",
		slices.Min(counts), float64(sum)/float64(len(counts)), slices.Max(counts), active, len(counts))
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d.Round(time.Nanosecond)
	}
}
