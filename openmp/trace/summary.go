package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
	// Sums are the region's record (Count 1), folded from its threads'
	// events by the profiler's rule (Step, then profile.Fold at the join
	// stamp), so every field is what the profile row of that instance
	// holds. Threads is the team size recorded at the fork, or the number
	// of threads that traced the region when the fork was not.
	profile.Sums
	// WaitShare is the barrier wait divided by ThreadNS, at most 1: the
	// fraction of the region's aggregate thread-time lost to barrier
	// waiting (Sums.Derive's barrier-wait share).
	WaitShare float64 `json:"wait_share"`
	// ChunksPerThread is the per-thread breakdown (histogram) of Chunks.
	ChunksPerThread []int `json:"chunks_per_thread,omitempty"`
}

// Summary is the reduction of a trace to per-region metrics plus
// whole-trace aggregates.
type Summary struct {
	Threads int             `json:"threads"`
	Events  int             `json:"events"`
	Dropped uint64          `json:"dropped"`
	Regions []RegionMetrics `json:"regions,omitempty"`

	// Total is the regions' Sums added up (Sums.Add), plus the parks and
	// wakes of workers between regions (Region 0), which no region owns.
	Total         profile.Sums  `json:"total"`
	WaitShare     float64       `json:"wait_share"` // Total's barrier wait / ThreadNS, at most 1
	AvgImbalance  time.Duration `json:"avg_imbalance_ns"`
	MaxImbalance  time.Duration `json:"max_imbalance_ns"`
	StealRate     float64       `json:"steal_rate"`      // Total.TasksStolen / TasksRun, at most 1
	AvgStealBatch float64       `json:"avg_steal_batch"` // Total.TasksStolen / StealBatches
	// ChunksPerThread is the per-thread breakdown of Total.Chunks.
	ChunksPerThread []int `json:"chunks_per_thread,omitempty"`

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

// Folds reports whether Step folds anything of an event of kind k carrying
// arg. It is Step's gate, and the runtime's hooks hand the profiler only the
// events it passes: the end-of-region barrier's leave and the implicit-task
// end, which a worker stamps after its primary may have folded the slot,
// task begin and the region fork and join fold nothing.
func Folds(k Kind, arg int64) bool {
	switch k {
	case KindImplicitBegin, KindBarrierEnter, KindChunk, KindTaskCreate, KindTaskEnd, KindTaskSteal, KindPark, KindWake:
		return true
	case KindBarrierLeave:
		return arg != 0
	}
	return false
}

// Step applies one event of a thread to its profile slot: the one rule by
// which both sensors fold events, online by the runtime's hooks and over
// drained rings by Summarize. An implicit-task begin stamps the slot for
// its region; an event of another region or of none (a worker's park
// between regions) leaves the slot alone, and so does every event Folds
// rejects. An explicit barrier's wait is its enter to its leave; the
// end-of-region barrier's enter is the thread's arrival, whose wait the
// fold takes up to the join.
func Step(sc *profile.Scratch, e Event) {
	if !Folds(e.Kind, e.Arg) {
		return
	}
	if e.Kind == KindImplicitBegin {
		*sc = profile.Scratch{Region: e.Region, StartNS: e.TS}
		return
	}
	if e.Region != sc.Region || e.Region == 0 {
		return
	}
	s := &sc.Sums
	switch e.Kind {
	case KindBarrierEnter:
		if e.Arg == 0 {
			sc.ArriveNS, sc.Arrived = e.TS, true
		} else {
			sc.EnterNS, sc.Entered = e.TS, true
		}
	case KindBarrierLeave:
		if sc.Entered {
			s.ExplicitBarNS += e.TS - sc.EnterNS
			sc.Entered = false
		}
	case KindChunk:
		if e.ChunkIters() > 0 {
			s.Chunks++
		}
		s.SchedNS += e.ClaimNS()
	case KindTaskCreate:
		s.TasksCreated++
	case KindTaskEnd:
		s.TasksRun++
	case KindTaskSteal:
		n := int64(e.StealBatch())
		s.TasksStolen += n
		s.StealBatches++
		switch e.StealLocality() {
		case StealLocalityLocal:
			s.StealsLocal += n
		case StealLocalityRemote:
			s.StealsRemote += n
		}
	case KindPark:
		s.Parks++
	case KindWake:
		s.Wakes++
	}
}

// Summarize derives per-region metrics from a collected trace by replaying
// each region's events, thread by thread, through Step and folding the
// region at its join stamp (profile.Fold), so a region's Sums are those the
// profiler folds. Parks and wakes between regions (Region 0) count into
// Total only. Spans left incomplete by dropped events or a trace stopped
// mid-stream are skipped rather than guessed at: a thread with no final
// arrival is Missing, and a region with no traced fork or join gets no
// wall. The totals are the regions' Sums added up, and both take their wait
// share and steal rate from Sums.Derive, as the profiler's report does.
func Summarize(d Data) *Summary {
	s := &Summary{Threads: d.Threads, Events: len(d.Events), Dropped: d.Dropped}
	s.ChunksPerThread = make([]int, d.Threads)
	evs := slices.Clone(d.Events)
	slices.SortStableFunc(evs, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Region, b.Region), cmp.Compare(a.Tid, b.Tid))
	})
	var (
		slots        []profile.Scratch
		tids         []int32
		imbalanceSum time.Duration
		imbalanced   int
	)
	for len(evs) > 0 {
		gen := evs[0].Region
		n := 1
		for n < len(evs) && evs[n].Region == gen {
			n++
		}
		region := evs[:n]
		evs = evs[n:]
		if gen == 0 { // parks and wakes between regions
			for _, e := range region {
				switch e.Kind {
				case KindPark:
					s.Total.Parks++
				case KindWake:
					s.Total.Wakes++
				}
			}
			continue
		}
		forkNS, joinNS, threads := int64(-1), int64(-1), 0
		slots, tids = slots[:0], tids[:0]
		for _, e := range region {
			switch e.Kind {
			case KindRegionFork:
				forkNS, threads = e.TS, int(e.Arg)
				continue
			case KindRegionJoin:
				joinNS = e.TS
				continue
			}
			if len(tids) == 0 || tids[len(tids)-1] != e.Tid {
				slots, tids = append(slots, profile.Scratch{}), append(tids, e.Tid)
			}
			Step(&slots[len(slots)-1], e)
		}
		if threads == 0 {
			threads = len(slots)
		}
		m := RegionMetrics{Gen: gen, Level: int(region[0].Level), ChunksPerThread: make([]int, d.Threads)}
		m.Sums = profile.Fold(gen, threads, forkNS, joinNS, slots)
		for i, tid := range tids {
			if slots[i].Attributed(gen) && int(tid) < d.Threads {
				m.ChunksPerThread[tid] += int(slots[i].Sums.Chunks)
			}
		}
		m.WaitShare = m.Derive().BarrierWaitShare
		if m.Samples >= 2 {
			imbalanceSum += time.Duration(m.ImbalanceNS)
			imbalanced++
			s.MaxImbalance = max(s.MaxImbalance, time.Duration(m.ImbalanceNS))
		}
		s.Total.Add(&m.Sums)
		for tid, n := range m.ChunksPerThread {
			s.ChunksPerThread[tid] += n
		}
		if m.Level > 0 {
			s.NestedRegions++
		}
		for len(s.Levels) <= m.Level { // indexed by level until compacted below
			s.Levels = append(s.Levels, LevelMetrics{Level: len(s.Levels)})
		}
		lm := &s.Levels[m.Level]
		lm.Regions++
		lm.MaxThreads = max(lm.MaxThreads, m.Threads)
		lm.TotalWall += time.Duration(m.WallNS)
		s.Regions = append(s.Regions, m)
	}
	s.Levels = slices.DeleteFunc(s.Levels, func(lm LevelMetrics) bool { return lm.Regions == 0 })
	if imbalanced > 0 {
		s.AvgImbalance = imbalanceSum / time.Duration(imbalanced)
	}
	shares := s.Total.Derive()
	s.WaitShare, s.StealRate = shares.BarrierWaitShare, shares.StealRate
	if s.Total.StealBatches > 0 {
		s.AvgStealBatch = float64(s.Total.TasksStolen) / float64(s.Total.StealBatches)
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
	t := &s.Total
	fmt.Fprintf(&b, "tasks: created %d, run %d, stolen %d (steal rate %.1f%%)\n",
		t.TasksCreated, t.TasksRun, t.TasksStolen, 100*s.StealRate)
	if t.StealBatches > 0 {
		fmt.Fprintf(&b, "steals: %d batches (avg %.1f tasks/batch)", t.StealBatches, s.AvgStealBatch)
		if t.StealsLocal+t.StealsRemote > 0 {
			fmt.Fprintf(&b, ", locality %d local / %d remote", t.StealsLocal, t.StealsRemote)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "chunks: %d dispatched%s\n", t.Chunks, perThread(s.ChunksPerThread))
	fmt.Fprintf(&b, "barriers: total wait %s (share %.1f%% of aggregate thread-time); end-barrier imbalance avg %s, max %s\n",
		round(time.Duration(t.BarrierNS())), 100*s.WaitShare, round(s.AvgImbalance), round(s.MaxImbalance))
	var inParks, inWakes int64
	for i := range s.Regions {
		inParks, inWakes = inParks+s.Regions[i].Parks, inWakes+s.Regions[i].Wakes
	}
	fmt.Fprintf(&b, "parks: %d parks, %d wakes (%d, %d in task waits; %d, %d between regions)\n",
		t.Parks, t.Wakes, inParks, inWakes, t.Parks-inParks, t.Wakes-inWakes)
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
				m.Gen, m.Level, round(time.Duration(m.WallNS)), fmt.Sprintf("%.1f%%", 100*m.WaitShare),
				round(time.Duration(m.ImbalanceNS)), m.Chunks, m.TasksRun, m.TasksStolen)
		}
		if n > maxRows {
			fmt.Fprintf(&b, "… %d more regions\n", n-maxRows)
		}
	}
	fmt.Fprintf(&b, "summary: regions=%d events=%d dropped=%d tasks_run=%d tasks_stolen=%d steal_rate=%.3f steal_batches=%d steals_local=%d steals_remote=%d barrier_wait_ns=%d wait_share=%.4f imbalance_avg_ns=%d chunks=%d parks=%d wakes=%d",
		len(s.Regions), s.Events, s.Dropped, t.TasksRun, t.TasksStolen, s.StealRate,
		t.StealBatches, t.StealsLocal, t.StealsRemote,
		t.BarrierNS(), s.WaitShare, int64(s.AvgImbalance), t.Chunks, t.Parks, t.Wakes)
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
