package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// RegionProfile is one region's aggregated profile: raw accumulator sums
// plus the POP-style efficiency metrics derived from them. The raw fields
// are authoritative — merging two profiles adds the raw sums and re-derives.
type RegionProfile struct {
	// Name/File/Line identify the construct: the function containing the
	// Parallel/ParallelFor call and its source position. PC is the raw call
	// site, stable within one process run.
	Name  string `json:"name"`
	File  string `json:"file,omitempty"`
	Line  int    `json:"line,omitempty"`
	PC    string `json:"pc,omitempty"`
	Level int    `json:"level"`

	Count   int64 `json:"count"`             // region instances
	Threads int   `json:"threads"`           // team width (last observed)
	Samples int64 `json:"samples"`           // thread-samples attributed
	Missing int64 `json:"missing,omitempty"` // thread-samples discarded

	WallNS        int64 `json:"wall_ns"`         // Σ fork-to-join wall
	ThreadNS      int64 `json:"thread_ns"`       // Σ wall × attributed threads
	BusyNS        int64 `json:"busy_ns"`         // Σ implicit-task time
	MaxBusyNS     int64 `json:"max_busy_ns"`     // Σ per-region max thread busy
	ImbalanceNS   int64 `json:"imbalance_ns"`    // Σ per-region arrival spread
	SchedNS       int64 `json:"sched_ns"`        // Σ chunk-claim overhead
	ExplicitBarNS int64 `json:"explicit_bar_ns"` // Σ mid-region barrier wait
	FinalBarNS    int64 `json:"final_bar_ns"`    // Σ end-of-region barrier wait

	Chunks       int64 `json:"chunks"`
	TasksCreated int64 `json:"tasks_created"`
	TasksRun     int64 `json:"tasks_run"`
	TasksStolen  int64 `json:"tasks_stolen"`
	StealBatches int64 `json:"steal_batches"`
	StealsLocal  int64 `json:"steals_local"`
	StealsRemote int64 `json:"steals_remote"`
	Parks        int64 `json:"parks"`
	Wakes        int64 `json:"wakes"`

	// Derived metrics (see finalize):
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	LoadBalance        float64 `json:"load_balance"`
	BarrierWaitShare   float64 `json:"barrier_wait_share"`
	SchedOverheadShare float64 `json:"sched_overhead_share"`
	StealRate          float64 `json:"steal_rate"`
	StealLocalFrac     float64 `json:"steal_local_frac"`
}

// BarrierNS is the total barrier wait: explicit mid-region barriers plus
// the end-of-region join barrier.
func (rp *RegionProfile) BarrierNS() int64 { return rp.ExplicitBarNS + rp.FinalBarNS }

// finalize derives the efficiency metrics from the raw sums:
//
//	parallel efficiency  = useful / thread-time, useful = busy − sched − barrier(explicit)
//	load balance         = mean thread busy / mean max thread busy
//	barrier-wait share   = (explicit + final barrier wait) / thread-time
//	sched-overhead share = chunk-claim overhead / thread-time
//	steal rate           = tasks stolen / tasks run
//	steal local fraction = local steals / classified steals
//
// A task is stolen once, by its first thief (see openmp.Stats), so the steal
// rate is the share of executed tasks that were stolen and never exceeds 1.
// thread-time is wall × attributed threads, so missing samples shrink both
// numerator and denominator instead of skewing the ratios.
func (rp *RegionProfile) finalize() {
	rp.ParallelEfficiency, rp.LoadBalance = 0, 0
	rp.BarrierWaitShare, rp.SchedOverheadShare = 0, 0
	rp.StealRate, rp.StealLocalFrac = 0, 0
	if rp.ThreadNS > 0 {
		useful := rp.BusyNS - rp.SchedNS - rp.ExplicitBarNS
		if useful < 0 {
			useful = 0
		}
		rp.ParallelEfficiency = clamp01(float64(useful) / float64(rp.ThreadNS))
		rp.BarrierWaitShare = clamp01(float64(rp.BarrierNS()) / float64(rp.ThreadNS))
		rp.SchedOverheadShare = clamp01(float64(rp.SchedNS) / float64(rp.ThreadNS))
	}
	if rp.Samples > 0 && rp.Count > 0 && rp.MaxBusyNS > 0 {
		meanBusy := float64(rp.BusyNS) / float64(rp.Samples)
		meanMax := float64(rp.MaxBusyNS) / float64(rp.Count)
		if meanMax > 0 {
			rp.LoadBalance = clamp01(meanBusy / meanMax)
		}
	}
	if rp.TasksRun > 0 {
		rp.StealRate = float64(rp.TasksStolen) / float64(rp.TasksRun)
	}
	if c := rp.StealsLocal + rp.StealsRemote; c > 0 {
		rp.StealLocalFrac = float64(rp.StealsLocal) / float64(c)
	}
}

// accumulate adds o's raw sums into rp (merge of the same region key).
func (rp *RegionProfile) accumulate(o *RegionProfile) {
	rp.Count += o.Count
	if o.Threads > rp.Threads {
		rp.Threads = o.Threads
	}
	rp.Samples += o.Samples
	rp.Missing += o.Missing
	rp.WallNS += o.WallNS
	rp.ThreadNS += o.ThreadNS
	rp.BusyNS += o.BusyNS
	rp.MaxBusyNS += o.MaxBusyNS
	rp.ImbalanceNS += o.ImbalanceNS
	rp.SchedNS += o.SchedNS
	rp.ExplicitBarNS += o.ExplicitBarNS
	rp.FinalBarNS += o.FinalBarNS
	rp.Chunks += o.Chunks
	rp.TasksCreated += o.TasksCreated
	rp.TasksRun += o.TasksRun
	rp.TasksStolen += o.TasksStolen
	rp.StealBatches += o.StealBatches
	rp.StealsLocal += o.StealsLocal
	rp.StealsRemote += o.StealsRemote
	rp.Parks += o.Parks
	rp.Wakes += o.Wakes
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Report is a profiler snapshot: one RegionProfile per (construct, level),
// ordered by attributed thread-time, largest first.
type Report struct {
	Regions []RegionProfile `json:"regions"`
	Dropped uint64          `json:"dropped"` // regions not attributed (table full, nesting too deep)
}

func (r *Report) sort() {
	sort.SliceStable(r.Regions, func(i, j int) bool {
		if r.Regions[i].ThreadNS != r.Regions[j].ThreadNS {
			return r.Regions[i].ThreadNS > r.Regions[j].ThreadNS
		}
		return r.Regions[i].Level < r.Regions[j].Level
	})
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders a fixed-width table of the per-region efficiency metrics,
// one line per (construct, level).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %3s %5s %3s %9s %6s %6s %7s %7s %7s\n",
		"region", "lvl", "count", "thr", "wall", "par.ef", "ld.bal", "bar%", "sched%", "steal")
	for i := range r.Regions {
		rp := &r.Regions[i]
		name := rp.Name
		if rp.Line > 0 {
			name = fmt.Sprintf("%s:%d", rp.Name, rp.Line)
		}
		if len(name) > 40 {
			name = "…" + name[len(name)-39:]
		}
		fmt.Fprintf(&b, "%-40s %3d %5d %3d %8.2fms %6.3f %6.3f %6.2f%% %6.2f%% %7.3f\n",
			name, rp.Level, rp.Count, rp.Threads,
			float64(rp.WallNS)/1e6,
			rp.ParallelEfficiency, rp.LoadBalance,
			100*rp.BarrierWaitShare, 100*rp.SchedOverheadShare,
			rp.StealRate)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "dropped: %d region folds not attributed\n", r.Dropped)
	}
	return b.String()
}

// WriteFolded writes the report as collapsed flamegraph stacks
// ("frame;frame;frame value" per line, value in microseconds), the input
// format of flamegraph.pl and speedscope. Each region expands to up to four
// leaf frames partitioning its attributed thread-time: compute, sched,
// barrier-wait, and idle (fork/join slack outside the implicit task).
func (r *Report) WriteFolded(w io.Writer) error {
	for i := range r.Regions {
		rp := &r.Regions[i]
		frame := foldedFrame(rp)
		useful := rp.BusyNS - rp.SchedNS - rp.ExplicitBarNS
		if useful < 0 {
			useful = 0
		}
		idle := rp.ThreadNS - rp.BusyNS - rp.FinalBarNS
		if idle < 0 {
			idle = 0
		}
		for _, leaf := range [...]struct {
			name string
			ns   int64
		}{
			{"compute", useful},
			{"sched", rp.SchedNS},
			{"barrier-wait", rp.BarrierNS()},
			{"idle", idle},
		} {
			if leaf.ns <= 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "omp;%s;%s %d\n", frame, leaf.name, leaf.ns/1000); err != nil {
				return err
			}
		}
	}
	return nil
}

// foldedFrame renders a region's stack frame, with the frame separator
// characters flamegraph syntax reserves replaced.
func foldedFrame(rp *RegionProfile) string {
	name := rp.Name
	if rp.Line > 0 {
		name = fmt.Sprintf("%s:%d", rp.Name, rp.Line)
	}
	name = strings.NewReplacer(";", ",", " ", "_").Replace(name)
	return fmt.Sprintf("%s@L%d", name, rp.Level)
}

// Aggregator merges region profiles from many runtimes (one per measured
// sweep configuration) into a single cross-runtime view, keyed like the
// profiler table by (call site, level) — call sites are process-stable, so
// the same kernel region folds onto one row across configurations.
type Aggregator struct {
	mu      sync.Mutex
	regions map[string]*RegionProfile // key: PC|level
	dropped uint64
}

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{regions: make(map[string]*RegionProfile)}
}

// Fold merges one runtime's report into the aggregate.
func (a *Aggregator) Fold(r *Report) {
	if r == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += r.Dropped
	for i := range r.Regions {
		rp := &r.Regions[i]
		key := fmt.Sprintf("%s|%d", rp.PC, rp.Level)
		if cur, ok := a.regions[key]; ok {
			cur.accumulate(rp)
		} else {
			cp := *rp
			a.regions[key] = &cp
		}
	}
}

// Snapshot renders the merged aggregate as a Report with freshly derived
// metrics.
func (a *Aggregator) Snapshot() *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := &Report{Dropped: a.dropped}
	for _, rp := range a.regions {
		cp := *rp
		cp.finalize()
		r.Regions = append(r.Regions, cp)
	}
	r.sort()
	return r
}
