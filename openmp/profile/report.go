package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// RegionProfile is one region's aggregated profile: its identity, its Sums
// and the metrics Derive computes from them. The Sums are authoritative —
// merging two profiles adds them and re-derives. It is also the row the
// campaign monitor serves at /api/regions.
type RegionProfile struct {
	// Name/File/Line identify the construct: the function containing the
	// Parallel/ParallelFor call and its source position. PC is the raw call
	// site, stable within one process run.
	Name  string `json:"name"`
	File  string `json:"file,omitempty"`
	Line  int    `json:"line,omitempty"`
	PC    string `json:"pc,omitempty"`
	Level int    `json:"level"`

	Sums
	Derived
}

// Derived are the POP-style efficiency metrics of a Sums (see Derive).
type Derived struct {
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	LoadBalance        float64 `json:"load_balance"`
	BarrierWaitShare   float64 `json:"barrier_wait_share"`
	SchedOverheadShare float64 `json:"sched_overhead_share"`
	StealRate          float64 `json:"steal_rate"`
	StealLocalFrac     float64 `json:"steal_local_frac"`
}

// Derive is the one derivation of a region's metrics from its raw sums,
// shared by the profiler's report and the trace summary:
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
// numerator and denominator instead of skewing the ratios. Every metric of
// an empty denominator is 0.
func (s *Sums) Derive() Derived {
	var d Derived
	if s.ThreadNS > 0 {
		useful := max(s.BusyNS-s.SchedNS-s.ExplicitBarNS, 0)
		d.ParallelEfficiency = clamp01(float64(useful) / float64(s.ThreadNS))
		d.BarrierWaitShare = clamp01(float64(s.BarrierNS()) / float64(s.ThreadNS))
		d.SchedOverheadShare = clamp01(float64(s.SchedNS) / float64(s.ThreadNS))
	}
	if s.Samples > 0 && s.Count > 0 && s.MaxBusyNS > 0 {
		meanBusy := float64(s.BusyNS) / float64(s.Samples)
		meanMax := float64(s.MaxBusyNS) / float64(s.Count)
		d.LoadBalance = clamp01(meanBusy / meanMax)
	}
	if s.TasksRun > 0 {
		d.StealRate = float64(s.TasksStolen) / float64(s.TasksRun)
	}
	if c := s.StealsLocal + s.StealsRemote; c > 0 {
		d.StealLocalFrac = float64(s.StealsLocal) / float64(c)
	}
	return d
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
// sweep configuration) into a single cross-runtime view. It is the
// profiler's table fed whole reports instead of single folds, keyed the same
// way by (call site, level) — call sites are process-stable, so the same
// kernel region folds onto one row across configurations, and Snapshot
// resolves names from them as a profiler's does.
type Aggregator struct{ table }

// NewAggregator builds an empty aggregator.
func NewAggregator() *Aggregator { return new(Aggregator) }

// Fold merges one runtime's report into the aggregate.
func (a *Aggregator) Fold(r *Report) {
	if r == nil {
		return
	}
	a.dropped.Add(r.Dropped)
	for i := range r.Regions {
		rp := &r.Regions[i]
		// Snapshot wrote PC as "%#x"; a row without one folds onto call site 0,
		// which resolves to "unknown".
		pc, _ := strconv.ParseUint(rp.PC, 0, 64)
		a.add(packKey(uintptr(pc), rp.Level), &rp.Sums)
	}
}
