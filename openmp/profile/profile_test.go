package profile

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// foldOne simulates one region instance of a team of width threads: start
// and arrive stamps in each thread's slot, then the primary fold.
func foldOne(p *Profiler, pc uintptr, level int, region uint64, threads int) {
	slots := make([]Scratch, threads)
	for i := range slots {
		slots[i] = Scratch{Region: region, StartNS: 10, ArriveNS: 20 + int64(i), Arrived: true}
	}
	p.Fold(pc, level, region, 0, 100, slots)
}

func TestFoldBasic(t *testing.T) {
	p := New()
	slots := make([]Scratch, 4)
	for i := range slots {
		slots[i] = Scratch{Region: 7, StartNS: 10} // region begin zeroes each slot
	}
	slots[0].Sums.SchedNS += 100
	slots[0].Sums.Chunks++
	slots[0].Sums.TasksCreated++
	slots[0].Sums.TasksRun++
	slots[1].Sums = Sums{TasksStolen: 5, StealBatches: 2, StealsLocal: 3, StealsRemote: 2} // visits of 3 local, 2 remote
	slots[2].Sums.Parks++
	slots[2].Sums.Wakes++
	for i := range slots {
		slots[i].ArriveNS, slots[i].Arrived = 200+int64(i), true
	}
	p.Fold(0x1234, 0, 7, 0, 300, slots)

	rep := p.Snapshot()
	if len(rep.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(rep.Regions))
	}
	rp := rep.Regions[0]
	if rp.Count != 1 || rp.Samples != 4 || rp.Missing != 0 {
		t.Errorf("count/samples/missing = %d/%d/%d, want 1/4/0", rp.Count, rp.Samples, rp.Missing)
	}
	// Begins at 10, arrivals at 200..203, fork at 0 and join at 300.
	if rp.WallNS != 300 || rp.ThreadNS != 1200 || rp.BusyNS != 766 || rp.MaxBusyNS != 193 ||
		rp.FinalBarNS != 394 || rp.ImbalanceNS != 3 {
		t.Errorf("wall/thread/busy/max busy/final/imbalance = %d/%d/%d/%d/%d/%d, want 300/1200/766/193/394/3",
			rp.WallNS, rp.ThreadNS, rp.BusyNS, rp.MaxBusyNS, rp.FinalBarNS, rp.ImbalanceNS)
	}
	if rp.SchedNS != 100 || rp.Chunks != 1 {
		t.Errorf("sched/chunks = %d/%d, want 100/1", rp.SchedNS, rp.Chunks)
	}
	if rp.TasksStolen != 5 || rp.StealBatches != 2 || rp.StealsLocal != 3 || rp.StealsRemote != 2 {
		t.Errorf("steal counters wrong: %+v", rp)
	}
	if rp.Parks != 1 || rp.Wakes != 1 {
		t.Errorf("parks/wakes = %d/%d, want 1/1", rp.Parks, rp.Wakes)
	}
	if rp.StealRate != 5.0 || rp.StealLocalFrac != 0.6 {
		t.Errorf("steal rate/local frac = %v/%v, want 5/0.6", rp.StealRate, rp.StealLocalFrac)
	}
}

func TestFoldStaleRegionGuard(t *testing.T) {
	p := New()
	// Thread 1's slot carries a stale region id: its sample must be
	// discarded, not misattributed.
	slots := []Scratch{{Region: 9}, {Region: 8}}
	for i := range slots {
		slots[i].StartNS, slots[i].ArriveNS, slots[i].Arrived = 10, 20, true
	}
	p.Fold(0x1, 0, 9, 0, 30, slots)
	rp := p.Snapshot().Regions[0]
	if rp.Samples != 1 || rp.Missing != 1 {
		t.Errorf("samples/missing = %d/%d, want 1/1", rp.Samples, rp.Missing)
	}
}

// TestFoldUnseenStamps folds a region whose fork or join was not seen, as a
// trace with dropped events hands it: no wall or thread-time without
// either, no final wait without the join, and a slot with no final arrival
// is missing.
func TestFoldUnseenStamps(t *testing.T) {
	slots := []Scratch{
		{Region: 4, StartNS: 10, ArriveNS: 50, Arrived: true},
		{Region: 4, StartNS: 10},
	}
	for _, c := range []struct {
		fork, join, wall, final int64
	}{{0, 100, 100, 50}, {-1, 100, 0, 50}, {0, -1, 0, 0}} {
		s := Fold(4, 2, c.fork, c.join, slots)
		if s.WallNS != c.wall || s.ThreadNS != c.wall || s.FinalBarNS != c.final ||
			s.BusyNS != 40 || s.Samples != 1 || s.Missing != 1 || s.Threads != 2 {
			t.Errorf("fork %d, join %d: %+v, want wall and thread time %d, final wait %d, busy 40, 1 sample, 1 missing, 2 threads",
				c.fork, c.join, s, c.wall, c.final)
		}
	}
}

func TestLevelKeysDistinct(t *testing.T) {
	p := New()
	levels := []int{0, 1, 8, 255} // any depth the key's level byte holds
	for _, level := range levels {
		foldOne(p, 0xabc, level, uint64(level+1), 2)
	}
	foldOne(p, 0xabc, 256, 1, 2) // does not fit the level byte: dropped
	rep := p.Snapshot()
	if len(rep.Regions) != len(levels) || rep.Dropped != 1 {
		t.Fatalf("rows/dropped = %d/%d, want %d/1 (same pc at distinct levels must not collapse)",
			len(rep.Regions), rep.Dropped, len(levels))
	}
	seen := map[int]bool{}
	for _, rp := range rep.Regions {
		seen[rp.Level] = true
	}
	for _, level := range levels {
		if !seen[level] {
			t.Errorf("no row at level %d: %+v", level, rep.Regions)
		}
	}
}

func TestTableFullDrops(t *testing.T) {
	p := New()
	for i := 0; i < tableSize+10; i++ {
		foldOne(p, uintptr(0x1000+i*16), 0, uint64(i+1), 1)
	}
	rep := p.Snapshot()
	if len(rep.Regions) != tableSize {
		t.Errorf("table rows = %d, want %d", len(rep.Regions), tableSize)
	}
	if rep.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", rep.Dropped)
	}
}

func TestReportDerivedDegenerate(t *testing.T) {
	// All-zero raw sums must derive zero metrics, not NaN.
	rp := RegionProfile{}
	rp.Derived = rp.Derive()
	if rp.ParallelEfficiency != 0 || rp.LoadBalance != 0 || rp.BarrierWaitShare != 0 ||
		rp.SchedOverheadShare != 0 || rp.StealRate != 0 || rp.StealLocalFrac != 0 {
		t.Errorf("degenerate Derive produced nonzero metrics: %+v", rp)
	}
	// Perfectly balanced: busy == thread-time, no overheads.
	rp = RegionProfile{Sums: Sums{Count: 2, Samples: 8, ThreadNS: 8000, BusyNS: 8000, MaxBusyNS: 2000}}
	rp.Derived = rp.Derive()
	if rp.ParallelEfficiency != 1 || rp.LoadBalance != 1 {
		t.Errorf("balanced region: pe=%v lb=%v, want 1/1", rp.ParallelEfficiency, rp.LoadBalance)
	}
}

func TestWriteFoldedWellFormed(t *testing.T) {
	p := New()
	foldOne(p, 0x1, 0, 1, 2)
	rep := p.Snapshot()
	rep.Regions[0].SchedNS = 100
	rep.Regions[0].ExplicitBarNS = 200
	rep.Regions[0].FinalBarNS = 300000
	rep.Regions[0].BusyNS += 400000
	rep.Regions[0].ThreadNS = rep.Regions[0].BusyNS + rep.Regions[0].FinalBarNS + 50000

	var buf bytes.Buffer
	if err := rep.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if out == "" {
		t.Fatal("empty folded output")
	}
	line := regexp.MustCompile(`^[^ ]+( [0-9]+)$`)
	for _, l := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !line.MatchString(l) {
			t.Errorf("malformed folded line: %q", l)
		}
		if !strings.HasPrefix(l, "omp;") {
			t.Errorf("folded line missing root frame: %q", l)
		}
	}
	for _, leaf := range []string{"compute", "barrier-wait", "idle"} {
		if !strings.Contains(out, ";"+leaf+" ") {
			t.Errorf("folded output missing %s leaf:\n%s", leaf, out)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	p := New()
	foldOne(p, 0x5, 0, 1, 2)
	var buf bytes.Buffer
	if err := p.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Regions) != 1 || back.Regions[0].Count != 1 {
		t.Errorf("round-tripped report lost data: %+v", back)
	}
}

func TestAggregatorMerge(t *testing.T) {
	p1, p2 := New(), New()
	foldOne(p1, 0x10, 0, 1, 2)
	foldOne(p1, 0x10, 0, 2, 2)
	foldOne(p2, 0x10, 0, 1, 2) // same construct, other runtime
	foldOne(p2, 0x20, 1, 2, 1) // distinct construct

	agg := NewAggregator()
	agg.Fold(p1.Snapshot())
	agg.Fold(p2.Snapshot())
	agg.Fold(nil) // tolerated

	rep := agg.Snapshot()
	if len(rep.Regions) != 2 {
		t.Fatalf("aggregate rows = %d, want 2", len(rep.Regions))
	}
	var merged *RegionProfile
	for i := range rep.Regions {
		if rep.Regions[i].Level == 0 {
			merged = &rep.Regions[i]
		}
	}
	if merged == nil || merged.Count != 3 || merged.Samples != 6 {
		t.Errorf("merged row wrong: %+v", merged)
	}
}

func TestSnapshotSorted(t *testing.T) {
	p := New()
	foldOne(p, 0x100, 0, 1, 1)
	foldOne(p, 0x200, 0, 2, 1)
	rep := p.Snapshot()
	for i := 1; i < len(rep.Regions); i++ {
		if rep.Regions[i-1].ThreadNS < rep.Regions[i].ThreadNS {
			t.Errorf("report not sorted by thread-time desc")
		}
	}
	if s := rep.String(); !strings.Contains(s, "region") {
		t.Errorf("table render missing header: %q", s)
	}
}
