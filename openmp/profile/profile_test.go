package profile

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

// foldOne simulates one region instance: start/arrive stamps for each gtid,
// then the primary fold.
func foldOne(p *Profiler, pc uintptr, level int, region uint64, gtids []int32) {
	fork := p.Now()
	for _, g := range gtids {
		p.ThreadStart(int(g), level, region)
		p.ThreadArrive(int(g), level)
	}
	p.Fold(pc, level, region, gtids, fork)
}

func TestFoldBasic(t *testing.T) {
	p := New(4)
	gtids := []int32{0, 1, 2, 3}
	fork := p.Now()
	for _, g := range gtids {
		p.ThreadStart(int(g), 0, 7) // region begin zeroes each slot
	}
	p.AddSched(0, 0, 100)
	p.AddChunk(0, 0)
	p.TaskCreated(0, 0)
	p.TaskRan(0, 0)
	p.TaskStolen(1, 0, 3, StealLocal)
	p.TaskStolen(1, 0, 2, StealRemote)
	p.Park(2, 0)
	p.Wake(2, 0)
	for _, g := range gtids {
		p.ThreadArrive(int(g), 0)
	}
	p.Fold(0x1234, 0, 7, gtids, fork)

	rep := p.Snapshot()
	if len(rep.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(rep.Regions))
	}
	rp := rep.Regions[0]
	if rp.Count != 1 || rp.Samples != 4 || rp.Missing != 0 {
		t.Errorf("count/samples/missing = %d/%d/%d, want 1/4/0", rp.Count, rp.Samples, rp.Missing)
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
	p := New(2)
	gtids := []int32{0, 1}
	// Thread 1's scratch carries a stale region id: its sample must be
	// discarded, not misattributed.
	p.ThreadStart(0, 0, 9)
	p.ThreadArrive(0, 0)
	p.ThreadStart(1, 0, 8)
	p.ThreadArrive(1, 0)
	p.Fold(0x1, 0, 9, gtids, 0)
	rp := p.Snapshot().Regions[0]
	if rp.Samples != 1 || rp.Missing != 1 {
		t.Errorf("samples/missing = %d/%d, want 1/1", rp.Samples, rp.Missing)
	}
}

func TestFoldUnknownGtidAndDeepLevel(t *testing.T) {
	p := New(2)
	// gtid -1 (untraced) and gtid beyond the shard count are missing.
	foldOne(p, 0x1, 0, 1, []int32{0, -1, 99})
	rp := p.Snapshot().Regions[0]
	if rp.Samples != 1 || rp.Missing != 2 {
		t.Errorf("samples/missing = %d/%d, want 1/2", rp.Samples, rp.Missing)
	}
	// Hot-path recorders must tolerate out-of-range ids silently.
	p.AddSched(-1, 0, 5)
	p.AddChunk(0, MaxLevels+3)
	// A region deeper than MaxLevels is dropped, not recorded.
	p.Fold(0x2, MaxLevels, 2, []int32{0}, 0)
	rep := p.Snapshot()
	if rep.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", rep.Dropped)
	}
	if len(rep.Regions) != 1 {
		t.Errorf("deep region was recorded: %d rows", len(rep.Regions))
	}
}

func TestLevelKeysDistinct(t *testing.T) {
	p := New(2)
	foldOne(p, 0xabc, 0, 1, []int32{0, 1})
	foldOne(p, 0xabc, 1, 2, []int32{0, 1})
	rep := p.Snapshot()
	if len(rep.Regions) != 2 {
		t.Fatalf("same pc at two levels collapsed: %d rows, want 2", len(rep.Regions))
	}
	if rep.Regions[0].Level == rep.Regions[1].Level {
		t.Error("both rows have the same level")
	}
}

func TestTableFullDrops(t *testing.T) {
	p := New(1)
	for i := 0; i < tableSize+10; i++ {
		foldOne(p, uintptr(0x1000+i*16), 0, uint64(i+1), []int32{0})
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
	// All-zero raw sums must finalize to zero metrics, not NaN.
	rp := RegionProfile{}
	rp.finalize()
	if rp.ParallelEfficiency != 0 || rp.LoadBalance != 0 || rp.BarrierWaitShare != 0 ||
		rp.SchedOverheadShare != 0 || rp.StealRate != 0 || rp.StealLocalFrac != 0 {
		t.Errorf("degenerate finalize produced nonzero metrics: %+v", rp)
	}
	// Perfectly balanced: busy == thread-time, no overheads.
	rp = RegionProfile{Sums: Sums{Count: 2, Samples: 8, ThreadNS: 8000, BusyNS: 8000, MaxBusyNS: 2000}}
	rp.finalize()
	if rp.ParallelEfficiency != 1 || rp.LoadBalance != 1 {
		t.Errorf("balanced region: pe=%v lb=%v, want 1/1", rp.ParallelEfficiency, rp.LoadBalance)
	}
}

func TestWriteFoldedWellFormed(t *testing.T) {
	p := New(2)
	foldOne(p, 0x1, 0, 1, []int32{0, 1})
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
	p := New(2)
	foldOne(p, 0x5, 0, 1, []int32{0, 1})
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
	p1, p2 := New(2), New(2)
	foldOne(p1, 0x10, 0, 1, []int32{0, 1})
	foldOne(p1, 0x10, 0, 2, []int32{0, 1})
	foldOne(p2, 0x10, 0, 1, []int32{0, 1}) // same construct, other runtime
	foldOne(p2, 0x20, 1, 2, []int32{0})    // distinct construct

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
	p := New(1)
	foldOne(p, 0x100, 0, 1, []int32{0})
	foldOne(p, 0x200, 0, 2, []int32{0})
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
