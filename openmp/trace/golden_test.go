package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"omptune/openmp/profile"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenTrace is a three-thread trace covering every path of Summarize: a
// worksharing region with claimed chunks, exhausted claims, an explicit
// barrier and uneven chunks, a nested pair, a task region whose steals
// carry each locality class and whose producer parks in a task wait, a
// region whose fork was dropped (threads from the implicit tasks, no wall)
// and one of whose threads never arrives, a barrier enter with no leave,
// between-region parks and wakes, and enough trailing regions to truncate
// the table.
func goldenTrace() Data {
	d := Data{Threads: 3, Dropped: 2, Start: time.Unix(0, 0)}
	ev := func(ts int64, tid int32, lvl uint8, region uint64, k Kind, arg int64) {
		d.Events = append(d.Events, Event{TS: ts, Arg: arg, Region: region, Tid: tid, Kind: k, Level: lvl})
	}
	const explicit, final = 1, 0
	// Region 1: three threads claim chunks 3/1/0 (then each an exhausted
	// claim), pass one explicit barrier, then the end barrier with arrivals
	// 700/760/900.
	ev(100, 0, 0, 1, KindRegionFork, 3)
	for tid := int32(0); tid < 3; tid++ {
		ev(110+int64(tid), tid, 0, 1, KindImplicitBegin, 0)
	}
	ev(120, 0, 0, 1, KindChunk, ChunkArg(16, 8))
	ev(130, 0, 0, 1, KindChunk, ChunkArg(16, 5))
	ev(140, 1, 0, 1, KindChunk, ChunkArg(16, 20))
	ev(150, 0, 0, 1, KindChunk, ChunkArg(16, 4))
	for tid := int32(0); tid < 3; tid++ {
		ev(160+int64(tid), tid, 0, 1, KindChunk, ChunkArg(0, 6))
	}
	for tid := int32(0); tid < 3; tid++ {
		ev(300+10*int64(tid), tid, 0, 1, KindBarrierEnter, explicit)
	}
	for tid := int32(0); tid < 3; tid++ {
		ev(400, tid, 0, 1, KindBarrierLeave, explicit)
	}
	ev(700, 0, 0, 1, KindBarrierEnter, final)
	ev(760, 1, 0, 1, KindBarrierEnter, final)
	ev(900, 2, 0, 1, KindBarrierEnter, final)
	for tid := int32(0); tid < 3; tid++ {
		ev(950, tid, 0, 1, KindBarrierLeave, final)
		ev(960, tid, 0, 1, KindImplicitEnd, 0)
	}
	ev(1000, 0, 0, 1, KindRegionJoin, 0)
	ev(1010, 1, 0, 0, KindPark, 0)
	ev(1020, 2, 0, 0, KindPark, 0)
	ev(1900, 1, 0, 0, KindWake, 0)

	// Regions 2 (outer) and 3 (forked by tid 0 inside it, run with tid 2).
	ev(2000, 0, 0, 2, KindRegionFork, 2)
	ev(2010, 0, 0, 2, KindImplicitBegin, 0)
	ev(2020, 1, 0, 2, KindImplicitBegin, 0)
	ev(2100, 0, 1, 3, KindRegionFork, 2)
	ev(2110, 0, 1, 3, KindImplicitBegin, 0)
	ev(2120, 2, 1, 3, KindImplicitBegin, 0)
	ev(2200, 0, 1, 3, KindBarrierEnter, final)
	ev(2290, 2, 1, 3, KindBarrierEnter, final)
	ev(2300, 0, 1, 3, KindBarrierLeave, final)
	ev(2300, 2, 1, 3, KindBarrierLeave, final)
	ev(2350, 0, 1, 3, KindRegionJoin, 0)
	ev(2500, 0, 0, 2, KindBarrierEnter, final)
	ev(2540, 1, 0, 2, KindBarrierEnter, final)
	ev(2600, 0, 0, 2, KindBarrierLeave, final)
	ev(2600, 1, 0, 2, KindBarrierLeave, final)
	ev(2700, 0, 0, 2, KindRegionJoin, 0)

	// Region 4: tasks. Five created, five run, steals of 2 (local), 1
	// (remote) and 1 (unknown locality); the producer parks in its task
	// wait until the last task is done.
	ev(3000, 0, 0, 4, KindRegionFork, 3)
	ev(3005, 0, 0, 4, KindImplicitBegin, 0)
	ev(3006, 1, 0, 4, KindImplicitBegin, 0)
	ev(3007, 2, 0, 4, KindImplicitBegin, 0)
	for i := int64(0); i < 5; i++ {
		ev(3010+i, 0, 0, 4, KindTaskCreate, 0)
	}
	ev(3100, 1, 0, 4, KindTaskSteal, StealArg(0, 2, StealLocalityLocal))
	ev(3110, 2, 0, 4, KindTaskSteal, StealArg(0, 1, StealLocalityRemote))
	ev(3120, 2, 0, 4, KindTaskSteal, StealArg(1, 1, StealLocalityUnknown))
	for i := int64(0); i < 5; i++ {
		ev(3200+10*i, int32(i%3), 0, 4, KindTaskBegin, 0)
		ev(3205+10*i, int32(i%3), 0, 4, KindTaskEnd, 0)
	}
	ev(3250, 0, 0, 4, KindPark, 0)
	ev(3300, 0, 0, 4, KindWake, 0)
	ev(3400, 0, 0, 4, KindBarrierEnter, final)
	ev(3400, 1, 0, 4, KindBarrierEnter, final)
	ev(3450, 0, 0, 4, KindBarrierLeave, final)
	ev(3450, 1, 0, 4, KindBarrierLeave, final)
	ev(3460, 2, 0, 4, KindBarrierEnter, final) // leave lost with the stream
	ev(3500, 0, 0, 4, KindRegionJoin, 0)

	// Region 5: the fork was dropped; two implicit tasks report, and only
	// tid 1's arrival made it into the stream.
	ev(4010, 0, 0, 5, KindImplicitBegin, 0)
	ev(4020, 1, 0, 5, KindImplicitBegin, 0)
	ev(4030, 1, 0, 5, KindChunk, ChunkArg(8, 0))
	ev(4050, 1, 0, 5, KindBarrierEnter, final)
	ev(4100, 0, 0, 5, KindRegionJoin, 0)

	// Regions 6..20: short single-thread regions, past the table's 16 rows.
	for r := int64(6); r <= 20; r++ {
		ts := 5000 + 100*r
		ev(ts, 0, 0, uint64(r), KindRegionFork, 1)
		ev(ts+2, 0, 0, uint64(r), KindImplicitBegin, 0)
		ev(ts+5, 0, 0, uint64(r), KindChunk, ChunkArg(4, 0))
		ev(ts+30, 0, 0, uint64(r), KindBarrierEnter, final)
		ev(ts+35, 0, 0, uint64(r), KindBarrierLeave, final)
		ev(ts+36, 0, 0, uint64(r), KindImplicitEnd, 0)
		ev(ts+40+r, 0, 0, uint64(r), KindRegionJoin, 0)
	}
	return d
}

// TestSummaryGolden pins every byte a Summary renders.
func TestSummaryGolden(t *testing.T) {
	s := Summarize(goldenTrace())
	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.json.golden", js.Bytes())
	checkGolden(t, "summary.txt.golden", []byte(s.String()))
}

// TestSummarySharesAreDerived holds the summary's wait shares and steal rate
// to profile.Sums.Derive applied to the sums each row reports: per region
// and over the whole trace, bit for bit. A region whose waits exceed its
// thread-time — a worker's final leave landing after the join — reads 1, as
// its profile row does.
func TestSummarySharesAreDerived(t *testing.T) {
	d := goldenTrace()
	// Region 21: two threads, 10ns of wall, 100ns of explicit-barrier
	// waiting each — stamps no runtime writes, whose share Derive caps.
	for tid := int32(0); tid < 2; tid++ {
		d.Events = append(d.Events,
			Event{TS: 19990, Region: 21, Tid: tid, Kind: KindImplicitBegin},
			Event{TS: 20000, Region: 21, Tid: tid, Kind: KindBarrierEnter, Arg: 1},
			Event{TS: 20100, Region: 21, Tid: tid, Kind: KindBarrierLeave, Arg: 1},
			Event{TS: 20100, Region: 21, Tid: tid, Kind: KindBarrierEnter})
	}
	d.Events = append(d.Events,
		Event{TS: 19995, Region: 21, Kind: KindRegionFork, Arg: 2},
		Event{TS: 20005, Region: 21, Kind: KindRegionJoin})
	s := Summarize(d)

	var total profile.Sums
	for _, m := range s.Regions {
		if want := m.Samples * m.WallNS; m.ThreadNS != want {
			t.Errorf("region %d: thread time %d, want wall %d × %d samples", m.Gen, m.ThreadNS, m.WallNS, m.Samples)
		}
		if want := m.Sums.Derive().BarrierWaitShare; m.WaitShare != want {
			t.Errorf("region %d: wait share %v, Derive gives %v", m.Gen, m.WaitShare, want)
		}
		total.Add(&m.Sums)
	}
	total.Parks, total.Wakes = total.Parks+2, total.Wakes+1 // region 1's workers, between regions
	if total != s.Total {
		t.Errorf("total %+v, want the regions' sums added up and the parks between regions %+v", s.Total, total)
	}
	want := total.Derive()
	if s.WaitShare != want.BarrierWaitShare || s.StealRate != want.StealRate {
		t.Errorf("whole trace: wait share %v, steal rate %v; Derive gives %v, %v",
			s.WaitShare, s.StealRate, want.BarrierWaitShare, want.StealRate)
	}
	if s.StealRate != 0.8 {
		t.Errorf("steal rate %v, want 4 stolen / 5 run", s.StealRate)
	}
	if last := s.Regions[len(s.Regions)-1]; last.Gen != 21 || last.BarrierNS() != 200 || last.WaitShare != 1 {
		t.Errorf("region 21: gen %d, wait %dns, share %v; want 200ns of waiting clamped to share 1",
			last.Gen, last.BarrierNS(), last.WaitShare)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}
