package trace

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"omptune/openmp/profile"
)

// TestRingWrapAround fills a ring past capacity without draining: the ring
// must retain the oldest events FIFO, drop the rest, and count every drop.
func TestRingWrapAround(t *testing.T) {
	tr := mustNew(t, 8) // rounded to 8
	r := tr.NewRing()
	capacity := len(r.buf)
	total := 3 * capacity
	for i := 0; i < total; i++ {
		r.Emit(Event{Region: 1, Kind: KindChunk, Arg: int64(i)})
	}
	evs := tr.DrainAppend(nil)
	if len(evs) != capacity {
		t.Fatalf("drained %d events, want the ring capacity %d", len(evs), capacity)
	}
	for i, e := range evs {
		if e.Arg != int64(i) {
			t.Fatalf("event %d has arg %d, want %d (drop-newest must keep the oldest FIFO)", i, e.Arg, i)
		}
	}
	if got, want := tr.Dropped(), uint64(total-capacity); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	// After a drain the ring accepts new events again.
	r.Emit(Event{Region: 2, Kind: KindChunk, Arg: 99})
	if evs := tr.DrainAppend(nil); len(evs) != 1 || evs[0].Arg != 99 {
		t.Errorf("post-drain emit: drained %v, want one event with arg 99", evs)
	}
}

// TestRingConcurrentFillDrain runs one producer per ring against a single
// concurrent drainer — the exact contract StopTrace relies on — under the
// race detector. Every emitted event must be either drained (in per-thread
// FIFO order) or counted as dropped.
func TestRingConcurrentFillDrain(t *testing.T) {
	const threads, perThread = 4, 5000
	tr := mustNew(t, 64) // small rings force wrap-around pressure
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		r := tr.NewRing()
		go func() {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				r.Emit(Event{Region: uint64(tid), Kind: KindChunk, Arg: int64(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var got []Event
	for {
		got = tr.DrainAppend(got)
		select {
		case <-done:
			got = tr.DrainAppend(got) // final sweep after producers stop
			goto check
		default:
		}
	}
check:
	lastArg := make([]int64, threads)
	for i := range lastArg {
		lastArg[i] = -1
	}
	for _, e := range got {
		if e.Arg <= lastArg[e.Tid] {
			t.Fatalf("tid %d: arg %d arrived after %d; per-ring FIFO order violated", e.Tid, e.Arg, lastArg[e.Tid])
		}
		lastArg[e.Tid] = e.Arg
	}
	if total := uint64(len(got)) + tr.Dropped(); total != threads*perThread {
		t.Errorf("drained %d + dropped %d = %d events, want %d", len(got), tr.Dropped(), total, threads*perThread)
	}
	if len(got) == 0 {
		t.Error("the concurrent drainer received no events at all")
	}
}

// synthetic builds a two-thread, one-region trace with known timings:
// region 5 runs 100ns..1100ns, thread 1 arrives at the end barrier 300ns
// after thread 0, one task is created on tid 0, stolen and run by tid 1.
func synthetic() Data {
	mk := func(ts int64, tid int32, k Kind, arg int64) Event {
		return Event{TS: ts, Arg: arg, Region: 5, Tid: tid, Kind: k}
	}
	evs := []Event{
		mk(100, 0, KindRegionFork, 2),
		mk(110, 0, KindImplicitBegin, 0),
		mk(120, 1, KindImplicitBegin, 0),
		mk(130, 0, KindChunk, ChunkArg(50, 0)),
		mk(140, 1, KindChunk, ChunkArg(50, 0)),
		mk(150, 0, KindTaskCreate, 0),
		mk(200, 1, KindTaskSteal, StealArg(0, 1, StealLocalityUnknown)),
		mk(210, 1, KindTaskBegin, 0),
		mk(400, 1, KindTaskEnd, 0),
		mk(500, 0, KindBarrierEnter, 0), // tid 0 arrives first: 600ns before the join
		mk(800, 1, KindBarrierEnter, 0), // tid 1 arrives 300ns later: 300ns before it
		mk(900, 0, KindBarrierLeave, 0),
		mk(910, 1, KindBarrierLeave, 0),
		mk(950, 1, KindImplicitEnd, 0),
		mk(960, 0, KindImplicitEnd, 0),
		mk(1100, 0, KindRegionJoin, 0),
	}
	return Data{Events: evs, Threads: 2, Start: time.Unix(0, 0)}
}

func TestSummarizeDerivedMetrics(t *testing.T) {
	s := Summarize(synthetic())
	if len(s.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(s.Regions))
	}
	m := s.Regions[0]
	if m.Gen != 5 || m.Threads != 2 {
		t.Errorf("region gen/threads = %d/%d, want 5/2", m.Gen, m.Threads)
	}
	if m.WallNS != 1000 {
		t.Errorf("wall = %dns, want 1000ns", m.WallNS)
	}
	if m.BarrierNS() != 900 || m.FinalBarNS != 900 { // 600 + 300: join − arrival
		t.Errorf("barrier wait = %dns (final %dns), want 900ns, all final", m.BarrierNS(), m.FinalBarNS)
	}
	if m.Samples != 2 || m.BusyNS != 1070 || m.MaxBusyNS != 680 { // 500−110 and 800−120
		t.Errorf("samples/busy/max busy = %d/%d/%d, want 2/1070/680", m.Samples, m.BusyNS, m.MaxBusyNS)
	}
	if m.ImbalanceNS != 300 {
		t.Errorf("imbalance = %dns, want 300ns (800-500)", m.ImbalanceNS)
	}
	wantShare := 900.0 / 2000.0
	if diff := m.WaitShare - wantShare; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("wait share = %v, want %v", m.WaitShare, wantShare)
	}
	if m.Chunks != 2 || m.ChunksPerThread[0] != 1 || m.ChunksPerThread[1] != 1 {
		t.Errorf("chunks = %d %v, want 2 [1 1]", m.Chunks, m.ChunksPerThread)
	}
	if m.TasksCreated != 1 || m.TasksRun != 1 || m.TasksStolen != 1 {
		t.Errorf("tasks c/r/s = %d/%d/%d, want 1/1/1", m.TasksCreated, m.TasksRun, m.TasksStolen)
	}
	if s.StealRate != 1.0 {
		t.Errorf("steal rate = %v, want 1.0", s.StealRate)
	}
	out := s.String()
	if !strings.Contains(out, "summary: regions=1") ||
		!strings.Contains(out, "tasks_stolen=1") ||
		!strings.Contains(out, "barrier_wait_ns=900") {
		t.Errorf("summary text missing machine line fields:\n%s", out)
	}
}

// TestSummarizeNestedLevels builds a depth-2 trace — an outer two-thread
// region (id 7) whose tid 0 forks a two-thread inner region (id 8, level 1)
// run by tid 0 and the inner worker tid 2 — and checks the per-level
// decode: region levels, the Levels breakdown, and the machine-line keys.
func TestSummarizeNestedLevels(t *testing.T) {
	mk := func(ts int64, tid int32, lvl uint8, region uint64, k Kind, arg int64) Event {
		return Event{TS: ts, Arg: arg, Region: region, Tid: tid, Kind: k, Level: lvl}
	}
	d := Data{Threads: 3, Start: time.Unix(0, 0), Events: []Event{
		mk(100, 0, 0, 7, KindRegionFork, 2),
		mk(110, 0, 0, 7, KindImplicitBegin, 0),
		mk(120, 1, 0, 7, KindImplicitBegin, 0),
		mk(200, 0, 1, 8, KindRegionFork, 2),
		mk(210, 0, 1, 8, KindImplicitBegin, 0),
		mk(220, 2, 1, 8, KindImplicitBegin, 0),
		mk(300, 0, 1, 8, KindBarrierEnter, 0),
		mk(310, 2, 1, 8, KindBarrierEnter, 0),
		mk(320, 0, 1, 8, KindBarrierLeave, 0),
		mk(320, 2, 1, 8, KindBarrierLeave, 0),
		mk(330, 2, 1, 8, KindImplicitEnd, 0),
		mk(340, 0, 1, 8, KindImplicitEnd, 0),
		mk(350, 0, 1, 8, KindRegionJoin, 0),
		mk(500, 0, 0, 7, KindBarrierEnter, 0),
		mk(510, 1, 0, 7, KindBarrierEnter, 0),
		mk(520, 0, 0, 7, KindBarrierLeave, 0),
		mk(520, 1, 0, 7, KindBarrierLeave, 0),
		mk(530, 0, 0, 7, KindImplicitEnd, 0),
		mk(530, 1, 0, 7, KindImplicitEnd, 0),
		mk(600, 0, 0, 7, KindRegionJoin, 0),
	}}
	s := Summarize(d)
	if len(s.Regions) != 2 {
		t.Fatalf("got %d regions, want 2", len(s.Regions))
	}
	if s.Regions[0].Gen != 7 || s.Regions[0].Level != 0 {
		t.Errorf("region 0 gen/level = %d/%d, want 7/0", s.Regions[0].Gen, s.Regions[0].Level)
	}
	if s.Regions[1].Gen != 8 || s.Regions[1].Level != 1 {
		t.Errorf("region 1 gen/level = %d/%d, want 8/1", s.Regions[1].Gen, s.Regions[1].Level)
	}
	if s.NestedRegions != 1 {
		t.Errorf("NestedRegions = %d, want 1", s.NestedRegions)
	}
	want := []LevelMetrics{
		{Level: 0, Regions: 1, MaxThreads: 2, TotalWall: 500},
		{Level: 1, Regions: 1, MaxThreads: 2, TotalWall: 150},
	}
	if len(s.Levels) != 2 || s.Levels[0] != want[0] || s.Levels[1] != want[1] {
		t.Errorf("Levels = %+v, want %+v", s.Levels, want)
	}
	out := s.String()
	for _, key := range []string{
		"levels=2", "nested_regions=1",
		"level0_regions=1", "level0_threads=2",
		"level1_regions=1", "level1_threads=2",
	} {
		if !strings.Contains(out, key) {
			t.Errorf("summary text missing %q:\n%s", key, out)
		}
	}
	// The Chrome export must carry the level argument and still validate:
	// the inner span nests inside tid 0's outer span.
	var buf bytes.Buffer
	if err := WriteChrome(&buf, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !strings.Contains(buf.String(), `"level":1`) {
		t.Error("chrome JSON missing level arg")
	}
	if _, err := ValidateChrome(bytes.NewReader(buf.Bytes()), true); err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
}

// TestChromeRoundTrip writes the synthetic trace as Chrome JSON and
// validates its shape strictly (no drops, so spans must balance).
func TestChromeRoundTrip(t *testing.T) {
	d := synthetic()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, d); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	n, err := ValidateChrome(bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatalf("ValidateChrome: %v\n%s", err, buf.String())
	}
	if n != len(d.Events) {
		t.Errorf("validated %d events, want %d", n, len(d.Events))
	}
	for _, want := range []string{`"traceEvents"`, `"parallel region"`, `"barrier wait"`, `"task steal"`, `"thread_name"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("chrome JSON missing %s", want)
		}
	}
}

// Out-of-order timestamps and dangling spans must be rejected.
func TestValidateChromeRejects(t *testing.T) {
	bad := `{"traceEvents":[
		{"name":"a","ph":"B","ts":5,"pid":0,"tid":0},
		{"name":"b","ph":"i","s":"t","ts":2,"pid":0,"tid":0}]}`
	if _, err := ValidateChrome(strings.NewReader(bad), false); err == nil {
		t.Error("decreasing ts was not rejected")
	}
	dangling := `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]}`
	if _, err := ValidateChrome(strings.NewReader(dangling), true); err == nil {
		t.Error("unclosed span was not rejected in strict mode")
	}
	if _, err := ValidateChrome(strings.NewReader(dangling), false); err != nil {
		t.Errorf("lenient mode rejected a dangling span: %v", err)
	}
	if _, err := ValidateChrome(strings.NewReader(`{"traceEvents":[]}`), false); err == nil {
		t.Error("empty traceEvents was not rejected")
	}
}

// TestCollectSortsByTimestamp interleaves two rings with crossing
// timestamps; Collect must merge them into non-decreasing TS order.
func TestCollectSortsByTimestamp(t *testing.T) {
	tr := mustNew(t, 16)
	r0, r1 := tr.NewRing(), tr.NewRing()
	r0.Emit(Event{TS: 10, Region: 1, Kind: KindChunk, Arg: 0})
	r1.Emit(Event{TS: 20, Region: 1, Kind: KindChunk, Arg: 1})
	r0.Emit(Event{TS: 30, Region: 1, Kind: KindChunk, Arg: 2})
	d := tr.Collect()
	if len(d.Events) != 3 {
		t.Fatalf("collected %d events, want 3", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TS < d.Events[i-1].TS {
			t.Fatalf("events not time-ordered: %v after %v", d.Events[i].TS, d.Events[i-1].TS)
		}
	}
	if d.Threads != 2 || d.Dropped != 0 {
		t.Errorf("Data threads/dropped = %d/%d, want 2/0", d.Threads, d.Dropped)
	}
	for _, e := range d.Events {
		if want := int32(e.Arg % 2); e.Tid != want {
			t.Errorf("event %d has tid %d, want %d (rings number in hand-out order)", e.Arg, e.Tid, want)
		}
	}
}

// mustNew is New for capacities the test knows are valid.
func mustNew(t testing.TB, eventsPerThread int) *Tracer {
	t.Helper()
	tr, err := New(eventsPerThread, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNewRejectsHugeRings: a capacity past MaxBufferSize is an error, found
// before anything is allocated; MaxBufferSize itself and 0 (the default)
// are not.
func TestNewRejectsHugeRings(t *testing.T) {
	for _, n := range []int{MaxBufferSize + 1, 1<<62 + 1, math.MaxInt} {
		if _, err := New(n, time.Time{}); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
			t.Errorf("New(%d): err = %v, want the maximum-capacity error", n, err)
		}
	}
	for n, want := range map[int]int{0: DefaultBufferSize, -1: DefaultBufferSize, 5: 8, MaxBufferSize: MaxBufferSize} {
		tr, err := New(n, time.Time{})
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if tr.size != want {
			t.Errorf("New(%d): ring size %d, want %d", n, tr.size, want)
		}
	}
}

// BenchmarkEmit measures the enabled-path cost of one event record.
func BenchmarkEmit(b *testing.B) {
	tr := mustNew(b, 1<<20)
	r := tr.NewRing()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&(1<<19-1) == 0 {
			r.tail.Store(r.head.Load()) // keep the ring from filling
		}
		r.Emit(Event{TS: int64(i), Region: 1, Kind: KindChunk, Arg: int64(i)})
	}
}

// TestFoldsPassesWhatStepFolds: the kinds the runtime hands its rings alone
// — implicit-task end, task begin and the end-of-region barrier's leave —
// fail Folds, and every event Folds fails leaves a profile slot as it found
// it, mid-region with an explicit barrier's enter pending.
func TestFoldsPassesWhatStepFolds(t *testing.T) {
	for _, e := range []Event{{Kind: KindImplicitEnd}, {Kind: KindTaskBegin}, {Kind: KindBarrierLeave}} {
		if Folds(e.Kind, e.Arg) {
			t.Errorf("Folds passes %v with arg %d, which Step folds nothing of", e.Kind, e.Arg)
		}
	}
	var sc profile.Scratch
	Step(&sc, Event{Kind: KindImplicitBegin, Region: 3, TS: 10})
	Step(&sc, Event{Kind: KindBarrierEnter, Region: 3, TS: 20, Arg: 1})
	want := sc
	for k := KindRegionFork; k <= KindWake; k++ {
		for _, arg := range []int64{0, 1} {
			if Folds(k, arg) {
				continue
			}
			if Step(&sc, Event{Kind: k, Region: 3, TS: 40, Arg: arg}); sc != want {
				t.Errorf("%v with arg %d moved the slot to %+v, want %+v", k, arg, sc, want)
				sc = want
			}
		}
	}
}

// TestStealArgRoundTrip packs each StealArg field at its bounds and decodes
// it back unchanged.
func TestStealArgRoundTrip(t *testing.T) {
	for _, victim := range []int{0, 1, 0xffff} {
		for _, batch := range []int{1, 32, 0xffff} {
			for _, loc := range []StealLocality{StealLocalityUnknown, StealLocalityLocal, StealLocalityRemote} {
				e := Event{Kind: KindTaskSteal, Arg: StealArg(victim, batch, loc)}
				if e.StealVictim() != victim || e.StealBatch() != batch || e.StealLocality() != loc {
					t.Errorf("StealArg(%d, %d, %v) decodes as %d, %d, %v",
						victim, batch, loc, e.StealVictim(), e.StealBatch(), e.StealLocality())
				}
			}
		}
	}
}

// TestChunkArgRoundTrip packs iteration counts and claim spans at and past
// their field bounds: in range they decode unchanged, past it they saturate
// (negative ones read zero), and neither field spills into the other.
func TestChunkArgRoundTrip(t *testing.T) {
	const maxIters, maxClaim = 1<<32 - 1, 1<<31 - 1
	for _, c := range []struct {
		iters, wantIters int
		claim, wantClaim int64
	}{
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{maxIters, maxIters, maxClaim, maxClaim},
		{maxIters + 1, maxIters, maxClaim + 1, maxClaim},
		{math.MaxInt, maxIters, math.MaxInt64, maxClaim},
		{-1, 0, -1, 0},
		{maxIters, maxIters, 0, 0},
		{0, 0, maxClaim, maxClaim},
	} {
		e := Event{Kind: KindChunk, Arg: ChunkArg(c.iters, c.claim)}
		if e.ChunkIters() != c.wantIters || e.ClaimNS() != c.wantClaim || e.Arg < 0 {
			t.Errorf("ChunkArg(%d, %d) = %#x decodes as %d iterations, %d ns; want %d, %d",
				c.iters, c.claim, e.Arg, e.ChunkIters(), e.ClaimNS(), c.wantIters, c.wantClaim)
		}
	}
}
