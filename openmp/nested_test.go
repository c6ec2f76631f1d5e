package openmp

// Nested-parallelism correctness: depth-2/3 fork–join, per-level trace-ring
// identity, Stats coherence across levels and teams, the
// OMP_THREAD_LIMIT budget's graceful serialization, the serialized
// Runtime.Parallel-inside-a-region fallback, steady-state allocation
// freedom of cached inner teams, and the nesting-knob environment parsing.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"omptune/openmp/trace"
)

// nestedOpts configures an outer team of n threads with the given
// per-level width list and enough active levels to honour it.
func nestedOpts(widths ...int) Options {
	o := DefaultOptions()
	o.NumThreads = widths[0]
	o.BlocktimeMS = 0
	o.ThreadsPerLevel = widths
	o.MaxActiveLevels = len(widths)
	return o
}

func TestNestedForkJoinDepth2(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	var outer, inner atomic.Int32
	for rep := 0; rep < 5; rep++ {
		rt.Parallel(func(th *Thread) {
			outer.Add(1)
			if lvl := th.Level(); lvl != 0 {
				t.Errorf("outer body at level %d, want 0", lvl)
			}
			th.Parallel(func(ith *Thread) {
				inner.Add(1)
				if lvl := ith.Level(); lvl != 1 {
					t.Errorf("inner body at level %d, want 1", lvl)
				}
				if n := ith.NumThreads(); n != 2 {
					t.Errorf("inner team width %d, want 2", n)
				}
			})
		})
	}
	if got := outer.Load(); got != 10 {
		t.Errorf("outer body ran %d times, want 10", got)
	}
	if got := inner.Load(); got != 20 {
		t.Errorf("inner body ran %d times, want 20 (2 outer x 2 inner x 5 reps)", got)
	}
}

func TestNestedForkJoinDepth3(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2, 2))
	var leaf atomic.Int32
	var maxLevel atomic.Int32
	for rep := 0; rep < 3; rep++ {
		rt.Parallel(func(th *Thread) {
			th.Parallel(func(mid *Thread) {
				mid.Parallel(func(in *Thread) {
					leaf.Add(1)
					lvl := int32(in.Level())
					for {
						cur := maxLevel.Load()
						if lvl <= cur || maxLevel.CompareAndSwap(cur, lvl) {
							break
						}
					}
				})
			})
		})
	}
	if got := leaf.Load(); got != 24 {
		t.Errorf("leaf body ran %d times, want 24 (2*2*2 x 3 reps)", got)
	}
	if got := maxLevel.Load(); got != 2 {
		t.Errorf("max observed level %d, want 2", got)
	}
}

// TestNestedRingIdentity checks who writes to which trace ring, for inner
// teams built before StartTrace (warm) and while tracing (cold): an inner
// team's thread 0 runs on its parent's goroutine and shares its parent's
// ring, every inner worker has a ring of its own, distinct from every other
// worker's and disjoint from the outer team's, the outer team's threads
// write tids 0..n-1, and StopTrace leaves no thread holding a ring.
func TestNestedRingIdentity(t *testing.T) {
	const outerN = 3
	for _, warm := range []bool{true, false} {
		t.Run(map[bool]string{true: "warm", false: "cold"}[warm], func(t *testing.T) {
			rt := testRuntime(t, nestedOpts(outerN, 2))
			fork := func(th *Thread) { th.Parallel(func(*Thread) {}) }
			if warm {
				rt.Parallel(fork)
			}
			if err := rt.StartTrace(1 << 10); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			type rec struct {
				id           int
				ring, parent *trace.Ring
			}
			var recs []rec
			outer := map[*trace.Ring]bool{}
			rt.Parallel(func(th *Thread) {
				mu.Lock()
				outer[th.ring] = true
				mu.Unlock()
				th.Parallel(func(ith *Thread) {
					mu.Lock()
					recs = append(recs, rec{ith.ID(), ith.ring, th.ring})
					mu.Unlock()
				})
			})
			d := rt.StopTrace()

			if len(outer) != outerN || outer[nil] {
				t.Fatalf("outer team wrote to %d distinct rings (nil among them: %v), want %d",
					len(outer), outer[nil], outerN)
			}
			if len(recs) != outerN*2 {
				t.Fatalf("recorded %d inner threads, want %d", len(recs), outerN*2)
			}
			workers := map[*trace.Ring]bool{}
			for _, r := range recs {
				switch {
				case r.id == 0 && r.ring != r.parent:
					t.Errorf("inner thread 0 writes to ring %p, want its parent's %p", r.ring, r.parent)
				case r.id == 0:
				case r.ring == nil || outer[r.ring]:
					t.Errorf("inner worker ring %p is nil or an outer thread's", r.ring)
				case workers[r.ring]:
					t.Errorf("inner worker ring %p handed to two workers", r.ring)
				default:
					workers[r.ring] = true
				}
			}
			if d.Threads != outerN+len(workers) {
				t.Errorf("trace covers %d rings, want %d outer + %d inner workers", d.Threads, outerN, len(workers))
			}
			for _, e := range d.Events {
				if e.Level == 0 && (e.Tid < 0 || e.Tid >= outerN) {
					t.Fatalf("outer event %v on tid %d, want one of 0..%d", e.Kind, e.Tid, outerN-1)
				}
			}
			for _, tm := range rt.liveTeams() {
				for i := range tm.threads {
					if tm.threads[i].ring != nil {
						t.Fatalf("level-%d thread %d still holds a ring after StopTrace", tm.level, i)
					}
				}
			}
		})
	}
}

// TestNestedStatsCoherence pins the Stats accounting across levels: Regions
// counts regions at every level, NestedRegions the level>=1 subset.
func TestNestedStatsCoherence(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	base := rt.Stats()
	const reps = 4
	for rep := 0; rep < reps; rep++ {
		rt.Parallel(func(th *Thread) {
			th.Parallel(func(*Thread) {})
		})
	}
	d := rt.Stats().Sub(base)
	wantOuter := uint64(reps)
	wantInner := uint64(reps * 2) // each of 2 outer threads forks one inner region
	if d.Regions != wantOuter+wantInner {
		t.Errorf("Regions delta %d, want %d", d.Regions, wantOuter+wantInner)
	}
	if d.NestedRegions != wantInner {
		t.Errorf("NestedRegions delta %d, want %d", d.NestedRegions, wantInner)
	}

	// Across teams: counters land on the shards of teams built before,
	// during and after a StartTrace/StopTrace cycle, on the misc shard for a
	// transient serialized region and a contended Lock, and Stats sums all
	// of them. Every leaf region runs one static loop (one chunk per
	// thread) and one task.
	rt = testRuntime(t, nestedOpts(2, 2, 2, 2))
	leaf := func(th *Thread) {
		th.For(64, func(int) {})
		if th.ID() == 0 {
			th.Task(func(*Thread) {})
		}
	}
	var deep func(depth int) func(*Thread)
	deep = func(depth int) func(*Thread) {
		if depth == 0 {
			return leaf
		}
		inner := deep(depth - 1)
		return func(th *Thread) { th.Parallel(inner) }
	}
	lock := rt.NewLock()
	var held int
	base = rt.Stats()
	rt.Parallel(deep(1)) // builds the level-1 teams: 1 + 2 regions, 2 leaves
	if err := rt.StartTrace(0); err != nil {
		t.Fatal(err)
	}
	rt.Parallel(deep(2)) // builds the level-2 teams while traced: 1 + 2 + 4, 4 leaves
	rt.StopTrace()
	rt.Parallel(deep(3)) // builds the level-3 teams: 1 + 2 + 4 + 8, 8 leaves
	rt.Parallel(func(th *Thread) {
		if th.ID() == 0 {
			rt.Parallel(leaf) // transient serialized: 1 nested region, width 1
		}
		for i := 0; i < 64; i++ {
			lock.Lock()
			held++
			lock.Unlock()
		}
	})
	const regions, leaves, leafThreads = 3 + 7 + 15 + 2, 2 + 4 + 8, 2*(2+4+8) + 1
	d = rt.Stats().Sub(base)
	want := Stats{Regions: regions, NestedRegions: regions - 4, Chunks: leafThreads, TasksRun: leaves + 1}
	got := Stats{Regions: d.Regions, NestedRegions: d.NestedRegions, Chunks: d.Chunks, TasksRun: d.TasksRun}
	if got != want {
		t.Errorf("across teams: Stats delta %+v, want %+v", got, want)
	}
	if held != 2*64 {
		t.Errorf("lock held %d times, want %d", held, 2*64)
	}
	rt.Close()
	if s := rt.Stats(); s.Sleeps != s.Wakeups || s.Sub(base).Regions != regions {
		t.Errorf("after Close: Sleeps %d, Wakeups %d, %d regions — want equal and %d",
			s.Sleeps, s.Wakeups, s.Sub(base).Regions, regions)
	}
}

// TestThreadLimitSerializesNested exhausts the contention-group budget:
// with OMP_THREAD_LIMIT equal to the outer team size there is no headroom,
// so every nested fork gracefully serializes to width 1 — never an error.
func TestThreadLimitSerializesNested(t *testing.T) {
	o := nestedOpts(2, 4)
	o.ThreadLimit = 2
	rt := testRuntime(t, o)
	var inner atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Parallel(func(ith *Thread) {
			inner.Add(1)
			if n := ith.NumThreads(); n != 1 {
				t.Errorf("budget-exhausted inner team width %d, want 1", n)
			}
		})
	})
	if got := inner.Load(); got != 2 {
		t.Errorf("inner body ran %d times, want 2 (once per serialized fork)", got)
	}
}

// TestThreadLimitPartialGrant gives the budget one spare worker: the two
// racing forks want width 4 each, but between them only one extra worker is
// granted, so the inner widths sum to exactly the thread limit.
func TestThreadLimitPartialGrant(t *testing.T) {
	o := nestedOpts(2, 4)
	o.ThreadLimit = 3
	rt := testRuntime(t, o)
	var widths atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Parallel(func(ith *Thread) {
			if ith.ID() == 0 {
				widths.Add(int32(ith.NumThreads()))
			}
		})
	})
	if got := widths.Load(); got != 3 {
		t.Errorf("inner widths sum to %d, want 3 (outer 2 + 1 budgeted worker)", got)
	}
}

// TestMaxActiveLevelsSerializes bounds nesting depth: with two active
// levels allowed, a depth-3 fork runs width 1 even though the width list
// asks for 2.
func TestMaxActiveLevelsSerializes(t *testing.T) {
	o := nestedOpts(2, 2, 2)
	o.MaxActiveLevels = 2
	rt := testRuntime(t, o)
	var depth3 atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.Parallel(func(mid *Thread) {
			mid.Parallel(func(in *Thread) {
				depth3.Add(1)
				if n := in.NumThreads(); n != 1 {
					t.Errorf("depth-3 team width %d, want 1 (max active levels = 2)", n)
				}
			})
		})
	})
	if got := depth3.Load(); got != 4 {
		t.Errorf("depth-3 body ran %d times, want 4", got)
	}
}

// TestNestingOffByDefault pins the default behaviour: without a width list
// or an explicit OMP_MAX_ACTIVE_LEVELS, inner forks serialize (one active
// level), matching libomp's nesting-off default.
func TestNestingOffByDefault(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	rt.Parallel(func(th *Thread) {
		th.Parallel(func(ith *Thread) {
			if n := ith.NumThreads(); n != 1 {
				t.Errorf("default nested team width %d, want 1", n)
			}
		})
	})
}

// TestRuntimeParallelInsideRegionSerializes is the successor of the retired
// TestNestedParallelPanics: a Runtime.Parallel call from inside an active
// region no longer panics — it runs the body once, serialized, and the
// runtime stays fully usable.
func TestRuntimeParallelInsideRegionSerializes(t *testing.T) {
	rt := testRuntime(t, optsN(2))
	var nested atomic.Int32
	rt.Parallel(func(th *Thread) {
		if th.ID() != 0 {
			return
		}
		rt.Parallel(func(ith *Thread) {
			nested.Add(1)
			if n := ith.NumThreads(); n != 1 {
				t.Errorf("serialized nested region width %d, want 1", n)
			}
			if lvl := ith.Level(); lvl != 1 {
				t.Errorf("serialized nested region level %d, want 1", lvl)
			}
		})
	})
	if got := nested.Load(); got != 1 {
		t.Errorf("serialized nested body ran %d times, want 1", got)
	}
	var ran atomic.Int32
	rt.Parallel(func(*Thread) { ran.Add(1) })
	if ran.Load() != 2 {
		t.Errorf("region after nested call ran %d threads, want 2", ran.Load())
	}
}

// TestNestedWorksharing runs a full worksharing loop plus reduction on the
// inner team, checking that inner construct state (ring, barrier) is
// confined to the inner contention group and produces exact results.
func TestNestedWorksharing(t *testing.T) {
	rt := testRuntime(t, nestedOpts(2, 2))
	var total atomic.Int64
	const n = 100
	rt.Parallel(func(th *Thread) {
		th.Parallel(func(ith *Thread) {
			local := int64(0)
			ith.ForNowait(n, func(i int) { local += int64(i) })
			ith.Barrier()
			total.Add(local)
		})
	})
	want := int64(2) * n * (n - 1) / 2 // each of the 2 inner teams sums 0..n-1
	if got := total.Load(); got != want {
		t.Errorf("nested worksharing total %d, want %d", got, want)
	}
}

// TestNestedSteadyStateZeroAlloc is the nested headline criterion: once a
// thread's inner hot team is warm, a full depth-2 fork–join dispatches
// through cached teams and allocates nothing.
func TestNestedSteadyStateZeroAlloc(t *testing.T) {
	o := nestedOpts(2, 2)
	o.Library = LibTurnaround
	rt := testRuntime(t, o)
	innerBody := func(*Thread) {}
	body := func(th *Thread) { th.Parallel(innerBody) }
	for i := 0; i < 10; i++ {
		rt.Parallel(body) // warm outer and inner hot teams
	}
	if allocs := testing.AllocsPerRun(100, func() { rt.Parallel(body) }); allocs != 0 {
		t.Errorf("steady-state nested Parallel: %.1f allocs/op, want 0", allocs)
	}
}

func TestOptionsNestingEnviron(t *testing.T) {
	o, err := OptionsFromEnviron([]string{
		"OMP_NUM_THREADS=4,2",
		"OMP_MAX_ACTIVE_LEVELS=2",
		"OMP_THREAD_LIMIT=8",
	})
	if err != nil {
		t.Fatalf("OptionsFromEnviron: %v", err)
	}
	if o.NumThreads != 4 {
		t.Errorf("NumThreads %d, want 4", o.NumThreads)
	}
	if fmt.Sprint(o.ThreadsPerLevel) != "[4 2]" {
		t.Errorf("ThreadsPerLevel %v, want [4 2]", o.ThreadsPerLevel)
	}
	if o.MaxActiveLevels != 2 {
		t.Errorf("MaxActiveLevels %d, want 2", o.MaxActiveLevels)
	}
	if o.ThreadLimit != 8 {
		t.Errorf("ThreadLimit %d, want 8", o.ThreadLimit)
	}
	// A single-entry list must not leave a stale per-level list behind.
	o, err = OptionsFromEnviron([]string{"OMP_NUM_THREADS=3"})
	if err != nil {
		t.Fatalf("OptionsFromEnviron single: %v", err)
	}
	if o.NumThreads != 3 || o.ThreadsPerLevel != nil {
		t.Errorf("single entry: NumThreads=%d ThreadsPerLevel=%v, want 3 and nil",
			o.NumThreads, o.ThreadsPerLevel)
	}
}

func TestOptionsNestingEnvironErrors(t *testing.T) {
	for _, env := range []string{
		"OMP_NUM_THREADS=4,,2",
		"OMP_NUM_THREADS=4,x",
		"OMP_NUM_THREADS=0",
		"OMP_NUM_THREADS=4,-1",
		"OMP_NUM_THREADS=",
		"OMP_MAX_ACTIVE_LEVELS=0",
		"OMP_MAX_ACTIVE_LEVELS=abc",
		"OMP_THREAD_LIMIT=-3",
	} {
		if _, err := OptionsFromEnviron([]string{env}); err == nil {
			t.Errorf("OptionsFromEnviron(%q): want error, got nil", env)
		}
	}
}

func TestParseThreadList(t *testing.T) {
	got, err := ParseThreadList(" 4 , 2 ,1")
	if err != nil {
		t.Fatalf("ParseThreadList: %v", err)
	}
	if fmt.Sprint(got) != "[4 2 1]" {
		t.Errorf("ParseThreadList = %v, want [4 2 1]", got)
	}
	for _, bad := range []string{"", ",", "1,", "4,,2", "a", "4,x", "0", "2,0", "4,-1"} {
		if _, err := ParseThreadList(bad); err == nil {
			t.Errorf("ParseThreadList(%q): want error, got nil", bad)
		}
	}
}

// TestWidthForLevel pins the width-resolution helper: list entries apply
// per level, the last entry extends to deeper levels, and an empty list
// falls back to NumThreads.
func TestWidthForLevel(t *testing.T) {
	o := DefaultOptions()
	o.NumThreads = 8
	o.ThreadsPerLevel = []int{8, 4, 2}
	for lvl, want := range map[int]int{0: 8, 1: 4, 2: 2, 3: 2, 9: 2} {
		if got := o.widthForLevel(lvl); got != want {
			t.Errorf("widthForLevel(%d) = %d, want %d", lvl, got, want)
		}
	}
	o.ThreadsPerLevel = nil
	if got := o.widthForLevel(1); got != 8 {
		t.Errorf("widthForLevel with no list = %d, want NumThreads 8", got)
	}
}

// TestEffectiveMaxActiveLevels pins the default interactions: an explicit
// OMP_MAX_ACTIVE_LEVELS wins, a multi-entry width list implies nesting to
// its depth, and the bare default keeps nesting serialized.
func TestEffectiveMaxActiveLevels(t *testing.T) {
	o := DefaultOptions()
	if got := o.effectiveMaxActiveLevels(); got != 1 {
		t.Errorf("default effectiveMaxActiveLevels = %d, want 1", got)
	}
	o.ThreadsPerLevel = []int{4, 2}
	if got := o.effectiveMaxActiveLevels(); got != 2 {
		t.Errorf("list-implied effectiveMaxActiveLevels = %d, want 2", got)
	}
	o.MaxActiveLevels = 5
	if got := o.effectiveMaxActiveLevels(); got != 5 {
		t.Errorf("explicit effectiveMaxActiveLevels = %d, want 5", got)
	}
}
