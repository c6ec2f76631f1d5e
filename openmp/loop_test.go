package openmp

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func loopOpts(n int, sched ScheduleKind, chunk int) Options {
	o := DefaultOptions()
	o.NumThreads = n
	o.BlocktimeMS = 0
	o.Schedule = sched
	o.ChunkSize = chunk
	return o
}

func TestForAllSchedulesCoverRangeExactlyOnce(t *testing.T) {
	scheds := []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided, ScheduleAuto}
	for _, sched := range scheds {
		for _, chunk := range []int{0, 1, 7} {
			for _, nthreads := range []int{1, 3, 4} {
				rt := testRuntime(t, loopOpts(nthreads, sched, chunk))
				const n = 537
				hits := make([]int32, n)
				rt.Parallel(func(th *Thread) {
					th.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("%s chunk=%d threads=%d: iter %d ran %d times",
							sched, chunk, nthreads, i, h)
					}
				}
			}
		}
	}
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	for _, sched := range []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		rt := testRuntime(t, loopOpts(4, sched, 0))
		var ran atomic.Int32
		rt.Parallel(func(th *Thread) {
			th.For(0, func(i int) { ran.Add(1) })
			th.For(-5, func(i int) { ran.Add(1) })
			th.For(1, func(i int) { ran.Add(1) })
			th.For(2, func(i int) { ran.Add(1) })
		})
		if got := ran.Load(); got != 3 {
			t.Errorf("%s: ran = %d, want 3 (0 + 0 + 1 + 2)", sched, got)
		}
	}
}

func TestForStaticBlockPartitionIsContiguousAndBalanced(t *testing.T) {
	const n, nt = 100, 4
	rt := testRuntime(t, loopOpts(nt, ScheduleStatic, 0))
	owner := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.For(n, func(i int) { atomic.StoreInt32(&owner[i], int32(th.ID())) })
	})
	// With a block partition, owners must be non-decreasing and each thread
	// gets exactly n/nt iterations.
	counts := make([]int, nt)
	for i := 1; i < n; i++ {
		if owner[i] < owner[i-1] {
			t.Fatalf("static block partition not contiguous at %d: %d after %d", i, owner[i], owner[i-1])
		}
	}
	for _, o := range owner {
		counts[o]++
	}
	for id, c := range counts {
		if c != n/nt {
			t.Errorf("thread %d got %d iterations, want %d", id, c, n/nt)
		}
	}
}

func TestForStaticChunkedRoundRobin(t *testing.T) {
	const n, nt, chunk = 12, 2, 2
	rt := testRuntime(t, loopOpts(nt, ScheduleStatic, chunk))
	owner := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.For(n, func(i int) { atomic.StoreInt32(&owner[i], int32(th.ID())) })
	})
	// chunks of 2 dealt round-robin: 0,0,1,1,0,0,1,1,...
	want := []int32{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
}

func TestForDynamicRespectsChunkGranularity(t *testing.T) {
	const n, chunk = 30, 5
	rt := testRuntime(t, loopOpts(3, ScheduleDynamic, chunk))
	owner := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.For(n, func(i int) { atomic.StoreInt32(&owner[i], int32(th.ID()+1)) })
	})
	// Every aligned block of `chunk` iterations must have a single owner.
	for b := 0; b < n; b += chunk {
		for i := b; i < b+chunk; i++ {
			if owner[i] != owner[b] {
				t.Fatalf("chunk starting at %d split between threads: %v", b, owner[b:b+chunk])
			}
		}
	}
}

func TestForGuidedChunksShrink(t *testing.T) {
	// Single thread so the grab sequence is deterministic: each grab takes
	// remaining/(2*1) until the minimum chunk is reached.
	rt := testRuntime(t, loopOpts(1, ScheduleGuided, 0))
	const n = 64
	var starts []int
	prev := -1
	rt.Parallel(func(th *Thread) {
		th.For(n, func(i int) {
			if i != prev+1 {
				t.Errorf("guided single-thread iterations out of order: %d after %d", i, prev)
			}
			prev = i
			starts = append(starts, i)
		})
	})
	if prev != n-1 {
		t.Fatalf("last iteration = %d, want %d", prev, n-1)
	}
	if got := rt.Stats().Chunks; got != 7 {
		t.Errorf("guided on 64 iters used %d chunks, want 7 (32,16,8,4,2,1,1)", got)
	}
}

func TestForNowaitSkipsBarrier(t *testing.T) {
	// With ForNowait, a fast thread may proceed past the loop while others
	// still work; the explicit barrier afterwards restores order. We only
	// verify completeness and absence of deadlock here.
	rt := testRuntime(t, loopOpts(4, ScheduleDynamic, 1))
	const n = 200
	var ran atomic.Int32
	rt.Parallel(func(th *Thread) {
		th.ForNowait(n, func(i int) { ran.Add(1) })
		th.Barrier()
		if got := ran.Load(); got != n {
			t.Errorf("after barrier ran = %d, want %d", got, n)
		}
	})
}

func TestConsecutiveLoopsKeepConstructSequenceAligned(t *testing.T) {
	rt := testRuntime(t, loopOpts(4, ScheduleDynamic, 1))
	const n = 64
	a := make([]int32, n)
	b := make([]int32, n)
	rt.Parallel(func(th *Thread) {
		th.For(n, func(i int) { atomic.AddInt32(&a[i], 1) })
		th.For(0, func(i int) {}) // empty construct must still advance sequence
		th.For(n, func(i int) { atomic.AddInt32(&b[i], 1) })
	})
	for i := 0; i < n; i++ {
		if a[i] != 1 || b[i] != 1 {
			t.Fatalf("iter %d: a=%d b=%d, want 1 1", i, a[i], b[i])
		}
	}
}

func TestForPropertyAllSchedulesAllSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	scheds := []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided}
	rts := make(map[ScheduleKind]*Runtime)
	for _, s := range scheds {
		rts[s] = testRuntime(t, loopOpts(3, s, 0))
	}
	f := func(size uint16, schedIdx uint8) bool {
		n := int(size) % 2000
		rt := rts[scheds[int(schedIdx)%len(scheds)]]
		var sum atomic.Int64
		rt.Parallel(func(th *Thread) {
			th.For(n, func(i int) { sum.Add(int64(i)) })
		})
		return sum.Load() == int64(n)*int64(n-1)/2
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestLoopChunkAccounting checks Stats().Chunks for one For against the
// closed form of each schedule: the static block partition hands min(n, T)
// threads a non-empty block, static chunks and dynamic claims cut
// ceil(n / max(c, 1)) chunks, and guided follows its own recurrence. Guided's
// count is exact whatever the interleaving: each successful claim takes
// rem -> rem - size(rem), so the chain of remainders is fixed.
func TestLoopChunkAccounting(t *testing.T) {
	ceilDiv := func(n, c int) int { return (n + c - 1) / c }
	want := func(sched ScheduleKind, c, nt, n int) int {
		switch {
		case sched == ScheduleGuided:
			chunks := 0
			for rem := n; rem > 0; chunks++ {
				rem -= min(max(rem/(2*nt), c, 1), rem)
			}
			return chunks
		case sched == ScheduleStatic && c == 0:
			return min(n, nt)
		default:
			return ceilDiv(n, max(c, 1))
		}
	}
	for _, sched := range []ScheduleKind{ScheduleStatic, ScheduleDynamic, ScheduleGuided} {
		for _, c := range []int{0, 1, 7, 10} {
			for nt := 1; nt <= 4; nt++ {
				rt := testRuntime(t, loopOpts(nt, sched, c))
				for _, n := range []int{0, 1, 3, 7, 64, 100, 1000} {
					before := rt.Stats()
					rt.ParallelFor(n, func(int) {})
					if got, w := rt.Stats().Sub(before).Chunks, want(sched, c, nt, n); got != uint64(w) {
						t.Errorf("%s chunk=%d T=%d n=%d: %d chunks, want %d", sched, c, nt, n, got, w)
					}
				}
			}
		}
	}
}
