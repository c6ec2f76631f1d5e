package openmp

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// scriptLoops returns thread views of one nt-thread loop of units units
// over fresh steal words, as forDynamic builds them.
func scriptLoops(units, nt int) []*stealLoop {
	words := make([]stealWord, nt)
	ls := make([]*stealLoop, nt)
	for t := range ls {
		l := &stealLoop{words: words, units: units, nt: nt, t: t, victim: t}
		l.b0, l.b1 = l.block(t)
		ls[t] = l
	}
	return ls
}

// claims calls next k times on l, stopping early once it reports nothing
// left.
func claims(l *stealLoop, k int) []int {
	var got []int
	for range k {
		u, ok := l.next()
		if !ok {
			break
		}
		got = append(got, u)
	}
	return got
}

// TestStealLoopScript drives three threads' views of a 30-unit loop through
// one fixed interleaving. Each takes its own block [10t, 10t+10) from the
// front; a thread whose range is empty steals from the back of the teammate
// it last robbed (starting after itself): a quarter of a remainder above 7
// units, else one unit, runs the first stolen unit and keeps the rest as its
// own range. Every unit is handed out exactly once.
func TestStealLoopScript(t *testing.T) {
	ls := scriptLoops(30, 3)
	step := func(tid, k int, want ...int) {
		t.Helper()
		if got := claims(ls[tid], k); !slices.Equal(got, want) {
			t.Fatalf("thread %d: claimed %v, want %v", tid, got, want)
		}
	}
	step(0, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9) // own block, front to back
	step(0, 1, 18)                            // t1 has [10,20): steals [18,20), keeps [19,20)
	step(2, 1, 20)
	step(1, 1, 10) // t1 has [11,18) left
	step(0, 1, 19) // front of the range it stole
	step(0, 2, 17, 16)
	step(1, 6, 11, 12, 13, 14, 15, 28) // then steals [28,30) from t2's [21,30)
	step(2, 7, 21, 22, 23, 24, 25, 26, 27)
	step(2, 1, 29) // t0 is empty; t1 keeps [29,30), which t2 steals
	for tid := range ls {
		if got := claims(ls[tid], 1); got != nil {
			t.Fatalf("thread %d: claimed %v from an exhausted loop", tid, got)
		}
	}
}

// TestStealUnitsBound checks the packed word's bound through stealUnits: a
// unit is one chunk up to stealMaxUnits chunks, and a longer loop packs the
// fewest chunks a unit that fit it, so no unit index passes the bound. No
// loop that long runs: at one chunk per claim it would take minutes.
func TestStealUnitsBound(t *testing.T) {
	cases := []struct{ n, c, units, per int }{
		{1, 1, 1, 1},
		{10, 3, 4, 1},
		{stealMaxUnits, 1, stealMaxUnits, 1},
		{stealMaxUnits * 7, 7, stealMaxUnits, 1},
		{stealMaxUnits*7 + 1, 7, stealMaxUnits/2 + 1, 2},
		{stealMaxUnits + 1, 1, stealMaxUnits/2 + 1, 2},
		{3*stealMaxUnits + 1, 1, 3*stealMaxUnits/4 + 1, 4},
	}
	for _, tc := range cases {
		units, per := stealUnits(tc.n, tc.c)
		if units != tc.units || per != tc.per {
			t.Errorf("stealUnits(%d, %d) = %d, %d; want %d, %d", tc.n, tc.c, units, per, tc.units, tc.per)
		}
		if units > stealMaxUnits || (units-1)*per*tc.c >= tc.n || units*per*tc.c < tc.n {
			t.Errorf("stealUnits(%d, %d) = %d units of %d chunks: do not cover the loop once", tc.n, tc.c, units, per)
		}
	}
	// Both halves round-trip at the bound, for any block bounds below it.
	for _, b := range [][2]int{{0, stealMaxUnits}, {stealMaxUnits / 3, stealMaxUnits / 2}, {stealMaxUnits, stealMaxUnits}} {
		for _, r := range [][2]int{{0, 0}, {stealMaxUnits, stealMaxUnits}, {1, stealMaxUnits}, {b[0], b[1]}} {
			if lo, hi := unpackSteal(packSteal(r[0], r[1], b[0], b[1]), b[0], b[1]); lo != r[0] || hi != r[1] {
				t.Errorf("block %v: range %v round-trips to [%d, %d)", b, r, lo, hi)
			}
		}
		if w := packSteal(b[0], b[1], b[0], b[1]); w != 0 {
			t.Errorf("block %v: the untouched block packs to %#x, want 0", b, w)
		}
	}
}

// spinWork burns roughly k iterations of arithmetic the compiler keeps.
func spinWork(k int) {
	x := uint64(k)
	for range k {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 42 {
		panic("unreachable")
	}
}

// blockOwner returns the thread whose static block holds unit u of a loop of
// units units over nt threads.
func blockOwner(u, units, nt int) int {
	l := stealLoop{units: units, nt: nt}
	for t := range nt {
		if b0, b1 := l.block(t); u >= b0 && u < b1 {
			return t
		}
	}
	return -1
}

// TestStaticStealStress runs 8 threads on GOMAXPROCS 2 through a chain of
// nowait dynamic loops longer than the construct ring, sizes 1 to 300 (some
// threads' blocks empty), thread 0's block made heavy so teammates steal from
// it. Every iteration must run exactly once, the loops must cut
// ceil(n/c) chunks in all, chunks must have been stolen, and every steal word
// must be zero once the region's constructs are released.
func TestStaticStealStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const nt, loops = 8, 2*constructRingSize + 5
	size := func(k int) int { return 1 + k*37%300 }
	for _, c := range []int{1, 3} {
		rt := testRuntime(t, loopOpts(nt, ScheduleDynamic, c))
		hits := make([][]atomic.Int32, loops)
		runner := make([][]atomic.Int32, loops)
		wantChunks := 0
		for k := range hits {
			hits[k] = make([]atomic.Int32, size(k))
			runner[k] = make([]atomic.Int32, size(k))
			wantChunks += (size(k) + c - 1) / c
		}
		before := rt.Stats()
		rt.Parallel(func(th *Thread) {
			for k := range loops {
				n := size(k)
				th.ForNowait(n, func(i int) {
					hits[k][i].Add(1)
					runner[k][i].Store(int32(th.ID()))
					if blockOwner(i/c, (n+c-1)/c, nt) == 0 {
						spinWork(500)
					}
				})
			}
		})
		if got := rt.Stats().Sub(before).Chunks; got != uint64(wantChunks) {
			t.Errorf("c=%d: %d chunks, want %d", c, got, wantChunks)
		}
		stolen := 0
		for k := range hits {
			n := size(k)
			for i := range hits[k] {
				if got := hits[k][i].Load(); got != 1 {
					t.Fatalf("c=%d loop %d (n=%d): iteration %d ran %d times", c, k, n, i, got)
				}
				if int(runner[k][i].Load()) != blockOwner(i/c, (n+c-1)/c, nt) {
					stolen++
				}
			}
		}
		if stolen == 0 {
			t.Errorf("c=%d: no iteration ran off its owner's block: nothing was stolen", c)
		}
		for i := range rt.hot.steal {
			if w := rt.hot.steal[i].Load(); w != 0 {
				t.Errorf("c=%d: steal word %d (slot %d, thread %d) is %#x after release",
					c, i, i/nt, i%nt, w)
			}
		}
	}
}

// TestStaticStealShape checks the dispatch's shape on a real two-thread
// region: a thread runs its own block from its first chunk up, in order,
// and steals only once that run ends, from the back of its teammate's
// range. Each thread's first chunk waits until both have claimed one, so no
// block is drained before its owner starts; after that thread 0's block is
// heavy, so thread 1 steals from it. With one possible thief, a thread whose
// first steal takes from its teammate's block finds that range still ending
// at the block's end, so the first chunk after its leading run lies in the
// last quarter of the teammate's block. (A first steal that takes back the
// thread's own chunks, which the teammate stole and holds, ends wherever
// the teammate's last steal did.)
func TestStaticStealShape(t *testing.T) {
	const nt, perThread = 2, 50
	const n = nt * perThread
	rt := testRuntime(t, loopOpts(nt, ScheduleDynamic, 1))
	for rep := range 20 {
		var started atomic.Int32
		seqs := make([][]int, nt)
		rt.Parallel(func(th *Thread) {
			me := th.ID()
			th.For(n, func(i int) {
				if len(seqs[me]) == 0 {
					started.Add(1)
					for deadline := time.Now().Add(5 * time.Second); started.Load() < nt && time.Now().Before(deadline); {
						runtime.Gosched()
					}
				}
				seqs[me] = append(seqs[me], i)
				if i < perThread {
					spinWork(2000)
				}
			})
		})
		for tid, seq := range seqs {
			b0 := tid * perThread
			if len(seq) == 0 || seq[0] != b0 {
				t.Fatalf("rep %d: thread %d ran %v first, want its block's first chunk %d", rep, tid, seq[:min(len(seq), 5)], b0)
			}
			k := 1 // the leading run b0, b0+1, ... the thread took from its front
			for k < len(seq) && seq[k] == b0+k {
				k++
			}
			if k < len(seq) && seq[k]/perThread != tid && seq[k]%perThread < perThread-perThread/4 {
				t.Fatalf("rep %d: thread %d ran %d..%d, then %d: a steal not from the back quarter of its teammate's block",
					rep, tid, b0, b0+k-1, seq[k])
			}
		}
	}
}
