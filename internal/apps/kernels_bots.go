package apps

import (
	"math"
	"sync/atomic"

	"omptune/openmp"
)

// alignmentInputs holds Alignment's batch of sequences.
var alignmentInputs = input[[][]byte]{build: func(scale float64) [][]byte {
	rng := newLCG(17)
	seqs := make([][]byte, scaleDim(24, scale, 0.5))
	for i := range seqs {
		l := 20 + rng.intn(60) // varying lengths: task imbalance
		s := make([]byte, l)
		for j := range s {
			s[j] = byte(rng.intn(20))
		}
		seqs[i] = s
	}
	return seqs
}}

// kernelAlignment performs pairwise global sequence alignment
// (Needleman–Wunsch score, linear space) over a deterministic batch of
// protein-like sequences of varying lengths — one explicit task per pair,
// the BOTS Alignment pattern.
func kernelAlignment(scale float64) func(*openmp.Runtime) float64 {
	seqs := alignmentInputs.get(scale)
	nseq := len(seqs)
	width := 0 // a DP row: the longest sequence's length + 1
	for _, s := range seqs {
		width = max(width, len(s)+1)
	}
	var rows []float64 // two DP rows per team thread
	score := func(th *openmp.Thread, a, b []byte) float64 {
		const gap, match, mismatch = -2.0, 3.0, -1.0
		prev := rows[2*th.ID()*width:][:len(b)+1]
		cur := rows[(2*th.ID()+1)*width:][:len(b)+1]
		for j := range prev {
			prev[j] = gap * float64(j)
		}
		for i := 1; i <= len(a); i++ {
			cur[0] = gap * float64(i)
			for j := 1; j <= len(b); j++ {
				s := mismatch
				if a[i-1] == b[j-1] {
					s = match
				}
				cur[j] = math.Max(prev[j-1]+s, math.Max(prev[j]+gap, cur[j-1]+gap))
			}
			prev, cur = cur, prev
		}
		return prev[len(b)]
	}
	var totalBits atomic.Uint64
	var tasks []func(*openmp.Thread) // one per pair, in spawn order
	for i := 0; i < nseq; i++ {
		for j := i + 1; j < nseq; j++ {
			tasks = append(tasks, func(th *openmp.Thread) {
				s := score(th, seqs[i], seqs[j])
				addFloat(&totalBits, s)
			})
		}
	}
	region := func(th *openmp.Thread) {
		th.Single(func() {
			for _, task := range tasks {
				th.Task(task)
			}
		})
	}
	return func(rt *openmp.Runtime) float64 {
		if need := 2 * rt.NumThreads() * width; len(rows) < need {
			rows = make([]float64, need)
		}
		totalBits.Store(0)
		rt.Parallel(region)
		return math.Float64frombits(totalBits.Load())
	}
}

// village is one node of Health's village tree; its id indexes the
// per-call patient backlog.
type village struct {
	id       int
	children []*village
}

// healthInput is Health's village tree and its node count.
type healthInput struct {
	root     *village
	villages int
}

var healthInputs = input[healthInput]{build: func(scale float64) healthInput {
	levels := 4
	if scale > 1.5 {
		levels = 5
	}
	nextID := 0
	var build func(level int) *village
	build = func(level int) *village {
		v := &village{id: nextID}
		nextID++
		if level > 0 {
			for c := 0; c < 3; c++ {
				v.children = append(v.children, build(level-1))
			}
		}
		return v
	}
	root := build(levels)
	return healthInput{root, nextID}
}}

// kernelHealth simulates a hierarchical health system: a tree of villages,
// each processing a patient queue per timestep, with one task per village
// per step (the BOTS Health pattern, deterministic variant).
func kernelHealth(scale float64) func(*openmp.Runtime) float64 {
	in := healthInputs.get(scale)
	root := in.root
	backlog := make([]float64, in.villages) // indexed by village id
	var treated atomic.Uint64
	t := 0                                             // the timestep being stepped
	tasks := make([]func(*openmp.Thread), in.villages) // village id -> its step at t
	var step func(th *openmp.Thread, v *village)
	step = func(th *openmp.Thread, v *village) {
		for _, c := range v.children {
			th.Task(tasks[c.id])
		}
		// Process this village's queue: deterministic pseudo-stochastic
		// arrivals and treatments.
		rng := newLCG(uint64(v.id)*2654435761 + uint64(t))
		arrivals := 2 + rng.intn(6)
		backlog[v.id] += float64(arrivals)
		cured := math.Min(backlog[v.id], 4)
		backlog[v.id] -= cured
		addFloat(&treated, cured)
		th.TaskWait()
	}
	var visit func(v *village)
	visit = func(v *village) {
		tasks[v.id] = func(th *openmp.Thread) { step(th, v) }
		for _, c := range v.children {
			visit(c)
		}
	}
	visit(root)
	region := func(th *openmp.Thread) {
		th.Single(func() {
			for t = 0; t < 6; t++ {
				step(th, root)
			}
		})
	}
	return func(rt *openmp.Runtime) float64 {
		clear(backlog)
		treated.Store(0)
		rt.Parallel(region)
		return math.Float64frombits(treated.Load())
	}
}

// kernelNQueens counts all N-queens solutions with recursive task
// parallelism and a sequential cutoff, the BOTS NQueens pattern.
func kernelNQueens(scale float64) func(*openmp.Runtime) float64 {
	n := 8
	if scale > 1.5 {
		n = 9
	}
	const cutoffDepth = 3
	var serial func(cols, diag1, diag2 uint32, row int) int64
	serial = func(cols, diag1, diag2 uint32, row int) int64 {
		if row == n {
			return 1
		}
		var count int64
		free := ^(cols | diag1 | diag2) & ((1 << n) - 1)
		for free != 0 {
			bit := free & (-free)
			free ^= bit
			count += serial(cols|bit, (diag1|bit)<<1, (diag2|bit)>>1, row+1)
		}
		return count
	}
	var total atomic.Int64
	// The task tree is fixed by n: explore builds the task of one board,
	// which at the cutoff depth counts serially and above it spawns the
	// task of each child board and waits for them.
	var explore func(cols, diag1, diag2 uint32, row int) func(*openmp.Thread)
	explore = func(cols, diag1, diag2 uint32, row int) func(*openmp.Thread) {
		if row >= cutoffDepth {
			return func(*openmp.Thread) { total.Add(serial(cols, diag1, diag2, row)) }
		}
		var children []func(*openmp.Thread)
		free := ^(cols | diag1 | diag2) & ((1 << n) - 1)
		for free != 0 {
			bit := free & (-free)
			free ^= bit
			children = append(children, explore(cols|bit, (diag1|bit)<<1, (diag2|bit)>>1, row+1))
		}
		return func(th *openmp.Thread) {
			for _, c := range children {
				th.Task(c)
			}
			th.TaskWait()
		}
	}
	root := explore(0, 0, 0, 0)
	region := func(th *openmp.Thread) {
		th.Single(func() { root(th) })
	}
	return func(rt *openmp.Runtime) float64 {
		total.Store(0)
		rt.Parallel(region)
		return float64(total.Load())
	}
}

// sortInputs holds Sort's unsorted keys.
var sortInputs = input[[]float64]{build: func(scale float64) []float64 {
	data := make([]float64, scaleDim(60000, scale, 1.0))
	rng := newLCG(23)
	for i := range data {
		data[i] = rng.float64()
	}
	return data
}}

// kernelSort is a task-parallel mergesort with an insertion-sort cutoff,
// the BOTS Sort pattern; it returns 0 misplacements plus a data checksum so
// an incorrect merge is caught.
func kernelSort(scale float64) func(*openmp.Runtime) float64 {
	run, _ := sortWorkspace(scale)
	return run
}

// sortWorkspace makes a workspace of kernelSort at scale: its run function
// and the keys a run leaves sorted.
func sortWorkspace(scale float64) (run func(*openmp.Runtime) float64, data []float64) {
	in := sortInputs.get(scale)
	n := len(in)
	data = make([]float64, n)
	tmp := make([]float64, n)
	const cutoff = 512
	insertion := func(a []float64) {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
	}
	merge := func(a, b, dst []float64) {
		i, j, k := 0, 0, 0
		for i < len(a) && j < len(b) {
			if a[i] <= b[j] {
				dst[k] = a[i]
				i++
			} else {
				dst[k] = b[j]
				j++
			}
			k++
		}
		copy(dst[k:], a[i:])
		copy(dst[k+len(a)-i:], b[j:])
	}
	// The mergesort tree is fixed by n: msort builds the task that sorts
	// data[lo:hi], which above the cutoff sorts its left half in a task and
	// its right half itself, then merges them through the scratch.
	var msort func(lo, hi int) func(*openmp.Thread)
	msort = func(lo, hi int) func(*openmp.Thread) {
		a, scratch := data[lo:hi], tmp[lo:hi]
		if len(a) <= cutoff {
			return func(*openmp.Thread) { insertion(a) }
		}
		mid := len(a) / 2
		left, right := msort(lo, lo+mid), msort(lo+mid, hi)
		return func(th *openmp.Thread) {
			th.Task(left)
			right(th)
			th.TaskWait()
			copy(scratch, a)
			merge(scratch[:mid], scratch[mid:], a)
		}
	}
	root := msort(0, n)
	region := func(th *openmp.Thread) {
		th.Single(func() { root(th) })
	}
	return func(rt *openmp.Runtime) float64 {
		copy(data, in)
		rt.Parallel(region)
		bad := 0.0
		for i := 1; i < n; i++ {
			if data[i] < data[i-1] {
				bad++
			}
		}
		return bad*1e6 + data[0] + data[n-1] + data[n/2]
	}, data
}

// strassenInput is Strassen's two factor matrices.
type strassenInput struct{ a, b []float64 }

var strassenInputs = input[strassenInput]{build: func(scale float64) strassenInput {
	n := 64
	if scale > 1.5 {
		n = 128
	}
	in := strassenInput{make([]float64, n*n), make([]float64, n*n)}
	rng := newLCG(29)
	for i := range in.a {
		in.a[i] = rng.float64() - 0.5
		in.b[i] = rng.float64() - 0.5
	}
	return in
}}

// kernelStrassen multiplies two deterministic square matrices with
// task-parallel Strassen recursion and a naive cutoff, the BOTS Strassen
// pattern. The checksum is of the product matrix, all of which a call
// writes.
func kernelStrassen(scale float64) func(*openmp.Runtime) float64 {
	n := 64
	if scale > 1.5 {
		n = 128
	}
	in := strassenInputs.get(scale)
	a, b := in.a, in.b
	type mat struct {
		d      []float64
		stride int
		n      int
	}
	sub := func(m mat, qi, qj int) mat {
		h := m.n / 2
		return mat{d: m.d[qi*h*m.stride+qj*h:], stride: m.stride, n: h}
	}
	newMat := func(n int) mat { return mat{d: make([]float64, n*n), stride: n, n: n} }
	naive := func(c, x, y mat) {
		for i := 0; i < c.n; i++ {
			for j := 0; j < c.n; j++ {
				s := 0.0
				for k := 0; k < c.n; k++ {
					s += x.d[i*x.stride+k] * y.d[k*y.stride+j]
				}
				c.d[i*c.stride+j] = s
			}
		}
	}
	addM := func(dst, x, y mat) {
		for i := 0; i < dst.n; i++ {
			for j := 0; j < dst.n; j++ {
				dst.d[i*dst.stride+j] = x.d[i*x.stride+j] + y.d[i*y.stride+j]
			}
		}
	}
	subM := func(dst, x, y mat) {
		for i := 0; i < dst.n; i++ {
			for j := 0; j < dst.n; j++ {
				dst.d[i*dst.stride+j] = x.d[i*x.stride+j] - y.d[i*y.stride+j]
			}
		}
	}
	const cutoff = 16
	// The recursion is fixed by n: node builds the task that computes
	// c = x*y, naively at the cutoff, else from seven products of quadrant
	// sums, the temporaries of which it builds once, the first six products
	// in tasks.
	var node func(c, x, y mat) func(*openmp.Thread)
	node = func(c, x, y mat) func(*openmp.Thread) {
		if c.n <= cutoff {
			return func(*openmp.Thread) { naive(c, x, y) }
		}
		h := c.n / 2
		a11, a12 := sub(x, 0, 0), sub(x, 0, 1)
		a21, a22 := sub(x, 1, 0), sub(x, 1, 1)
		b11, b12 := sub(y, 0, 0), sub(y, 0, 1)
		b21, b22 := sub(y, 1, 0), sub(y, 1, 1)
		m := make([]mat, 7)
		for i := range m {
			m[i] = newMat(h)
		}
		t1, t2, t3, t4, t5 := newMat(h), newMat(h), newMat(h), newMat(h), newMat(h)
		t6, t7, t8, t9, t10 := newMat(h), newMat(h), newMat(h), newMat(h), newMat(h)
		run := [7]func(*openmp.Thread){node(m[0], t1, t2), node(m[1], t3, b11), node(m[2], a11, t4),
			node(m[3], a22, t5), node(m[4], t6, b22), node(m[5], t7, t8), node(m[6], t9, t10)}
		c11, c12 := sub(c, 0, 0), sub(c, 0, 1)
		c21, c22 := sub(c, 1, 0), sub(c, 1, 1)
		return func(th *openmp.Thread) {
			addM(t1, a11, a22)
			addM(t2, b11, b22)
			th.Task(run[0])
			addM(t3, a21, a22)
			th.Task(run[1])
			subM(t4, b12, b22)
			th.Task(run[2])
			subM(t5, b21, b11)
			th.Task(run[3])
			addM(t6, a11, a12)
			th.Task(run[4])
			subM(t7, a21, a11)
			addM(t8, b11, b12)
			th.Task(run[5])
			subM(t9, a12, a22)
			addM(t10, b21, b22)
			run[6](th)
			th.TaskWait()
			for i := 0; i < h; i++ {
				for j := 0; j < h; j++ {
					p := i*h + j
					c11.d[i*c11.stride+j] = m[0].d[p] + m[3].d[p] - m[4].d[p] + m[6].d[p]
					c12.d[i*c12.stride+j] = m[2].d[p] + m[4].d[p]
					c21.d[i*c21.stride+j] = m[1].d[p] + m[3].d[p]
					c22.d[i*c22.stride+j] = m[0].d[p] - m[1].d[p] + m[2].d[p] + m[5].d[p]
				}
			}
		}
	}
	c := newMat(n)
	root := node(c, mat{d: a, stride: n, n: n}, mat{d: b, stride: n, n: n})
	region := func(th *openmp.Thread) {
		th.Single(func() { root(th) })
	}
	return func(rt *openmp.Runtime) float64 {
		rt.Parallel(region)
		return checksum(c.d)
	}
}

// addFloat atomically accumulates a float64 into a bit-packed cell.
func addFloat(cell *atomic.Uint64, v float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}
