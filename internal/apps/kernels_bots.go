package apps

import (
	"math"
	"slices"
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
func kernelAlignment(rt *openmp.Runtime, scale float64) float64 {
	seqs := alignmentInputs.get(scale)
	nseq := len(seqs)
	score := func(a, b []byte) float64 {
		const gap, match, mismatch = -2.0, 3.0, -1.0
		prev := make([]float64, len(b)+1)
		cur := make([]float64, len(b)+1)
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
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() {
			for i := 0; i < nseq; i++ {
				for j := i + 1; j < nseq; j++ {
					i, j := i, j
					th.Task(func(*openmp.Thread) {
						s := score(seqs[i], seqs[j])
						addFloat(&totalBits, s)
					})
				}
			}
		})
	})
	return math.Float64frombits(totalBits.Load())
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
func kernelHealth(rt *openmp.Runtime, scale float64) float64 {
	in := healthInputs.get(scale)
	root := in.root
	backlog := make([]float64, in.villages) // indexed by village id
	var treated atomic.Uint64
	var step func(th *openmp.Thread, v *village, t int)
	step = func(th *openmp.Thread, v *village, t int) {
		for _, c := range v.children {
			c := c
			th.Task(func(inner *openmp.Thread) { step(inner, c, t) })
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
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() {
			for t := 0; t < 6; t++ {
				step(th, root, t)
			}
		})
	})
	return math.Float64frombits(treated.Load())
}

// kernelNQueens counts all N-queens solutions with recursive task
// parallelism and a sequential cutoff, the BOTS NQueens pattern.
func kernelNQueens(rt *openmp.Runtime, scale float64) float64 {
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
	var explore func(th *openmp.Thread, cols, diag1, diag2 uint32, row int)
	explore = func(th *openmp.Thread, cols, diag1, diag2 uint32, row int) {
		if row >= cutoffDepth {
			total.Add(serial(cols, diag1, diag2, row))
			return
		}
		free := ^(cols | diag1 | diag2) & ((1 << n) - 1)
		for free != 0 {
			bit := free & (-free)
			free ^= bit
			c, d1, d2 := cols|bit, (diag1|bit)<<1, (diag2|bit)>>1
			th.Task(func(inner *openmp.Thread) { explore(inner, c, d1, d2, row+1) })
		}
		th.TaskWait()
	}
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() { explore(th, 0, 0, 0, 0) })
	})
	return float64(total.Load())
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
func kernelSort(rt *openmp.Runtime, scale float64) float64 {
	data := slices.Clone(sortInputs.get(scale))
	n := len(data)
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
	var msort func(th *openmp.Thread, a, scratch []float64)
	msort = func(th *openmp.Thread, a, scratch []float64) {
		if len(a) <= cutoff {
			insertion(a)
			return
		}
		mid := len(a) / 2
		th.Task(func(inner *openmp.Thread) { msort(inner, a[:mid], scratch[:mid]) })
		msort(th, a[mid:], scratch[mid:])
		th.TaskWait()
		copy(scratch, a)
		merge(scratch[:mid], scratch[mid:], a)
	}
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() { msort(th, data, tmp) })
	})
	bad := 0.0
	for i := 1; i < n; i++ {
		if data[i] < data[i-1] {
			bad++
		}
	}
	return bad*1e6 + data[0] + data[n-1] + data[n/2]
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
// pattern. The checksum is of the product matrix.
func kernelStrassen(rt *openmp.Runtime, scale float64) float64 {
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
	var strassen func(th *openmp.Thread, c, x, y mat)
	strassen = func(th *openmp.Thread, c, x, y mat) {
		if c.n <= cutoff {
			naive(c, x, y)
			return
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
		run := func(c, x, y mat) func(*openmp.Thread) {
			return func(inner *openmp.Thread) { strassen(inner, c, x, y) }
		}
		t1, t2 := newMat(h), newMat(h)
		addM(t1, a11, a22)
		addM(t2, b11, b22)
		th.Task(run(m[0], t1, t2))
		t3, t4 := newMat(h), newMat(h)
		addM(t3, a21, a22)
		th.Task(run(m[1], t3, b11))
		subM(t4, b12, b22)
		th.Task(run(m[2], a11, t4))
		t5 := newMat(h)
		subM(t5, b21, b11)
		th.Task(run(m[3], a22, t5))
		t6, t7 := newMat(h), newMat(h)
		addM(t6, a11, a12)
		th.Task(run(m[4], t6, b22))
		subM(t7, a21, a11)
		t8 := newMat(h)
		addM(t8, b11, b12)
		th.Task(run(m[5], t7, t8))
		t9, t10 := newMat(h), newMat(h)
		subM(t9, a12, a22)
		addM(t10, b21, b22)
		strassen(th, m[6], t9, t10)
		th.TaskWait()
		c11, c12 := sub(c, 0, 0), sub(c, 0, 1)
		c21, c22 := sub(c, 1, 0), sub(c, 1, 1)
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
	c := mat{d: make([]float64, n*n), stride: n, n: n}
	rt.Parallel(func(th *openmp.Thread) {
		th.Single(func() {
			strassen(th, c, mat{d: a, stride: n, n: n}, mat{d: b, stride: n, n: n})
		})
	})
	return checksum(c.d)
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
