package apps

import (
	"math"
	"sync"

	"omptune/openmp"
)

// memo builds a value once per input scale and hands the same value to
// every later call at that scale: the pristine inputs of a kernel, shared
// read-only by its reps, runtimes and concurrent sweep workers. What a
// kernel writes, a copy of an input included, is in its workspace (kernel).
type memo[T any] struct {
	mu      sync.Mutex
	byScale map[float64]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	v    T
}

// get returns the value for scale, building it with build on first use.
// Callers at one scale wait for its one build; the map's lock is not held
// while building, so other scales build meanwhile.
func (m *memo[T]) get(scale float64, build func(scale float64) T) T {
	m.mu.Lock()
	e := m.byScale[scale]
	if e == nil {
		if m.byScale == nil {
			m.byScale = make(map[float64]*memoEntry[T])
		}
		e = new(memoEntry[T])
		m.byScale[scale] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v = build(scale) })
	return e.v
}

// input is a kernel's input: build makes it from the scale alone, and the
// memo keeps what it made.
type input[T any] struct {
	memo[T]
	build func(scale float64) T
}

func (in *input[T]) get(scale float64) T { return in.memo.get(scale, in.build) }

// kernel makes a study kernel from build (kernelBT, kernelCG, …), which
// makes a workspace for one scale: a call's run function, closing over all a call writes (buffers,
// the copies it makes of its inputs) and over the task closures and loop
// bodies it hands the runtime, built once. The kernel keeps free workspaces
// per scale; a call takes one, built only when none is free, and puts it
// back when it ends, so concurrent calls each hold their own and a warm call
// allocates nothing. A run resets what it reads before it writes it, so
// nothing that reaches a result crosses calls.
func kernel(build func(scale float64) func(rt *openmp.Runtime) float64) func(rt *openmp.Runtime, scale float64) float64 {
	var mu sync.Mutex
	free := make(map[float64][]func(*openmp.Runtime) float64)
	put := func(scale float64, run func(*openmp.Runtime) float64) {
		mu.Lock()
		free[scale] = append(free[scale], run)
		mu.Unlock()
	}
	return func(rt *openmp.Runtime, scale float64) float64 {
		var run func(*openmp.Runtime) float64
		mu.Lock()
		if list := free[scale]; len(list) > 0 {
			run, free[scale] = list[len(list)-1], list[:len(list)-1]
		}
		mu.Unlock()
		if run == nil {
			run = build(scale)
		}
		defer put(scale, run)
		return run(rt)
	}
}

// lcg is a small deterministic generator for building reproducible kernel
// inputs (sequences, matrices, lookup grids) without math/rand.
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed*2862933555777941757 + 3037000493} }

func (r *lcg) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

// float64 returns a uniform deviate in [0, 1).
func (r *lcg) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform integer in [0, n).
func (r *lcg) intn(n int) int {
	return int(r.next() % uint64(n))
}

// scaleDim scales a base problem dimension by the cube-ish root of the
// input scale so that total work grows roughly linearly with scale.
func scaleDim(base int, scale, exponent float64) int {
	n := int(math.Round(float64(base) * math.Pow(scale, exponent)))
	if n < 4 {
		n = 4
	}
	return n
}

// checksumWeights holds checksum's 97 weights, sin(k+1).
var checksumWeights = func() (w [97]float64) {
	for k := range w {
		w[k] = math.Sin(float64(k) + 1)
	}
	return
}()

// checksum folds a slice into a stable scalar for verification.
func checksum(xs []float64) float64 {
	s, c := 0.0, 0.0
	for i, x := range xs {
		v := x * checksumWeights[i%97]
		y := v - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}
