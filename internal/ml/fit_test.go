package ml

import (
	"math"
	"math/rand"
	"testing"
)

// identity is a Standardizer that leaves p columns as they are, so a test
// hands the kernels its values unchanged.
func identity(p int) *Standardizer {
	s := &Standardizer{Mean: make([]float64, p), Std: make([]float64, p)}
	for j := range s.Std {
		s.Std[j] = 1
	}
	return s
}

// sameBits is bit equality, with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// kernelsAgree runs one epoch of both kernels on the rows x (taken as
// already standardised) at the model (w, b), both adding to the same
// starting gw, and reports the first bit that differs.
func kernelsAgree(t *testing.T, x [][]float64, y []bool, w []float64, b float64, gw0 []float64) {
	t.Helper()
	p := len(w)
	port := newFitData(x, y, identity(p), false)
	lane := newFitData(x, y, identity(p), true)
	if want := p >= 1 && p <= maxLaneWidth; lane.lanes != want {
		t.Fatalf("p = %d: lane layout %v, want %v", p, lane.lanes, want)
	}
	gwPort, gwLane := append([]float64(nil), gw0...), append([]float64(nil), gw0...)
	gbPort, gbLane := port.epoch(w, b, gwPort), lane.epoch(w, b, gwLane)
	if !sameBits(gbPort, gbLane) {
		t.Fatalf("n = %d, p = %d: gb portable %v (%#x), lanes %v (%#x)", len(x), p,
			gbPort, math.Float64bits(gbPort), gbLane, math.Float64bits(gbLane))
	}
	for j := range gwPort {
		if !sameBits(gwPort[j], gwLane[j]) {
			t.Fatalf("n = %d, p = %d: gw[%d] portable %v (%#x), lanes %v (%#x)", len(x), p, j,
				gwPort[j], math.Float64bits(gwPort[j]), gwLane[j], math.Float64bits(gwLane[j]))
		}
	}
}

// randomDesign is n seeded rows of p normal values times scale(i) for row i,
// with random labels.
func randomDesign(rng *rand.Rand, n, p int, scale func(i int) float64) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * scale(i)
		}
		y[i] = rng.Intn(2) == 1
	}
	return x, y
}

func randomVec(rng *rand.Rand, p int, scale float64) []float64 {
	v := make([]float64, p)
	for j := range v {
		v[j] = rng.NormFloat64() * scale
	}
	return v
}

// The lane kernel is the portable one to the bit: over every width up to
// past the register budget (where the lane layout must not be built), every
// tail length, and a design whose large blocks the lanes hand back.
func TestFitKernelsAgree(t *testing.T) {
	if !useLanes {
		t.Skip("lane kernel unavailable")
	}
	rng := rand.New(rand.NewSource(11))
	unit := func(int) float64 { return 1 }
	ns := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1003}
	for p := 0; p <= 16; p++ {
		for _, n := range ns {
			x, y := randomDesign(rng, n, p, unit)
			for _, ws := range []float64{0.1, 1, 4} {
				kernelsAgree(t, x, y, randomVec(rng, p, ws), rng.NormFloat64(), randomVec(rng, p, 1))
			}
		}
	}

	// Every third block scaled up: its |z| leaves the lanes' range, and the
	// blocks between stay in it.
	const n, p = 1003, 10
	big := func(i int) float64 {
		if i/4%3 == 0 {
			return 1e4
		}
		return 1
	}
	x, y := randomDesign(rng, n, p, big)
	w, b := randomVec(rng, p, 1), 0.25
	handedBack, kept := 0, 0
	for blk := 0; blk+4 <= n; blk += 4 {
		out := false
		for _, row := range x[blk : blk+4] {
			z := b
			for j, v := range row {
				z += float64(w[j] * v)
			}
			out = out || -math.Abs(z) < -708
		}
		if out {
			handedBack++
		} else {
			kept++
		}
	}
	if handedBack == 0 || kept == 0 {
		t.Fatalf("scaled design: %d blocks out of range, %d in, want both", handedBack, kept)
	}
	kernelsAgree(t, x, y, w, b, make([]float64, p))
}

// The exponential lanes are math.Exp to the bit over [-708, 0], and refuse
// a block holding a NaN or anything lower.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !useLanes {
		t.Skip("lane kernel unavailable")
	}
	xs := []float64{0, math.Copysign(0, -1), -708, -math.SmallestNonzeroFloat64, -0x1p-1022, -1e-300, -math.Ln2, -0.5 * math.Ln2}
	rng := rand.New(rand.NewSource(12))
	for len(xs) < 1<<20 {
		xs = append(xs, -708*rng.Float64(), -math.Exp(rng.Float64()*math.Log(708)))
	}
	for i := 0; i+4 <= len(xs); i += 4 {
		var lanes [4]float64
		copy(lanes[:], xs[i:])
		if !expLanes(&lanes) {
			t.Fatalf("lanes refused %v", xs[i:i+4])
		}
		for l, x := range xs[i : i+4] {
			if want := math.Exp(x); math.Float64bits(lanes[l]) != math.Float64bits(want) {
				t.Fatalf("exp lane of %v (%#x) = %v, math.Exp %v", x, math.Float64bits(x), lanes[l], want)
			}
		}
	}
	// Below -708 the scale 2^k would leave the normal range near -708.40,
	// where math.Exp's results turn subnormal.
	for _, x := range []float64{math.NaN(), math.Nextafter(-708, math.Inf(-1)), -708.3964185322641, -745.2, math.Inf(-1)} {
		lanes := [4]float64{0, -1, x, -2}
		if expLanes(&lanes) {
			t.Errorf("lanes took a block holding %v", x)
		}
	}
}

// FuzzFitKernels is a differential between the two epoch kernels on small
// designs: each cell, weight and the intercept is a byte pair read as a
// signed mantissa and a power of two up to 2^15, so large blocks leave the
// lanes' range.
func FuzzFitKernels(f *testing.F) {
	f.Add(uint8(3), uint8(9), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(11), uint8(13), []byte{0x80, 0x17, 0x7f, 0x17, 0x40, 0, 0xc0, 3})
	f.Add(uint8(12), uint8(4), []byte{0xff, 0x10, 0x01, 0x02})
	f.Add(uint8(16), uint8(21), []byte{0x33, 0x05})
	f.Fuzz(func(t *testing.T, p, n uint8, cells []byte) {
		if !useLanes {
			t.Skip("lane kernel unavailable")
		}
		next := func() float64 {
			if len(cells) < 2 {
				return 0
			}
			m, e := int8(cells[0]), int(cells[1]%24)-8
			cells = cells[2:]
			return math.Ldexp(float64(m), e)
		}
		np, nn := int(p%17), int(n%24)
		w, b := make([]float64, np), next()
		for j := range w {
			w[j] = next()
		}
		x := make([][]float64, nn)
		y := make([]bool, nn)
		for i := range x {
			x[i] = make([]float64, np)
			for j := range x[i] {
				x[i][j] = next()
			}
			y[i] = i%3 == 0
		}
		kernelsAgree(t, x, y, w, b, make([]float64, np))
	})
}
