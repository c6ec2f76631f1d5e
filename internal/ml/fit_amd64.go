//go:build amd64 && !purego

package ml

import "math"

// maxLaneWidth is the widest design the lane kernel takes: its weight
// gradient lives in three YMM registers.
const maxLaneWidth = 12

// useLanes is whether FitLogistic runs the AVX2+FMA lane kernel: the CPU has
// both, the OS saves YMM state, and the kernel's exponential lanes give
// math.Exp's bits here. The last fails where math.Exp does not take its FMA
// path (GODEBUG=cpu.fma=off, cpu.avx=off), and the portable kernel runs.
var useLanes = haveAVX2FMA() && expLanesAgree()

// laneBlocks and expLanes are in fit_amd64.s.

//go:noescape
func laneBlocks(panel, rows, ts *float64, blocks, p, stride int, w *float64, b float64, gw *float64, gb float64) (done int, gbOut float64)

//go:noescape
func expLanes(x *[4]float64) bool

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() uint32

func haveAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 { // XMM and YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// expLanesAgree checks the lanes against math.Exp on a fixed probe set: the
// ends of the range, both zeros, and 1,024 points spread over it.
func expLanesAgree() bool {
	probes := []float64{0, math.Copysign(0, -1), -708, -1, -0.5, -math.Ln2 / 2, -1e-300}
	for i := 0; i < 1024; i++ {
		probes = append(probes, -708*float64(i)/1023+float64(i%7)*1e-3)
	}
	for len(probes)%4 != 0 {
		probes = append(probes, -2)
	}
	for i := 0; i < len(probes); i += 4 {
		var lanes [4]float64
		copy(lanes[:], probes[i:])
		if !expLanes(&lanes) {
			return false
		}
		for l, x := range probes[i : i+4] {
			if math.Float64bits(lanes[l]) != math.Float64bits(math.Exp(x)) {
				return false
			}
		}
	}
	return true
}

// laneEpoch is one epoch on the lane kernel: the 4-row blocks in assembly,
// a block it hands back and the last len(ts) mod 4 rows on the portable
// kernel, all in row order.
func (d *fitData) laneEpoch(w []float64, b float64, gw []float64) float64 {
	var acc [maxLaneWidth]float64
	copy(acc[:], gw)
	p, s := d.p, d.stride
	blocks := len(d.ts) / 4
	gb := 0.0
	for k := 0; k < blocks; {
		done, sum := laneBlocks(&d.panel[4*k*p], &d.xs[4*k*s], &d.ts[4*k], blocks-k, p, s, &w[0], b, &acc[0], gb)
		gb = sum
		if k += done; k < blocks {
			gb = d.rowEpoch(4*k, 4*k+4, w, b, gb, acc[:p])
			k++
		}
	}
	gb = d.rowEpoch(4*blocks, len(d.ts), w, b, gb, acc[:p])
	copy(gw, acc[:p])
	return gb
}
