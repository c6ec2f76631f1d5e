//go:build !amd64 || purego

package ml

// Without the assembly every fit runs the portable kernel.
const (
	maxLaneWidth = 0
	useLanes     = false
)

func (d *fitData) laneEpoch(w []float64, b float64, gw []float64) float64 {
	panic("ml: no lane kernel on this platform")
}

func expLanes(x *[4]float64) bool { panic("ml: no lane kernel on this platform") }
