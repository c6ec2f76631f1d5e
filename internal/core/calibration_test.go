package core

import (
	"fmt"
	"strings"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/topology"
)

// paperTableVI holds the per-application best-speedup ranges reported in
// Table VI, which the calibrated model must approximate in shape.
var paperTableVI = map[string][2]float64{
	"Alignment": {1.022, 1.186},
	"BT":        {1.027, 1.185},
	"CG":        {1.000, 1.857},
	"EP":        {1.000, 1.090},
	"FT":        {1.010, 1.545},
	"Health":    {1.282, 2.218},
	"LU":        {1.020, 1.121},
	"LULESH":    {1.004, 1.062},
	"MG":        {1.011, 2.167},
	"Nqueens":   {2.342, 4.851},
	"RSBench":   {1.004, 1.213},
	"Sort":      {1.174, 1.180},
	"Strassen":  {1.023, 1.025},
	"SU3Bench":  {1.002, 2.279},
	"XSbench":   {1.001, 2.602},
}

// fullSweep runs the Table II campaign once per test binary invocation.
var fullSweepDS *dataset.Dataset

func sweepOnce(t *testing.T) *dataset.Dataset {
	t.Helper()
	if fullSweepDS == nil {
		ds, err := RunSweep(SweepConfig{})
		if err != nil {
			t.Fatalf("RunSweep: %v", err)
		}
		fullSweepDS = ds
	}
	return fullSweepDS
}

// TestCalibrationReport prints the model's reproduction of Tables II, V, VI
// and the Q1 medians next to the paper's numbers. Run with -v to read it;
// the hard assertions live in the shape tests below.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)

	var b strings.Builder
	fmt.Fprintf(&b, "\nTable II (samples): ")
	for _, arch := range topology.Arches() {
		fmt.Fprintf(&b, "%s=%d ", arch, ds.ByArch(arch).Len())
	}
	fmt.Fprintf(&b, "total=%d (paper: 53822/90230/99707 = 243759)\n", ds.Len())

	fmt.Fprintf(&b, "\nQ1 medians of best speedups: ")
	for _, arch := range topology.Arches() {
		fmt.Fprintf(&b, "%s=%.3f ", arch, dataset.MedianOf(bestSpeedups(ds.ByArch(arch))))
	}
	fmt.Fprintf(&b, "(paper: a64fx 1.02, skylake 1.065, milan 1.15)\n")

	fmt.Fprintf(&b, "\nTable VI (best-speedup range per app) — measured vs paper:\n")
	for app, want := range paperTableVI {
		lo, hi := speedupRange(ds.ByApp(app))
		fmt.Fprintf(&b, "  %-10s %6.3f - %6.3f   (paper %.3f - %.3f)\n", app, lo, hi, want[0], want[1])
	}

	fmt.Fprintf(&b, "\nTable V (per arch):\n")
	for _, app := range []string{"Alignment", "XSbench"} {
		for _, arch := range topology.Arches() {
			sub := ds.ByApp(app).ByArch(arch)
			if sub.Len() == 0 {
				continue
			}
			lo, hi := speedupRange(sub)
			fmt.Fprintf(&b, "  %-10s %-8s %6.3f - %6.3f\n", app, arch, lo, hi)
		}
	}
	t.Log(b.String())
}
