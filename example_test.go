package omptune_test

import (
	"fmt"
	"math"
	"strings"

	"omptune"
)

// Collect a sweep for one application on one architecture, then show how
// much headroom the environment variables leave over the default
// configuration and which configuration is best: the study's core loop.
func ExampleCollect() {
	// 15% of XSBench's configuration space on the AMD Milan model (the
	// paper's headline outlier: 2.6x from thread binding alone).
	ds, err := omptune.Collect(omptune.CollectOptions{
		Arches:   []omptune.Arch{omptune.Milan},
		Apps:     []string{"XSbench"},
		Fraction: map[omptune.Arch]float64{omptune.Milan: 0.15},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("collected %d samples\n", ds.Len())

	// Per setting (thread count), the best configuration found.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, g := range ds.Groups() {
		best := g.Best()
		fmt.Printf("%s default: %.3fs best: %.3fs speedup: %.2fx\n",
			best.SettingKey(), best.DefaultRuntime, best.MeanRuntime(), best.Speedup())
		fmt.Printf("  %s\n", best.Config)
		lo, hi = min(lo, best.Speedup()), max(hi, best.Speedup())
	}
	fmt.Printf("speedup range: %.3f - %.3f (paper Table V: 1.016 - 2.602)\n", lo, hi)
	// Output:
	// collected 4216 samples
	// milan/XSbench/t24 default: 4.159s best: 1.629s speedup: 2.55x
	//   places=cores|bind=spread|sched=guided|lib=turnaround|blocktime=0|red=unset|align=64
	// milan/XSbench/t48 default: 1.744s best: 0.901s speedup: 1.93x
	//   places=unset|bind=spread|sched=guided|lib=throughput|blocktime=infinite|red=atomic|align=512
	// milan/XSbench/t96 default: 0.630s best: 0.568s speedup: 1.11x
	//   places=unset|bind=true|sched=guided|lib=turnaround|blocktime=200|red=atomic|align=128
	// speedup range: 1.109 - 2.554 (paper Table V: 1.016 - 2.602)
}

// Mine Table VII-style recommendations (variable/value pairs consistently
// over-represented among the fastest configurations) and the §V-Q4
// worst-trend warnings from a reduced sweep.
func ExampleRecommend() {
	apps := []string{"Nqueens", "CG"}
	ds, err := omptune.Collect(omptune.CollectOptions{
		Apps:     apps,
		Fraction: map[omptune.Arch]float64{omptune.A64FX: 0.2, omptune.Skylake: 0.15, omptune.Milan: 0.15},
	})
	if err != nil {
		panic(err)
	}
	for _, app := range apps {
		for _, r := range omptune.Recommend(ds, app) {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			fmt.Printf("%-8s %-8s %-20s %s\n", app, arch, r.Variable, strings.Join(r.Values, "/"))
		}
	}
	for _, t := range omptune.WorstTrends(ds)[:3] {
		fmt.Printf("avoid %s=%s: %.1fx over-represented among the slowest 5%%\n", t.Variable, t.Value, t.Lift)
	}
	// Output:
	// Nqueens  All      KMP_LIBRARY          turnaround
	// Nqueens  a64fx    OMP_PROC_BIND        close
	// Nqueens  milan    OMP_PROC_BIND        close/spread/true
	// Nqueens  milan    KMP_BLOCKTIME        infinite
	// Nqueens  skylake  KMP_BLOCKTIME        infinite
	// CG       All      OMP_SCHEDULE         guided
	// CG       All      OMP_PROC_BIND        close
	// CG       a64fx    KMP_FORCE_REDUCTION  atomic
	// CG       a64fx    KMP_LIBRARY          turnaround
	// CG       milan    KMP_FORCE_REDUCTION  tree/unset
	// CG       milan    KMP_BLOCKTIME        infinite
	// CG       skylake  KMP_FORCE_REDUCTION  unset
	// CG       skylake  KMP_ALIGN_ALLOC      256
	// avoid OMP_PROC_BIND=master: 6.1x over-represented among the slowest 5%
	// avoid OMP_PLACES=cores: 2.0x over-represented among the slowest 5%
	// avoid OMP_PLACES=unset: 1.9x over-represented among the slowest 5%
}

func ExampleTune() {
	a64fx, _ := omptune.MachineByName("a64fx")
	nqueens, _ := omptune.ApplicationByName("Nqueens")
	set := omptune.Setting{Label: "medium", Threads: a64fx.Cores, Scale: 1}

	res, err := omptune.Tune(nil, a64fx, nqueens, set, nil, 100)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("library:", res.Best.Value("KMP_LIBRARY"))
	fmt.Println("beats default:", res.Speedup() > 4)
	// Output:
	// library: turnaround
	// beats default: true
}
