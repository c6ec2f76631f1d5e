package omptune_test

import (
	"fmt"

	"omptune"
)

func ExampleParseConfig() {
	milan, _ := omptune.MachineByName("milan")
	cfg, err := omptune.ParseConfig(milan, []string{
		"OMP_PLACES=cores",
		"OMP_SCHEDULE=guided",
		"KMP_LIBRARY=turnaround",
	})
	if err != nil {
		panic(err)
	}
	// OMP_PROC_BIND was unset, so setting places implies spread (§III-2).
	fmt.Println(cfg.EffectiveBind())
	// Turnaround mode derives an infinite wait budget (§III).
	fmt.Println(cfg.EffectiveBlocktimeMS())
	// Output:
	// spread
	// -1
}

func ExampleDefaultConfig() {
	a64fx, _ := omptune.MachineByName("a64fx")
	cfg := omptune.DefaultConfig(a64fx)
	fmt.Println(cfg.Value("KMP_BLOCKTIME"), cfg.Value("OMP_SCHEDULE"), cfg.Value("KMP_ALIGN_ALLOC"))
	// Output: 200 static 256
}

func ExampleTune() {
	a64fx, _ := omptune.MachineByName("a64fx")
	nqueens, _ := omptune.ApplicationByName("Nqueens")
	set := omptune.Setting{Label: "medium", Threads: a64fx.Cores, Scale: 1}

	res := omptune.Tune(nil, a64fx, nqueens, set, nil, 100)
	fmt.Println("library:", res.Best.Value("KMP_LIBRARY"))
	fmt.Println("beats default:", res.Speedup() > 4)
	// Output:
	// library: turnaround
	// beats default: true
}
