package core

import (
	"math"
	"strings"
	"testing"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// cmpSample builds one sample with the given mean runtime and a relative
// per-rep spread (spread 0.01 gives a ~1% CoV, well under the gate).
func cmpSample(arch, app, setting string, align int, mean, spread float64) *dataset.Sample {
	s := &dataset.Sample{
		Arch: topology.Arch(arch), App: app, Setting: setting,
		Config:         env.Config{AlignAlloc: align},
		DefaultRuntime: mean,
	}
	for i := range s.Runtimes {
		// Deterministic, mean-preserving jitter: ±spread, ∓spread, ...
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		s.Runtimes[i] = mean * (1 + float64(sign*spread))
	}
	return s
}

// cmpDataset builds a dataset of nCfg configurations for one arch/app, with
// runtime = base * (1 + slope*i) so paired comparisons have a consistent
// per-config direction.
func cmpDataset(arch, app string, nCfg int, base, factor, spread float64) *dataset.Dataset {
	ds := &dataset.Dataset{}
	for i := 0; i < nCfg; i++ {
		mean := base * (1 + float64(0.05*float64(i))) * factor
		ds.Samples = append(ds.Samples, cmpSample(arch, app, "24/1.0", 8*(i+1), mean, spread))
	}
	return ds
}

func TestCompareDetectsSlowdown(t *testing.T) {
	oldDS := cmpDataset("a64fx", "CG", 12, 1.0, 1.0, 0.01)
	newDS := cmpDataset("a64fx", "CG", 12, 1.0, 1.10, 0.01) // 10% slower everywhere
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(rep.Groups))
	}
	g := rep.Groups[0]
	if g.Arch != "a64fx" || g.App != "CG" || g.Pairs != 12 || g.Noisy != 0 {
		t.Fatalf("group header wrong: %+v", g)
	}
	if !g.Regressed {
		t.Fatalf("10%% uniform slowdown not flagged: p=%v ratio=%v", g.PValue, g.MeanRatio)
	}
	if math.Abs(g.MeanRatio-1.10) > 0.001 {
		t.Fatalf("MeanRatio = %v, want ~1.10", g.MeanRatio)
	}
	if rep.Regressions() != 1 {
		t.Fatalf("Regressions() = %d, want 1", rep.Regressions())
	}
	if !strings.Contains(rep.String(), "REGRESSED") || !strings.Contains(rep.String(), "FAIL:") {
		t.Fatalf("report missing verdict:\n%s", rep.String())
	}
}

func TestCompareIdenticalAndImproved(t *testing.T) {
	oldDS := cmpDataset("milan", "Nqueens", 10, 2.0, 1.0, 0.01)

	// Identical datasets: every paired difference is zero → degenerate
	// Wilcoxon, which must pass, not crash.
	rep, err := CompareDatasets(oldDS, oldDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.Groups[0]; !g.Degenerate || g.Regressed {
		t.Fatalf("identical datasets: %+v", g)
	}
	if rep.Regressions() != 0 || !strings.Contains(rep.String(), "PASS:") {
		t.Fatalf("identical datasets should PASS:\n%s", rep.String())
	}

	// 10% faster: significant but an improvement, not a regression.
	newDS := cmpDataset("milan", "Nqueens", 10, 2.0, 0.90, 0.01)
	rep, err = CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g := rep.Groups[0]; !g.Improved || g.Regressed {
		t.Fatalf("speedup misclassified: %+v", g)
	}
}

func TestCompareCoVGateAndSmallShift(t *testing.T) {
	// A large but noise-dominated slowdown on two configs: their 40% rep CoV
	// trips the gate, so only the 10 stable (and unchanged) pairs are tested.
	oldDS := cmpDataset("skylake", "LULESH", 10, 1.0, 1.0, 0.01)
	newDS := cmpDataset("skylake", "LULESH", 10, 1.0, 1.0, 0.01)
	oldDS.Samples = append(oldDS.Samples, cmpSample("skylake", "LULESH", "24/1.0", 512, 1.0, 0.40))
	newDS.Samples = append(newDS.Samples, cmpSample("skylake", "LULESH", "24/1.0", 512, 3.0, 0.40))
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Groups[0]
	if g.Pairs != 11 || g.Noisy != 1 {
		t.Fatalf("pairs/noisy = %d/%d, want 11/1", g.Pairs, g.Noisy)
	}
	if g.Regressed {
		t.Fatalf("noise-only slowdown flagged as regression: %+v", g)
	}

	// A consistent but tiny (0.5%) slowdown: statistically significant with
	// 12 pairs, yet under the practical-significance floor → not flagged.
	oldDS = cmpDataset("skylake", "LULESH", 12, 1.0, 1.0, 0.001)
	newDS = cmpDataset("skylake", "LULESH", 12, 1.0, 1.005, 0.001)
	rep, err = CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g = rep.Groups[0]
	if g.PValue >= 0.05 {
		t.Fatalf("consistent shift should be significant, p=%v", g.PValue)
	}
	if g.Regressed {
		t.Fatalf("0.5%% shift flagged despite MinShift floor: %+v", g)
	}
}

func TestCompareUnpairedAndDisjoint(t *testing.T) {
	oldDS := cmpDataset("a64fx", "CG", 8, 1.0, 1.0, 0.01)
	newDS := cmpDataset("a64fx", "CG", 8, 1.0, 1.0, 0.01)
	// Rows unique to each side are counted, not compared.
	oldDS.Samples = append(oldDS.Samples, cmpSample("a64fx", "CG", "12/1.0", 8, 1.0, 0.01))
	newDS.Samples = append(newDS.Samples, cmpSample("a64fx", "SpMV", "24/1.0", 8, 1.0, 0.01))
	rep, err := CompareDatasets(oldDS, newDS, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnpairedOld != 1 || rep.UnpairedNew != 1 {
		t.Fatalf("unpaired = %d/%d, want 1/1", rep.UnpairedOld, rep.UnpairedNew)
	}

	// Fully disjoint datasets are an error, not an empty PASS.
	if _, err := CompareDatasets(cmpDataset("a64fx", "CG", 4, 1, 1, 0.01),
		cmpDataset("milan", "CG", 4, 1, 1, 0.01), CompareOptions{}); err == nil {
		t.Fatal("disjoint datasets: want error")
	}
}
