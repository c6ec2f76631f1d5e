package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"omptune/internal/ml"
)

// TestAnalysisReport prints the model's reproduction of Table III, IV, VII
// and Figs. 2-4 summaries for calibration inspection (-v).
func TestAnalysisReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	var b strings.Builder

	fmt.Fprintf(&b, "\nTable III (Wilcoxon, alignment-small):\n")
	for _, r := range NewFrame(ds).WilcoxonTable("Alignment", "small") {
		fmt.Fprintf(&b, "  %-26s %-7s stat=%12.1f p=%.3g degenerate=%v\n", r.Group, r.Pair, r.Statistic, r.PValue, r.Degenerate)
	}

	fmt.Fprintf(&b, "\nTable IV (runtime stats, alignment-small):\n")
	for _, r := range NewFrame(ds).RuntimeStats("Alignment", "small", 3) {
		fmt.Fprintf(&b, "  %-26s Runtime_%d mean=%.3f std=%.3f\n", r.Group, r.Rep, r.Mean, r.Std)
	}

	fmt.Fprintf(&b, "\nTable VII (recommendations):\n")
	for _, app := range []string{"Nqueens", "CG"} {
		for _, r := range NewFrame(ds).Recommend(app) {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			fmt.Fprintf(&b, "  %-8s %-8s %-20s %v (lift %.2f)\n", app, arch, r.Variable, r.Values, r.Lift)
		}
	}

	fmt.Fprintf(&b, "\nQ4 worst trends:\n")
	for i, w := range WorstTrends(ds) {
		if i >= 6 {
			break
		}
		fmt.Fprintf(&b, "  %-20s = %-12s lift %.2f\n", w.Variable, w.Value, w.Lift)
	}

	opt := ml.LogisticOptions{}
	fig3, err := InfluenceHeatmap(ds, PerArch, opt)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	fmt.Fprintf(&b, "\nFig 3 (per-arch influence), feature rank: %v\n", featureRank(fig3))
	for i, row := range fig3.RowLabels {
		fmt.Fprintf(&b, "  %-8s acc=%.3f ", row, fig3.Accuracy[i])
		for j, f := range fig3.Features {
			fmt.Fprintf(&b, "%s=%.2f ", abbrev(f), fig3.Cells[i][j])
		}
		fmt.Fprintln(&b)
	}

	fig2, err := InfluenceHeatmap(ds, PerApp, opt)
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	fmt.Fprintf(&b, "\nFig 2 (per-app influence), Architecture column:\n")
	for _, app := range fig2.RowLabels {
		fmt.Fprintf(&b, "  %-10s arch=%.3f\n", app, fig2.RowInfluence(app, FeatArch))
	}
	t.Log(b.String())
}

func abbrev(f string) string {
	switch f {
	case FeatInput:
		return "input"
	case FeatNT:
		return "nt"
	case FeatApp:
		return "app"
	case FeatArch:
		return "arch"
	case "OMP_PLACES":
		return "places"
	case "OMP_PROC_BIND":
		return "bind"
	case "OMP_SCHEDULE":
		return "sched"
	case "KMP_LIBRARY":
		return "lib"
	case "KMP_BLOCKTIME":
		return "bt"
	case "KMP_FORCE_REDUCTION":
		return "red"
	case "KMP_ALIGN_ALLOC":
		return "align"
	}
	return f
}

// featureRank returns the features of a heatmap ordered by mean influence
// across rows, most influential first — the reading the paper gives of
// Fig. 3 (threads, then proc_bind, then places, ...).
func featureRank(h *Heatmap) []string {
	means := make([]float64, len(h.Features))
	for _, row := range h.Cells {
		for j, v := range row {
			means[j] += v
		}
	}
	idx := make([]int, len(h.Features))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return means[idx[a]] > means[idx[b]] })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = h.Features[j]
	}
	return out
}
