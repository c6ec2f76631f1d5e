// Package report renders the paper's tables and figures from a collected
// dataset: Tables I–VII as aligned text tables, the violin figures
// (Figs. 1, 5–7) as ASCII densities or CSV, and the influence heatmaps
// (Figs. 2–4) with shaded cells.
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// TableI prints the hardware configuration table.
func TableI(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CPU Architecture\t#Cores\t#Sockets\t#NUMA Nodes\tClock\tMemory\tCapacity (GB)")
	for _, m := range topology.All() {
		sockets := fmt.Sprintf("%d", m.Sockets)
		if m.Sockets == 1 {
			sockets = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.1f GHz\t%s\t%d\n",
			m.Name, m.Cores, sockets, m.NUMANodes, m.ClockGHz, m.Memory, m.MemGB)
	}
	return tw.Flush()
}

// TableII prints the dataset description (samples and applications per
// architecture).
func TableII(w io.Writer, f *core.Frame) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Architecture\tApplications\t#Samples")
	for _, r := range f.TableII() {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", topology.MustGet(r.Arch).Name, r.Apps, r.Samples)
	}
	return tw.Flush()
}

// TableIII prints the Wilcoxon consistency table for one app and setting.
func TableIII(w io.Writer, f *core.Frame, app, setting string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Architecture-Benchmark\tPair\tTest Stat\tp-value")
	for _, r := range f.WilcoxonTable(app, setting) {
		p := fmt.Sprintf("%.3g", r.PValue)
		if r.Degenerate {
			p = "1.0 (ties)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.1f\t%s\n", strings.ToLower(r.Group), r.Pair, r.Statistic, p)
	}
	return tw.Flush()
}

// TableIV prints the per-run-index runtime statistics table.
func TableIV(w io.Writer, f *core.Frame, app, setting string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Architecture-Application\tRuntime Idx\tMean (sec)\tStd Dev (sec)")
	for _, r := range f.RuntimeStats(app, setting, 3) {
		fmt.Fprintf(tw, "%s\tRuntime_%d\t%.3f\t%.3f\n", strings.ToLower(r.Group), r.Rep, r.Mean, r.Std)
	}
	return tw.Flush()
}

// TableV prints per-application, per-architecture speedup ranges.
func TableV(w io.Writer, f *core.Frame, apps []string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tArchitecture\tSpeedup Range (x)")
	for _, r := range f.TableV(apps) {
		fmt.Fprintf(tw, "%s\t%s\t%.3f - %.3f\n", r.App, r.Arch, r.Lo, r.Hi)
	}
	return tw.Flush()
}

// TableVI prints the per-application speedup ranges across architectures.
func TableVI(w io.Writer, f *core.Frame) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tSpeedup Range (x)")
	for _, r := range f.TableVI() {
		fmt.Fprintf(tw, "%s\t%.3f - %.3f\n", r.App, r.Lo, r.Hi)
	}
	return tw.Flush()
}

// TableVII prints the mined best-performing variables and values for the
// given applications.
func TableVII(w io.Writer, f *core.Frame, apps []string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tArch\tVariable\tValue")
	for _, app := range apps {
		for _, r := range f.Recommend(app) {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", app, arch, r.Variable, strings.Join(r.Values, "/"))
		}
	}
	return tw.Flush()
}

// Q1 prints the upshot summary of §V-Q1.
func Q1(w io.Writer, f *core.Frame) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Architecture\tBest-Speedup Range (x)\tMedian (x)\tSettings")
	for _, u := range f.Upshot() {
		fmt.Fprintf(tw, "%s\t%.3f - %.3f\t%.3f\t%d\n", u.Arch, u.MinBest, u.MaxBest, u.MedianBest, u.Settings)
	}
	return tw.Flush()
}

// Q4 prints the worst-performance trend analysis of §V-Q4.
func Q4(w io.Writer, f *core.Frame) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Variable\tValue\tLift among slowest 5%")
	for i, t := range f.WorstTrends() {
		if i >= 8 {
			break
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\n", t.Variable, t.Value, t.Lift)
	}
	return tw.Flush()
}

// shades maps an influence in [0,1] to an ASCII darkness ramp.
var shades = []byte(" .:-=+*#%@")

func shadeOf(v, max float64) byte {
	if max <= 0 {
		return shades[0]
	}
	i := int(v / max * float64(len(shades)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(shades) {
		i = len(shades) - 1
	}
	return shades[i]
}

// Heatmap renders an influence heatmap with shaded cells and numeric
// values, darker meaning larger influence (as in Figs. 2–4).
func Heatmap(w io.Writer, hm *core.Heatmap) error {
	maxV := 0.0
	for _, row := range hm.Cells {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 1, ' ', 0)
	fmt.Fprint(tw, "group")
	for _, f := range hm.Features {
		fmt.Fprintf(tw, "\t%s", shortFeature(f))
	}
	fmt.Fprintln(tw, "\tacc")
	for i, label := range hm.RowLabels {
		fmt.Fprint(tw, label)
		for _, v := range hm.Cells[i] {
			fmt.Fprintf(tw, "\t%c %.2f", shadeOf(v, maxV), v)
		}
		fmt.Fprintf(tw, "\t%.2f\n", hm.Accuracy[i])
	}
	return tw.Flush()
}

func shortFeature(f string) string {
	repl := map[string]string{
		"Input Size":          "input",
		"OMP_NUM_THREADS":     "threads",
		"OMP_PLACES":          "places",
		"OMP_PROC_BIND":       "bind",
		"OMP_SCHEDULE":        "sched",
		"KMP_LIBRARY":         "library",
		"KMP_BLOCKTIME":       "blocktime",
		"KMP_FORCE_REDUCTION": "reduction",
		"KMP_ALIGN_ALLOC":     "align",
		"Application":         "app",
		"Architecture":        "arch",
	}
	if s, ok := repl[f]; ok {
		return s
	}
	return f
}

// Fig2 renders the per-application influence heatmap from its fit
// (core.InfluenceHeatmap over core.PerApp).
func Fig2(w io.Writer, hm *core.Heatmap) error {
	return influenceFig(w, "Fig 2", "application", hm)
}

// Fig3 renders the per-architecture influence heatmap (core.PerArch) — the
// fit Q3 ranks, so a caller rendering both fits it once.
func Fig3(w io.Writer, hm *core.Heatmap) error {
	return influenceFig(w, "Fig 3", "architecture", hm)
}

// Fig4 renders the per-application-architecture influence heatmap
// (core.PerArchApp).
func Fig4(w io.Writer, hm *core.Heatmap) error {
	return influenceFig(w, "Fig 4", "application-architecture", hm)
}

func influenceFig(w io.Writer, fig, grouping string, hm *core.Heatmap) error {
	fmt.Fprintf(w, "%s: feature influence, grouped by %s (darker = larger)\n", fig, grouping)
	return Heatmap(w, hm)
}

// Violin renders one ASCII violin: a vertical density profile of the
// runtime distribution of one (arch, app, setting) group, with quartile
// marks — the unit of Figs. 1 and 5–7.
func Violin(w io.Writer, ds *dataset.Dataset, arch topology.Arch, app, setting string, rows int) error {
	for _, g := range ds.Groups() {
		if g.Arch == arch && g.App == app && g.Setting == setting {
			violin(w, &g, rows)
			return nil
		}
	}
	return fmt.Errorf("report: no samples for %s/%s/%s", arch, app, setting)
}

// meanRuntimes is the runtime distribution a violin draws: one mean runtime
// per configuration of the group.
func meanRuntimes(g *dataset.Group) []float64 {
	times := make([]float64, 0, len(g.Samples))
	for _, s := range g.Samples {
		times = append(times, s.MeanRuntime())
	}
	return times
}

func violin(w io.Writer, g *dataset.Group, rows int) {
	v := stats.ViolinOf(meanRuntimes(g), rows)
	maxD := 0.0
	for _, d := range v.Density {
		if d > maxD {
			maxD = d
		}
	}
	fmt.Fprintf(w, "%s-%s-%s  n=%d  mean=%.3fs  std=%.3fs\n", g.Arch, g.App, g.Setting, v.Desc.N, v.Desc.Mean, v.Desc.Std)
	const width = 50
	for i := len(v.Grid) - 1; i >= 0; i-- {
		bar := 0
		if maxD > 0 {
			bar = int(v.Density[i] / maxD * width)
		}
		mark := " "
		switch {
		case near(v.Grid[i], v.Desc.Median, v.Grid):
			mark = "M"
		case near(v.Grid[i], v.Desc.Q1, v.Grid) || near(v.Grid[i], v.Desc.Q3, v.Grid):
			mark = "Q"
		}
		fmt.Fprintf(w, "%9.3fs %s |%s\n", v.Grid[i], mark, strings.Repeat("#", bar))
	}
}

func near(g, target float64, grid []float64) bool {
	if len(grid) < 2 {
		return false
	}
	step := grid[1] - grid[0]
	return g <= target && target < g+step
}

// ViolinCSV writes the violin density grids of every setting of an app on
// every architecture in long CSV form (arch,setting,runtime,density) for
// external plotting — the open-data companion to Figs. 1 and 5–7.
func ViolinCSV(w io.Writer, ds *dataset.Dataset, app string, points int) error {
	fmt.Fprintln(w, "arch,setting,runtime_seconds,density")
	for _, g := range core.SettingGroups(ds, app) {
		v := stats.ViolinOf(meanRuntimes(&g), points)
		for i := range v.Grid {
			fmt.Fprintf(w, "%s,%s,%.6g,%.6g\n", g.Arch, g.Setting, v.Grid[i], v.Density[i])
		}
	}
	return nil
}

// Fig1 renders the Alignment violins of Fig. 1 (three input sizes on each
// architecture).
func Fig1(w io.Writer, f *core.Frame) error {
	return violinFigure(w, f, "Alignment", "Fig 1")
}

// Fig5 renders the BT violins of Fig. 5.
func Fig5(w io.Writer, f *core.Frame) error { return violinFigure(w, f, "BT", "Fig 5") }

// Fig6 renders the Health violins of Fig. 6.
func Fig6(w io.Writer, f *core.Frame) error { return violinFigure(w, f, "Health", "Fig 6") }

// Fig7 renders the RSBench violins of Fig. 7.
func Fig7(w io.Writer, f *core.Frame) error {
	return violinFigure(w, f, "RSBench", "Fig 7")
}

func violinFigure(w io.Writer, f *core.Frame, app, caption string) error {
	fmt.Fprintf(w, "%s: runtime distributions of the %s benchmark across the search space\n", caption, app)
	for _, g := range f.SettingGroups(app) {
		fmt.Fprintln(w)
		violin(w, &g, 20)
	}
	return nil
}

// Q2 prints the §V-Q2 analysis: whether the same environment variables
// define the upshot for an application on every architecture.
func Q2(w io.Writer, f *core.Frame) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tConsistent Variables\tOverlap (Jaccard)")
	for _, r := range f.Q2Consistency() {
		vars := make([]string, 0, len(r.Consistent))
		for _, v := range r.Consistent {
			vars = append(vars, string(v))
		}
		label := strings.Join(vars, ", ")
		if label == "" {
			label = "(none)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", r.App, label, r.Jaccard)
	}
	return tw.Flush()
}

// Q3 prints the §V-Q3 analysis from the fitted per-architecture heatmap:
// the per-architecture variable ranking and the share addressable through
// the derived OMP_WAIT_POLICY.
func Q3(w io.Writer, hm *core.Heatmap) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Architecture\tVariables (descending influence)\tOMP_WAIT_POLICY share")
	for _, r := range core.Q3BestVariables(hm) {
		parts := make([]string, 0, 3)
		for i, rv := range r.Ranked {
			if i >= 3 {
				break
			}
			parts = append(parts, fmt.Sprintf("%s (%.2f)", rv.Variable, rv.Influence))
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", r.Arch, strings.Join(parts, ", "), r.WaitPolicyShare)
	}
	return tw.Flush()
}
