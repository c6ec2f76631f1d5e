// Package report renders the paper's tables and figures from a collected
// dataset: Tables I–VII as aligned text tables, the violin figures
// (Figs. 1, 5–7) as ASCII densities or CSV, and the influence heatmaps
// (Figs. 2–4) with shaded cells.
package report

import (
	"fmt"
	"io"
	"slices"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// Write renders every table and figure of the paper from ds, in paper
// order, each under a "======== title ========" header. Each header and
// each section reach w as one Write call.
func Write(w io.Writer, ds *dataset.Dataset) error {
	// Every section reads one frame of ds. The section that first needs a
	// grouping's fit pays for it; Q3 ranks and Fig 3 draws the same
	// per-architecture one (the costliest single step of the report).
	// Every section renders into p, one buffer for the whole pass.
	f, p := core.NewFrame(ds), &page{w: w}
	w = p
	fits := map[core.Grouping]*core.Heatmap{}
	fitted := func(g core.Grouping, render func(io.Writer, *core.Heatmap) error) error {
		if fits[g] == nil {
			hm, err := f.InfluenceHeatmap(g, ml.LogisticOptions{})
			if err != nil {
				return err
			}
			fits[g] = hm
		}
		return render(w, fits[g])
	}
	sections := []struct {
		title  string
		render func() error
	}{
		{"Table I: hardware configuration", func() error { return TableI(w) }},
		{"Table II: dataset description", func() error { return TableII(w, f) }},
		{"Table III: Wilcoxon run-consistency (Alignment, small)", func() error { return TableIII(w, f, "Alignment", "small") }},
		{"Table IV: runtime statistics per run index (Alignment, small)", func() error { return TableIV(w, f, "Alignment", "small") }},
		{"Table V: speedup ranges per application and architecture", func() error { return TableV(w, f, []string{"Alignment", "XSbench"}) }},
		{"Table VI: speedup ranges per application", func() error { return TableVI(w, f) }},
		{"Table VII: best performing variables and values", func() error { return TableVII(w, f, []string{"Nqueens", "CG"}) }},
		{"Q1: upshot potential per architecture", func() error { return Q1(w, f) }},
		{"Q2: variable-set consistency across architectures", func() error { return Q2(w, f) }},
		{"Q3: best variables per architecture", func() error { return fitted(core.PerArch, Q3) }},
		{"Q4: worst-performance trends", func() error { return Q4(w, f) }},
		{"Fig 1: Alignment runtime distributions", func() error { return Fig1(w, f) }},
		{"Fig 2: influence per application", func() error { return fitted(core.PerApp, Fig2) }},
		{"Fig 3: influence per architecture", func() error { return fitted(core.PerArch, Fig3) }},
		{"Fig 4: influence per application-architecture", func() error { return fitted(core.PerArchApp, Fig4) }},
		{"Fig 5: BT runtime distributions", func() error { return Fig5(w, f) }},
		{"Fig 6: Health runtime distributions", func() error { return Fig6(w, f) }},
		{"Fig 7: RSBench runtime distributions", func() error { return Fig7(w, f) }},
	}
	for _, s := range sections {
		if err := p.s("\n======== ", s.title, " ========\n").flush(); err != nil {
			return err
		}
		if err := s.render(); err != nil {
			return fmt.Errorf("report: rendering %q: %w", s.title, err)
		}
	}
	return nil
}

// TableI prints the hardware configuration table.
func TableI(w io.Writer) error {
	p, t := table(w, "CPU Architecture\t#Cores\t#Sockets\t#NUMA Nodes\tClock\tMemory\tCapacity (GB)\n")
	for _, m := range topology.All() {
		p.s(m.Name, "\t").d(m.Cores).s("\t")
		if m.Sockets == 1 {
			p.s("-")
		} else {
			p.d(m.Sockets)
		}
		p.s("\t").d(m.NUMANodes).s("\t").num(m.ClockGHz, 'f', 1).s(" GHz\t", string(m.Memory), "\t").d(m.MemGB).s("\n")
	}
	return p.columns(t, 2)
}

// TableII prints the dataset description (samples and applications per
// architecture).
func TableII(w io.Writer, f *core.Frame) error {
	p, t := table(w, "Architecture\tApplications\t#Samples\n")
	for _, r := range f.TableII() {
		p.s(topology.MustGet(r.Arch).Name, "\t").d(r.Apps).s("\t").d(r.Samples).s("\n")
	}
	return p.columns(t, 2)
}

// TableIII prints the Wilcoxon consistency table for one app and setting.
func TableIII(w io.Writer, f *core.Frame, app, setting string) error {
	p, t := table(w, "Architecture-Benchmark\tPair\tTest Stat\tp-value\n")
	for _, r := range f.WilcoxonTable(app, setting) {
		p.lower(r.Group).s("\t", r.Pair, "\t").num(r.Statistic, 'f', 1).s("\t")
		if r.Degenerate {
			p.s("1.0 (ties)\n")
		} else {
			p.num(r.PValue, 'g', 3).s("\n")
		}
	}
	return p.columns(t, 2)
}

// TableIV prints the per-run-index runtime statistics table.
func TableIV(w io.Writer, f *core.Frame, app, setting string) error {
	p, t := table(w, "Architecture-Application\tRuntime Idx\tMean (sec)\tStd Dev (sec)\n")
	for _, r := range f.RuntimeStats(app, setting, 3) {
		p.lower(r.Group).s("\tRuntime_").d(r.Rep).s("\t").num(r.Mean, 'f', 3).s("\t").num(r.Std, 'f', 3).s("\n")
	}
	return p.columns(t, 2)
}

// TableV prints per-application, per-architecture speedup ranges.
func TableV(w io.Writer, f *core.Frame, apps []string) error {
	p, t := table(w, "Application\tArchitecture\tSpeedup Range (x)\n")
	for _, r := range f.TableV(apps) {
		p.s(r.App, "\t", string(r.Arch), "\t").num(r.Lo, 'f', 3).s(" - ").num(r.Hi, 'f', 3).s("\n")
	}
	return p.columns(t, 2)
}

// TableVI prints the per-application speedup ranges across architectures.
func TableVI(w io.Writer, f *core.Frame) error {
	p, t := table(w, "Application\tSpeedup Range (x)\n")
	for _, r := range f.TableVI() {
		p.s(r.App, "\t").num(r.Lo, 'f', 3).s(" - ").num(r.Hi, 'f', 3).s("\n")
	}
	return p.columns(t, 2)
}

// TableVII prints the mined best-performing variables and values for the
// given applications.
func TableVII(w io.Writer, f *core.Frame, apps []string) error {
	p, t := table(w, "App\tArch\tVariable\tValue\n")
	for _, app := range apps {
		for _, r := range f.Recommend(app) {
			arch := "All"
			if r.Arch != "" {
				arch = string(r.Arch)
			}
			p.s(app, "\t", arch, "\t", string(r.Variable), "\t")
			for i, v := range r.Values {
				p.s(sep(i, "/"), v)
			}
			p.s("\n")
		}
	}
	return p.columns(t, 2)
}

// Q1 prints the upshot summary of §V-Q1.
func Q1(w io.Writer, f *core.Frame) error {
	p, t := table(w, "Architecture\tBest-Speedup Range (x)\tMedian (x)\tSettings\n")
	for _, u := range f.Upshot() {
		p.s(string(u.Arch), "\t").num(u.MinBest, 'f', 3).s(" - ").num(u.MaxBest, 'f', 3).s("\t").num(u.MedianBest, 'f', 3).s("\t").d(u.Settings).s("\n")
	}
	return p.columns(t, 2)
}

// Q4 prints the worst-performance trend analysis of §V-Q4.
func Q4(w io.Writer, f *core.Frame) error {
	p, t := table(w, "Variable\tValue\tLift among slowest 5%\n")
	trends := f.WorstTrends()
	for _, r := range trends[:min(8, len(trends))] {
		p.s(string(r.Variable), "\t", r.Value, "\t").num(r.Lift, 'f', 2).s("x\n")
	}
	return p.columns(t, 2)
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
	p, t := table(w, "group")
	for _, f := range hm.Features {
		p.s("\t", shortFeature(f))
	}
	p.s("\tacc\n")
	for i, label := range hm.RowLabels {
		p.s(label)
		for _, v := range hm.Cells[i] {
			p.buf = append(p.buf, '\t', shadeOf(v, maxV), ' ')
			p.num(v, 'f', 2)
		}
		p.s("\t").num(hm.Accuracy[i], 'f', 2).s("\n")
	}
	return p.columns(t, 1)
}

// shortFeatures are the heatmap's column labels.
var shortFeatures = map[string]string{
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

func shortFeature(f string) string {
	if s, ok := shortFeatures[f]; ok {
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
	p := pageOf(w).s(fig, ": feature influence, grouped by ", grouping, " (darker = larger)\n")
	return Heatmap(p, hm)
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

// bars is the longest violin bar.
const bars = "##################################################"

func violin(p *page, g *dataset.Group, rows int) {
	v := stats.ViolinOf(meanRuntimes(g), rows)
	maxD := 0.0
	for _, d := range v.Density {
		if d > maxD {
			maxD = d
		}
	}
	p.s(string(g.Arch), "-", g.App, "-", g.Setting, "  n=").d(v.Desc.N).s("  mean=").num(v.Desc.Mean, 'f', 3).s("s  std=").num(v.Desc.Std, 'f', 3).s("s\n")
	for i := len(v.Grid) - 1; i >= 0; i-- {
		bar := 0
		if maxD > 0 {
			bar = int(v.Density[i] / maxD * float64(len(bars)))
		}
		mark := " "
		switch {
		case near(v.Grid[i], v.Desc.Median, v.Grid):
			mark = "M"
		case near(v.Grid[i], v.Desc.Q1, v.Grid) || near(v.Grid[i], v.Desc.Q3, v.Grid):
			mark = "Q"
		}
		n := len(p.buf)
		p.num(v.Grid[i], 'f', 3)
		for len(p.buf)-n < 9 { // %9.3f
			p.buf = slices.Insert(p.buf, n, ' ')
		}
		p.s("s ", mark, " |", bars[:bar], "\n")
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
	p := pageOf(w).s("arch,setting,runtime_seconds,density\n")
	for _, g := range core.SettingGroups(ds, app) {
		v := stats.ViolinOf(meanRuntimes(&g), points)
		for i := range v.Grid {
			p.s(string(g.Arch), ",", g.Setting, ",").num(v.Grid[i], 'g', 6).s(",").num(v.Density[i], 'g', 6).s("\n")
		}
	}
	return p.flush()
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
	p := pageOf(w).s(caption, ": runtime distributions of the ", app, " benchmark across the search space\n")
	for _, g := range f.SettingGroups(app) {
		violin(p.s("\n"), &g, 20)
	}
	return p.flush()
}

// Q2 prints the §V-Q2 analysis: whether the same environment variables
// define the upshot for an application on every architecture.
func Q2(w io.Writer, f *core.Frame) error {
	p, t := table(w, "Application\tConsistent Variables\tOverlap (Jaccard)\n")
	for _, r := range f.Q2Consistency() {
		p.s(r.App, "\t")
		if len(r.Consistent) == 0 {
			p.s("(none)")
		}
		for i, v := range r.Consistent {
			p.s(sep(i, ", "), string(v))
		}
		p.s("\t").num(r.Jaccard, 'f', 2).s("\n")
	}
	return p.columns(t, 2)
}

// Q3 prints the §V-Q3 analysis from the fitted per-architecture heatmap:
// the per-architecture variable ranking and the share addressable through
// the derived OMP_WAIT_POLICY.
func Q3(w io.Writer, hm *core.Heatmap) error {
	p, t := table(w, "Architecture\tVariables (descending influence)\tOMP_WAIT_POLICY share\n")
	for _, r := range core.Q3BestVariables(hm) {
		p.s(string(r.Arch), "\t")
		for i, rv := range r.Ranked[:min(3, len(r.Ranked))] {
			p.s(sep(i, ", "), string(rv.Variable), " (").num(rv.Influence, 'f', 2).s(")")
		}
		p.s("\t").num(r.WaitPolicyShare, 'f', 2).s("\n")
	}
	return p.columns(t, 2)
}
