package report

import (
	"fmt"
	"io"
	"text/tabwriter"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/topology"
)

// PaperTableVI holds the per-application best-speedup ranges published in
// Table VI of the paper, used by CompareWithPaper to print measured values
// next to the published ones.
var PaperTableVI = map[string][2]float64{
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

// PaperTableV holds the published per-application, per-architecture ranges
// of Table V.
var PaperTableV = map[string]map[topology.Arch][2]float64{
	"Alignment": {
		topology.A64FX:   {1.032, 1.101},
		topology.Milan:   {1.022, 1.186},
		topology.Skylake: {1.065, 1.111},
	},
	"XSbench": {
		topology.A64FX:   {1.004, 1.015},
		topology.Milan:   {1.016, 2.602},
		topology.Skylake: {1.001, 1.002},
	},
}

// PaperQ1 holds the §V-Q1 medians and maxima per architecture.
var PaperQ1 = map[topology.Arch]struct{ Median, Max float64 }{
	topology.A64FX:   {1.02, 4.85},
	topology.Skylake: {1.065, 3.47},
	topology.Milan:   {1.15, 2.60},
}

// PaperTableII holds the published dataset sizes.
var PaperTableII = map[topology.Arch]struct{ Apps, Samples int }{
	topology.A64FX:   {15, 53822},
	topology.Skylake: {12, 90230},
	topology.Milan:   {13, 99707},
}

// CompareWithPaper prints measured-vs-published values for the quantitative
// artifacts (Tables II, V, VI and the Q1 summary) with a per-row shape
// verdict — the executable form of EXPERIMENTS.md.
func CompareWithPaper(w io.Writer, ds *dataset.Dataset) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)

	fmt.Fprintln(tw, "== Table II: dataset sizes ==")
	fmt.Fprintln(tw, "arch\tpaper apps/samples\tmeasured apps/samples\twithin 3%")
	for _, arch := range topology.Arches() {
		p := PaperTableII[arch]
		sub := ds.ByArch(arch)
		apps := len(sub.Apps())
		ok := within(float64(sub.Len()), float64(p.Samples), 0.03) && apps == p.Apps
		fmt.Fprintf(tw, "%s\t%d / %d\t%d / %d\t%s\n", arch, p.Apps, p.Samples, apps, sub.Len(), verdict(ok))
	}

	fmt.Fprintln(tw, "\n== Q1: upshot potential ==")
	fmt.Fprintln(tw, "arch\tpaper median/max\tmeasured median/max\tshape")
	for _, u := range core.Upshot(ds) {
		p := PaperQ1[u.Arch]
		// Shape: median within 0.1x, max within 35%.
		ok := within(u.MedianBest, p.Median, 0.10) && within(u.MaxBest, p.Max, 0.35)
		fmt.Fprintf(tw, "%s\t%.3f / %.2f\t%.3f / %.2f\t%s\n", u.Arch, p.Median, p.Max, u.MedianBest, u.MaxBest, verdict(ok))
	}

	fmt.Fprintln(tw, "\n== Table V: per-app-arch speedup ranges ==")
	fmt.Fprintln(tw, "app\tarch\tpaper\tmeasured\tshape")
	for _, app := range []string{"Alignment", "XSbench"} {
		for _, arch := range topology.Arches() {
			p, ok := PaperTableV[app][arch]
			if !ok {
				continue
			}
			sub := ds.ByApp(app).ByArch(arch)
			if sub.Len() == 0 {
				continue
			}
			lo, hi := sub.SpeedupRange()
			// Shape: the high end lands within 40% (or both are marginal).
			good := within(hi, p[1], 0.40) || (hi < 1.12 && p[1] < 1.12)
			fmt.Fprintf(tw, "%s\t%s\t%.3f - %.3f\t%.3f - %.3f\t%s\n", app, arch, p[0], p[1], lo, hi, verdict(good))
		}
	}

	fmt.Fprintln(tw, "\n== Table VI: per-app speedup ranges ==")
	fmt.Fprintln(tw, "app\tpaper\tmeasured\tshape")
	for _, row := range core.TableVI(ds) {
		p, ok := PaperTableVI[row.App]
		if !ok {
			continue
		}
		good := within(row.Hi, p[1], 0.40) || (row.Hi < 1.12 && p[1] < 1.12)
		fmt.Fprintf(tw, "%s\t%.3f - %.3f\t%.3f - %.3f\t%s\n", row.App, p[0], p[1], row.Lo, row.Hi, verdict(good))
	}
	return tw.Flush()
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := (got - want) / want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "DEVIATES"
}
