// Command ompreport regenerates every table and figure of the paper. It
// either reads a previously collected dataset (-data) or collects one on
// the fly, then renders Tables I–VII, the Q1/Q4 summaries, and Figs. 1–7.
//
// Usage:
//
//	ompreport [-data dataset.csv] [-violin-csv APP]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/report"
	"omptune/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ompreport:", err)
		os.Exit(1)
	}
}

// run is the testable command body: the report (or the -compare table, or
// the -violin-csv densities) goes to stdout, progress and usage to stderr,
// and every failure comes back as the error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ompreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataPath  = fs.String("data", "", "dataset CSV produced by ompsweep (default: collect now)")
		violinCSV = fs.String("violin-csv", "", "emit the violin densities of this application as CSV and exit")
		svgDir    = fs.String("svg-dir", "", "also write figs 1-7 as SVG files into this directory")
		compare   = fs.Bool("compare", false, "print measured-vs-paper comparison instead of the full report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := apps.ByName(*violinCSV); *violinCSV != "" && err != nil { // before a dataset is read or collected
		return fmt.Errorf("-violin-csv: %w", err)
	}

	var ds *dataset.Dataset
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		ds, err = dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintln(stderr, "ompreport: collecting the Table II dataset (pass -data to reuse one)...")
		var err error
		ds, err = core.RunSweep(core.SweepConfig{})
		if err != nil {
			return err
		}
	}

	if *violinCSV != "" {
		return report.ViolinCSV(stdout, ds, *violinCSV, 128)
	}
	if *compare {
		return report.CompareWithPaper(stdout, ds)
	}
	if *svgDir != "" {
		if err := writeSVGs(*svgDir, ds); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "ompreport: wrote SVG figures to %s\n", *svgDir)
	}
	return report.Write(stdout, ds)
}

// writeSVGs renders the violin figures (1, 5-7) and the influence heatmaps
// (2-4) as standalone SVG documents.
func writeSVGs(dir string, ds *dataset.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	violins := map[string]string{
		"fig1_alignment.svg": "Alignment",
		"fig5_bt.svg":        "BT",
		"fig6_health.svg":    "Health",
		"fig7_rsbench.svg":   "RSBench",
	}
	for file, app := range violins {
		if ds.ByApp(app).Len() == 0 {
			continue
		}
		if err := writeFile(filepath.Join(dir, file), func(w *os.File) error {
			return viz.ViolinFigureSVG(w, ds, app)
		}); err != nil {
			return err
		}
	}
	heatmaps := []struct {
		file  string
		g     core.Grouping
		title string
	}{
		{"fig2_by_app.svg", core.PerApp, "Fig 2: feature influence per application"},
		{"fig3_by_arch.svg", core.PerArch, "Fig 3: feature influence per architecture"},
		{"fig4_by_app_arch.svg", core.PerArchApp, "Fig 4: feature influence per application-architecture"},
	}
	for _, h := range heatmaps {
		hm, err := core.InfluenceHeatmap(ds, h.g, ml.LogisticOptions{})
		if err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, h.file), func(w *os.File) error {
			return viz.HeatmapSVG(w, hm, h.title)
		}); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, render func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
