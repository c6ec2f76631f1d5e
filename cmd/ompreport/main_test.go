package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/topology"
)

// reducedCSV collects a thin slice of the Table II campaign — the four
// applications the fixed tables name, a few percent of each architecture's
// configurations — and writes it where -data can read it.
func reducedCSV(t *testing.T) string {
	t.Helper()
	ds, err := core.RunSweep(core.SweepConfig{
		Apps:     []string{"Nqueens", "XSbench", "CG", "Alignment"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.03, topology.Skylake: 0.02, topology.Milan: 0.02},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	path := filepath.Join(t.TempDir(), "reduced.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFromCSV drives every mode of the command on one reduced dataset:
// the full report (with the SVG figures beside it), the verdict table and
// the violin densities.
func TestRunFromCSV(t *testing.T) {
	csv := reducedCSV(t)
	exec := func(args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if err := run(append([]string{"-data", csv}, args...), &out, &errb); err != nil {
			t.Fatalf("run(-data … %v): %v\nstderr: %s", args, err, errb.String())
		}
		return out.String(), errb.String()
	}

	svgDir := filepath.Join(t.TempDir(), "figs")
	report, progress := exec("-svg-dir", svgDir)
	for _, want := range []string{
		"======== Table I: hardware configuration ========", "Fujitsu A64FX",
		"======== Table VII: best performing variables and values ========", "turnaround",
		"======== Q3: best variables per architecture ========", "OMP_WAIT_POLICY share",
		"Fig 2: feature influence, grouped by application",
		"Fig 3: feature influence, grouped by architecture",
		"Fig 4: feature influence, grouped by application-architecture", "CG@milan",
		"======== Fig 7: RSBench runtime distributions ========",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(progress, "wrote SVG figures to "+svgDir) {
		t.Errorf("stderr does not name the SVG directory: %q", progress)
	}
	// BT, Health and RSBench are not in the reduced campaign: their violin
	// files are skipped, everything else is written as an SVG document.
	for _, name := range []string{"fig1_alignment.svg", "fig2_by_app.svg", "fig3_by_arch.svg", "fig4_by_app_arch.svg"} {
		b, err := os.ReadFile(filepath.Join(svgDir, name))
		if err != nil {
			t.Errorf("-svg-dir: %v", err)
		} else if !bytes.HasPrefix(b, []byte("<svg")) && !bytes.HasPrefix(b, []byte("<?xml")) {
			t.Errorf("%s is not an SVG document: %.40q", name, b)
		}
	}
	if _, err := os.Stat(filepath.Join(svgDir, "fig5_bt.svg")); err == nil {
		t.Error("-svg-dir wrote fig5_bt.svg for a dataset without BT")
	}

	// The reduced campaign lacks BT, FT, Sort and others: a row that needs
	// them is n/a, never DEVIATES, and every row ends in one status.
	verdicts, _ := exec("-verdicts")
	rows := strings.Split(strings.TrimSuffix(verdicts, "\n"), "\n")
	status := map[string]string{}
	for _, line := range rows[1:] {
		name, _, _ := strings.Cut(line, "  ")
		status[name] = line[strings.LastIndex(line, " ")+1:]
		if s := status[name]; s != "ok" && s != "DEVIATES" && s != "n/a" || s == "n/a" && strings.Contains(line, "DEVIATES") {
			t.Errorf("-verdicts row %q", line)
		}
	}
	if !strings.HasPrefix(rows[0], "verdict ") || status["Table VI: BT high end in [1.05, 1.3]"] != "n/a" ||
		status["Table VI: Nqueens high end in [4, 6]"] == "n/a" || len(status) != len(rows)-1 {
		t.Errorf("-verdicts: want a header, BT n/a, Nqueens evaluated, one row per name:\n%s", verdicts)
	}
	if strings.Contains(verdicts, "========") {
		t.Error("-verdicts also rendered the report")
	}

	violin, _ := exec("-violin-csv", "Alignment")
	lines := strings.Split(strings.TrimSpace(violin), "\n")
	// Three input sizes on three architectures, 128 grid points each.
	if lines[0] != "arch,setting,runtime_seconds,density" || len(lines) != 1+9*128 {
		t.Errorf("-violin-csv: header %q, %d lines, want the header + 9×128 rows", lines[0], len(lines))
	}
}

// TestRunValidation: a bad invocation is an error with nothing on stdout. An
// unknown -violin-csv application is refused, with the study's applications
// listed, before a dataset is read or collected.
func TestRunValidation(t *testing.T) {
	csv := reducedCSV(t)
	var studyApps []string
	for _, a := range apps.All() {
		studyApps = append(studyApps, a.Name)
	}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-nope"}, "-nope"},
		{"help", []string{"-help"}, flag.ErrHelp.Error()},
		{"missing dataset", []string{"-data", filepath.Join(t.TempDir(), "absent.csv")}, "absent.csv"},
		{"unknown violin app", []string{"-data", csv, "-violin-csv", "Quake"}, `-violin-csv: apps: unknown application "Quake"`},
		{"unknown violin app before collecting", []string{"-violin-csv", "Doom"}, `-violin-csv: apps: unknown application "Doom" (valid: ` + strings.Join(studyApps, ", ") + ")"},
		{"unknown violin app before reading", []string{"-data", filepath.Join(t.TempDir(), "absent.csv"), "-violin-csv", "Doom"}, `unknown application "Doom"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			err := run(tc.args, &out, &errb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error = %v, want one containing %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("run(%v) wrote %d bytes to stdout before failing", tc.args, out.Len())
			}
			if strings.Contains(errb.String(), "collecting") {
				t.Errorf("run(%v) collected a dataset before failing: %q", tc.args, errb.String())
			}
		})
	}
}
