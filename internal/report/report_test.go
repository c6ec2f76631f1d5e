package report

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// smallDS builds a reduced sweep (one app per style, all archs) so the
// renderers can be exercised quickly.
func smallDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	frac := map[topology.Arch]float64{topology.A64FX: 0.15, topology.Skylake: 0.1, topology.Milan: 0.1}
	ds, err := core.RunSweep(core.SweepConfig{
		Apps:     []string{"Alignment", "XSbench", "CG"},
		Fraction: frac,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return ds
}

func TestTableIContainsTableIFacts(t *testing.T) {
	var buf bytes.Buffer
	if err := TableI(&buf); err != nil {
		t.Fatalf("TableI: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Fujitsu A64FX", "48", "Skylake", "EPYC 7643", "HBM", "DDR4", "1.8 GHz", "188"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTablesRenderFromDataset(t *testing.T) {
	f := core.NewFrame(smallDS(t))
	checks := []struct {
		name string
		fn   func(*bytes.Buffer) error
		want []string
	}{
		{"TableII", func(b *bytes.Buffer) error { return TableII(b, f) }, []string{"#Samples", "A64FX"}},
		{"TableIII", func(b *bytes.Buffer) error { return TableIII(b, f, "Alignment", "small") }, []string{"R0, R1", "p-value", "milan-alignment-small"}},
		{"TableIV", func(b *bytes.Buffer) error { return TableIV(b, f, "Alignment", "small") }, []string{"Runtime_0", "Mean"}},
		{"TableV", func(b *bytes.Buffer) error { return TableV(b, f, []string{"Alignment", "XSbench"}) }, []string{"Alignment", "XSbench", "milan"}},
		{"TableVI", func(b *bytes.Buffer) error { return TableVI(b, f) }, []string{"Speedup Range", "CG"}},
		{"TableVII", func(b *bytes.Buffer) error { return TableVII(b, f, []string{"CG"}) }, []string{"CG", "Variable"}},
		{"Q1", func(b *bytes.Buffer) error { return Q1(b, f) }, []string{"Median", "a64fx"}},
		{"Q4", func(b *bytes.Buffer) error { return Q4(b, f) }, []string{"master", "Lift"}},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		if err := c.fn(&buf); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		for _, want := range c.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s output missing %q:\n%s", c.name, want, buf.String())
			}
		}
	}
}

func TestHeatmapRendering(t *testing.T) {
	ds := smallDS(t)
	render := func(g core.Grouping, fig func(io.Writer, *core.Heatmap) error) string {
		t.Helper()
		hm, err := core.InfluenceHeatmap(ds, g, ml.LogisticOptions{})
		if err != nil {
			t.Fatalf("InfluenceHeatmap(%v): %v", g, err)
		}
		var buf bytes.Buffer
		if err := fig(&buf, hm); err != nil {
			t.Fatalf("rendering grouping %v: %v", g, err)
		}
		return buf.String()
	}
	out := render(core.PerArch, Fig3)
	for _, want := range []string{"Fig 3", "bind", "threads", "a64fx", "milan", "skylake"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
	if out := render(core.PerApp, Fig2); !strings.Contains(out, "arch") {
		t.Error("Fig2 should include the Architecture column")
	}
	if out := render(core.PerArchApp, Fig4); !strings.Contains(out, "CG@milan") {
		t.Errorf("Fig4 should have app@arch rows:\n%s", out)
	}
}

// TestViolinRendering draws one ASCII violin, the unit of Figs. 1 and 5–7:
// the density profile of one (arch, app, setting) group.
func TestViolinRendering(t *testing.T) {
	for _, g := range smallDS(t).Groups() {
		if g.Arch != topology.A64FX || g.App != "Alignment" || g.Setting != "small" {
			continue
		}
		var buf bytes.Buffer
		violin(&buf, &g, 16)
		if out := buf.String(); !strings.Contains(out, "a64fx-Alignment-small") || !strings.Contains(out, "#") {
			t.Errorf("violin output malformed:\n%s", out)
		}
		return
	}
	t.Fatal("no a64fx/Alignment/small group")
}

func TestFig1RendersAllArchesAndSizes(t *testing.T) {
	ds := smallDS(t)
	var buf bytes.Buffer
	if err := Fig1(&buf, core.NewFrame(ds)); err != nil {
		t.Fatalf("Fig1: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"a64fx-Alignment-small", "a64fx-Alignment-medium", "a64fx-Alignment-large",
		"skylake-Alignment-small", "milan-Alignment-large"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 missing violin %q", want)
		}
	}
}

func TestViolinCSV(t *testing.T) {
	ds := smallDS(t)
	var buf bytes.Buffer
	if err := ViolinCSV(&buf, ds, "Alignment", 32); err != nil {
		t.Fatalf("ViolinCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 3 arches x 3 settings x 32 points + header
	if want := 3*3*32 + 1; len(lines) != want {
		t.Errorf("ViolinCSV produced %d lines, want %d", len(lines), want)
	}
	if lines[0] != "arch,setting,runtime_seconds,density" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestShadeOf(t *testing.T) {
	if shadeOf(0, 1) != ' ' {
		t.Error("zero influence should be blank")
	}
	if shadeOf(1, 1) != '@' {
		t.Error("max influence should be darkest")
	}
	if shadeOf(0.5, 0) != ' ' {
		t.Error("degenerate max should not panic")
	}
}

func TestCompareWithPaper(t *testing.T) {
	ds := smallDS(t)
	var buf bytes.Buffer
	if err := CompareWithPaper(&buf, ds); err != nil {
		t.Fatalf("CompareWithPaper: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "Q1", "Table V", "Table VI", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison missing %q", want)
		}
	}
	// The reduced 3-app dataset deviates from the full Table II counts.
	if !strings.Contains(out, "DEVIATES") {
		t.Error("reduced dataset should flag Table II deviations")
	}
	// The XSbench shape still holds even on the reduced sweep.
	if !strings.Contains(out, "XSbench") {
		t.Error("comparison missing XSbench rows")
	}
}

func TestWithinAndVerdict(t *testing.T) {
	if !within(100, 103, 0.05) || within(100, 120, 0.05) {
		t.Error("within() wrong")
	}
	if !within(0, 0, 0.1) || within(1, 0, 0.1) {
		t.Error("within zero handling wrong")
	}
	if verdict(true) != "ok" || verdict(false) != "DEVIATES" {
		t.Error("verdict() wrong")
	}
}

func TestQ2AndQ3Render(t *testing.T) {
	ds := smallDS(t)
	var buf bytes.Buffer
	if err := Q2(&buf, core.NewFrame(ds)); err != nil {
		t.Fatalf("Q2: %v", err)
	}
	for _, want := range []string{"Application", "Jaccard", "CG"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Q2 missing %q:\n%s", want, buf.String())
		}
	}
	hm, err := core.InfluenceHeatmap(ds, core.PerArch, ml.LogisticOptions{})
	if err != nil {
		t.Fatalf("InfluenceHeatmap: %v", err)
	}
	var buf3 bytes.Buffer
	if err := Q3(&buf3, hm); err != nil {
		t.Fatalf("Q3: %v", err)
	}
	for _, want := range []string{"a64fx", "WAIT_POLICY", "descending influence"} {
		if !strings.Contains(buf3.String(), want) {
			t.Errorf("Q3 missing %q:\n%s", want, buf3.String())
		}
	}
}
