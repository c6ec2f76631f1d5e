package viz

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

func vizDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := core.RunSweep(core.SweepConfig{
		Apps:     []string{"Alignment"},
		Fraction: map[topology.Arch]float64{topology.A64FX: 0.1, topology.Skylake: 0.06, topology.Milan: 0.06},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return ds
}

// wellFormed checks the output parses as XML (SVG is XML).
func wellFormed(t *testing.T, svg []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func TestViolinFigureSVG(t *testing.T) {
	ds := vizDS(t)
	var buf bytes.Buffer
	if err := ViolinFigureSVG(&buf, ds, "Alignment"); err != nil {
		t.Fatalf("ViolinFigureSVG: %v", err)
	}
	svg := buf.String()
	wellFormed(t, buf.Bytes())
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("output should start with <svg")
	}
	// 3 arches x 3 settings = 9 violin polygons.
	if got := strings.Count(svg, "<polygon"); got != 9 {
		t.Errorf("violin polygons = %d, want 9", got)
	}
	for _, want := range []string{"a64fx", "skylake", "milan", "small", "medium", "large", "Alignment"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestViolinFigureSVGMissingApp(t *testing.T) {
	ds := vizDS(t)
	var buf bytes.Buffer
	if err := ViolinFigureSVG(&buf, ds, "Doom3"); err == nil {
		t.Error("missing app should error")
	}
}

func TestHeatmapSVG(t *testing.T) {
	ds := vizDS(t)
	hm, err := core.InfluenceHeatmap(ds, core.PerArch, ml.LogisticOptions{})
	if err != nil {
		t.Fatalf("InfluenceHeatmap: %v", err)
	}
	var buf bytes.Buffer
	if err := HeatmapSVG(&buf, hm, "Fig 3: influence per architecture"); err != nil {
		t.Fatalf("HeatmapSVG: %v", err)
	}
	wellFormed(t, buf.Bytes())
	svg := buf.String()
	// One rect per cell plus the background.
	wantRects := len(hm.RowLabels)*len(hm.Features) + 1
	if got := strings.Count(svg, "<rect"); got != wantRects {
		t.Errorf("rects = %d, want %d", got, wantRects)
	}
	for _, want := range []string{"OMP_PROC_BIND", "KMP_LIBRARY", "a64fx"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestHeatmapSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapSVG(&buf, &core.Heatmap{}, "empty"); err == nil {
		t.Error("empty heatmap should error")
	}
}

func TestEsc(t *testing.T) {
	if got := esc(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("esc = %q", got)
	}
}

func TestViolinMarkersPresent(t *testing.T) {
	ds := vizDS(t)
	var buf bytes.Buffer
	if err := ViolinFigureSVG(&buf, ds, "Alignment"); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	// Every cell carries its own best-config diamond (9 cells).
	if got := strings.Count(svg, "<path d="); got != 9 {
		t.Errorf("own-best diamonds = %d, want 9", got)
	}
	wellFormed(t, buf.Bytes())
}
