// Package viz renders the study's figures as standalone SVG documents —
// violin plots of runtime distributions (Figs. 1, 5–7) and shaded influence
// heatmaps (Figs. 2–4) — using nothing but the standard library. The SVGs
// are the publishable companions to the ASCII renderings in package report.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// archColors are the per-architecture fill colours used by the violins.
var archColors = map[topology.Arch]string{
	topology.A64FX:   "#4c78a8",
	topology.Skylake: "#f58518",
	topology.Milan:   "#54a24b",
}

// esc escapes a string for inclusion in SVG text content/attributes.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// ViolinFigureSVG draws one figure in the style of Fig. 1: a row of violins
// per architecture, one violin per setting, runtime on the y axis
// (log scale, since the master-binding tail spans orders of magnitude).
func ViolinFigureSVG(w io.Writer, ds *dataset.Dataset, app string) error {
	type marker struct {
		logRT float64
		color string
		own   bool // this cell's own best configuration
	}
	type cell struct {
		arch    topology.Arch
		setting string
		v       stats.Violin
		logMin  float64
		logMax  float64
		markers []marker
	}
	// The paper's Fig. 1 marks, in every violin, where each setting's best
	// configuration lands — demonstrating that winners do not transfer.
	var bests []*dataset.Sample
	for _, g := range ds.Groups() {
		if g.App == app {
			bests = append(bests, g.Best())
		}
	}
	var cells []cell
	for _, g := range core.SettingGroups(ds, app) {
		var logs []float64
		for _, s := range g.Samples {
			logs = append(logs, math.Log10(math.Max(s.MeanRuntime(), 1e-6)))
		}
		v := stats.ViolinOf(logs, 64)
		c := cell{arch: g.Arch, setting: g.Setting, v: v, logMin: v.Desc.Min, logMax: v.Desc.Max}
		for _, best := range bests {
			// Locate this best configuration among the cell's samples
			// (the sampled sweep may not contain it everywhere).
			for _, s := range g.Samples {
				if s.Config == best.Config {
					c.markers = append(c.markers, marker{
						logRT: math.Log10(math.Max(s.MeanRuntime(), 1e-6)),
						color: archColors[best.Arch],
						own:   best.Arch == g.Arch && best.Setting == g.Setting,
					})
					break
				}
			}
		}
		cells = append(cells, c)
	}
	if len(cells) == 0 {
		return fmt.Errorf("viz: no samples for application %q", app)
	}

	const (
		cw, chh      = 90.0, 260.0 // cell width, chart height
		top, bottom  = 50.0, 40.0
		left         = 70.0
		halfMaxWidth = 36.0
	)
	gMin, gMax := math.Inf(1), math.Inf(-1)
	for _, c := range cells {
		gMin = math.Min(gMin, c.logMin)
		gMax = math.Max(gMax, c.logMax)
	}
	if gMax == gMin {
		gMax = gMin + 1
	}
	width := left + cw*float64(len(cells)) + 20
	height := top + chh + bottom
	yOf := func(lg float64) float64 {
		return top + chh*(1-(lg-gMin)/(gMax-gMin))
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%.0f" y="24" font-family="sans-serif" font-size="16" font-weight="bold">%s: runtime distribution across the configuration space</text>`+"\n",
		left, esc(app))

	// y axis: decade ticks.
	for d := math.Floor(gMin); d <= math.Ceil(gMax); d++ {
		y := yOf(d)
		if y < top-1 || y > top+chh+1 {
			continue
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#ddd"/>`+"\n",
			left, y, width-20, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">1e%.0fs</text>`+"\n",
			left-6, y+4, d)
	}

	for i, c := range cells {
		cx := left + cw*float64(i) + cw/2
		maxD := 0.0
		for _, d := range c.v.Density {
			maxD = math.Max(maxD, d)
		}
		if maxD <= 0 {
			maxD = 1
		}
		// Mirrored density polygon.
		var pts []string
		for j := range c.v.Grid {
			x := cx + c.v.Density[j]/maxD*halfMaxWidth
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, yOf(c.v.Grid[j])))
		}
		for j := len(c.v.Grid) - 1; j >= 0; j-- {
			x := cx - c.v.Density[j]/maxD*halfMaxWidth
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, yOf(c.v.Grid[j])))
		}
		fmt.Fprintf(&b, `<polygon points="%s" fill="%s" fill-opacity="0.6" stroke="%s"/>`+"\n",
			strings.Join(pts, " "), archColors[c.arch], archColors[c.arch])
		// Best-configuration markers: filled diamonds for this cell's own
		// winner, open circles for winners imported from other settings.
		for _, mk := range c.markers {
			y := yOf(mk.logRT)
			if mk.own {
				fmt.Fprintf(&b, `<path d="M %.1f %.1f l 6 6 l -6 6 l -6 -6 z" fill="%s" stroke="black"/>`+"\n",
					cx, y-6, mk.color)
			} else {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
					cx, y, mk.color)
			}
		}
		// Quartile box and median tick.
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="2"/>`+"\n",
			cx-6, yOf(c.v.Desc.Median), cx+6, yOf(c.v.Desc.Median))
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
			cx, yOf(c.v.Desc.Q1), cx, yOf(c.v.Desc.Q3))
		// Labels.
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			cx, top+chh+16, esc(c.setting))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle" fill="%s">%s</text>`+"\n",
			cx, top+chh+30, archColors[c.arch], esc(string(c.arch)))
	}
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}

// HeatmapSVG draws an influence heatmap (Figs. 2–4 style): rows are groups,
// columns features, cell darkness proportional to influence.
func HeatmapSVG(w io.Writer, hm *core.Heatmap, title string) error {
	if len(hm.Cells) == 0 {
		return fmt.Errorf("viz: empty heatmap")
	}
	const (
		cellW, cellH = 64.0, 22.0
		left, top    = 150.0, 70.0
	)
	maxV := 0.0
	for _, row := range hm.Cells {
		for _, v := range row {
			maxV = math.Max(maxV, v)
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	width := left + cellW*float64(len(hm.Features)) + 20
	height := top + cellH*float64(len(hm.RowLabels)) + 30

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%.0f" height="%.0f" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="10" y="24" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n", esc(title))

	for j, f := range hm.Features {
		x := left + cellW*float64(j) + cellW/2
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="start" transform="rotate(-35 %.1f %.1f)">%s</text>`+"\n",
			x, top-8, x, top-8, esc(f))
	}
	for i, label := range hm.RowLabels {
		y := top + cellH*float64(i)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			left-6, y+15, esc(label))
		for j, v := range hm.Cells[i] {
			x := left + cellW*float64(j)
			// Darker blue = larger influence, as in the paper's figures.
			shade := int(255 - 215*(v/maxV))
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="rgb(%d,%d,255)" stroke="#eee"/>`+"\n",
				x, y, cellW, cellH, shade, shade)
			txtColor := "black"
			if v/maxV > 0.6 {
				txtColor = "white"
			}
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle" fill="%s">%.2f</text>`+"\n",
				x+cellW/2, y+15, txtColor, v)
		}
	}
	fmt.Fprintln(&b, `</svg>`)
	_, err := io.WriteString(w, b.String())
	return err
}
