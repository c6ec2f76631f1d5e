package report

import (
	"bytes"
	"io"
	"math/rand/v2"
	"strings"
	"testing"
	"text/tabwriter"

	"omptune/internal/core"
	"omptune/internal/dataset"
)

// TestColumnsMatchTabwriter holds the table layout to text/tabwriter with
// the report's settings (minwidth 2, padding 1 or 2, flags 0) on seeded
// random grids: empty cells, one-cell lines, lines of unequal length, so
// that column blocks start and end mid-table, and multi-byte runes, which
// count one column each. One page renders every grid after text that is
// not part of its table, so what a table leaves in the page's buffers
// must not reach the next one.
func TestColumnsMatchTabwriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 1))
	words := []string{"", "a", "bb", "Nqueens", "0.123", "µs", "KMP_BLOCKTIME", "x y", "é—"}
	p := &page{}
	for trial := range 2000 {
		padding := 1 + trial%2
		var grid strings.Builder
		for range 1 + rng.IntN(10) {
			for range rng.IntN(6) {
				grid.WriteString(words[rng.IntN(len(words))] + "\t")
			}
			grid.WriteString(words[rng.IntN(len(words))] + "\n")
		}
		var want, got bytes.Buffer
		tw := tabwriter.NewWriter(&want, 2, 4, padding, ' ', 0)
		tw.Write([]byte(grid.String()))
		tw.Flush()
		p.w = &got
		tab := len(p.s("caption\t\n").buf)
		if err := p.s(grid.String()).columns(tab, padding); err != nil {
			t.Fatal(err)
		}
		if got.String() != "caption\t\n"+want.String() {
			t.Fatalf("padding %d, grid %q:\ngot\n%s\nwant (tabwriter)\n%s", padding, grid.String(), got.String(), want.String())
		}
	}
}

// TestRenderAllocsFlat: through a page that has rendered once, as Write's
// does from section to section, nothing a figure allocates grows with its
// printed lines: a heatmap of 42 rows allocates as often as one of 3, and
// a violin of 80 grid lines as often as one of 20 (its density grid and
// summary, not a line's text).
func TestRenderAllocsFlat(t *testing.T) {
	heatmap := func(rows int) *core.Heatmap {
		hm := &core.Heatmap{Features: []string{"OMP_PLACES", "OMP_PROC_BIND", "KMP_BLOCKTIME", "Input Size"}}
		for i := range rows {
			hm.RowLabels = append(hm.RowLabels, strings.Repeat("x", i%7+1)+"@milan")
			hm.Cells = append(hm.Cells, []float64{float64(i) / 50, 0.25, 0.5, 1 - float64(i)/50})
			hm.Accuracy = append(hm.Accuracy, 0.9)
		}
		return hm
	}
	g := &dataset.Group{Arch: "a64fx", App: "Alignment", Setting: "small"}
	for i := range 200 {
		g.Samples = append(g.Samples, &dataset.Sample{Runtimes: [4]float64{1 + float64(i%13)/10, 1, 1.5, 2}})
	}
	p := &page{w: io.Discard}
	allocs := func(render func()) float64 {
		render() // the page's buffers grow to the figure's size
		return testing.AllocsPerRun(5, func() { render(); p.flush() })
	}
	small, large := heatmap(3), heatmap(42)
	a42 := allocs(func() { Heatmap(p, large) })
	if a := allocs(func() { Heatmap(p, small) }); a != a42 || a != 0 {
		t.Errorf("Heatmap: %.0f allocations for 3 rows, %.0f for 42, want 0 for both", a, a42)
	}
	v80 := allocs(func() { violin(p, g, 80) })
	if a := allocs(func() { violin(p, g, 20) }); a != v80 {
		t.Errorf("violin: %.0f allocations for 20 grid lines, %.0f for 80, want as many", a, v80)
	}
}
