package core

import (
	"fmt"
	"slices"
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// Grouping selects one of the three grouping strategies of §IV-D.
type Grouping int

// The grouping strategies. Context features are added per strategy:
// per-application groups get an Architecture feature, per-architecture
// groups get an Application feature, per-architecture-application groups
// get neither.
const (
	PerArchApp Grouping = iota
	PerApp
	PerArch
)

// label names the heatmap row grp falls in under the grouping.
func (g Grouping) label(grp *dataset.Group) string {
	switch g {
	case PerApp:
		return grp.App
	case PerArch:
		return string(grp.Arch)
	default:
		return grp.App + "@" + string(grp.Arch)
	}
}

// features lists the grouping's design-matrix columns: the base features
// plus the context feature its rows pool over.
func (g Grouping) features() []string {
	switch g {
	case PerApp:
		return append(baseFeatures(), FeatArch)
	case PerArch:
		return append(baseFeatures(), FeatApp)
	default:
		return baseFeatures()
	}
}

// context returns grp's context-feature cell under the grouping, the
// design matrix's last column, and whether the grouping has one. apps is the
// Application feature's coding.
func (g Grouping) context(grp *dataset.Group, apps []string) (float64, bool) {
	switch g {
	case PerApp:
		return archCode(grp.Arch), true
	case PerArch:
		return appCode(grp.App, apps), true
	default:
		return 0, false
	}
}

// key is the heatmap row grp falls in under the grouping, as a value:
// label's string without building it.
func (g Grouping) key(grp *dataset.Group) appArch {
	switch g {
	case PerApp:
		return appArch{app: grp.App}
	case PerArch:
		return appArch{arch: grp.Arch}
	default:
		return appArch{grp.App, grp.Arch}
	}
}

// rows splits the frame into the grouping's heatmap rows: the labels in
// order, and each row's selection — its samples in dataset order. A label
// is built once per row, and the selections share one backing array.
func (f *Frame) rows(g Grouping) ([]string, []selection) {
	row := make([]int, len(f.groups)) // a group's row, first-seen numbering
	index := map[appArch]int{}
	var labels []string
	for i := range f.groups {
		k := g.key(&f.groups[i])
		r, ok := index[k]
		if !ok {
			r = len(labels)
			index[k] = r
			labels = append(labels, g.label(&f.groups[i]))
		}
		row[i] = r
	}
	// Renumber the rows in label order, then carve each row's runs.
	sorted := slices.Clone(labels)
	slices.Sort(sorted)
	for i, r := range row {
		row[i] = sort.SearchStrings(sorted, labels[r])
	}
	count := make([]int, len(labels))
	for _, r := range f.runs {
		count[row[r.Group]]++
	}
	runs, sels := make([]dataset.Run, len(f.runs)), make([]selection, len(labels))
	for k, c := range count {
		sels[k], runs = runs[:0:c], runs[c:]
	}
	for _, r := range f.runs {
		sels[row[r.Group]] = append(sels[row[r.Group]], r)
	}
	return sorted, sels
}

// Feature column labels used in the heatmaps.
const (
	FeatInput = "Input Size"
	FeatNT    = "OMP_NUM_THREADS"
	FeatApp   = "Application"
	FeatArch  = "Architecture"
)

// baseFeatures is the default feature list of §IV-D: input size, thread
// count and the seven studied environment variables.
func baseFeatures() []string {
	names := []string{FeatInput, FeatNT}
	for _, v := range tableFeatures {
		names = append(names, string(v))
	}
	return names
}

// appCode and archCode implement the paper's "naive numeric scheme" for
// encoding applications and architectures as features.
func archCode(a topology.Arch) float64 {
	for i, arch := range topology.Arches() {
		if arch == a {
			return float64(i)
		}
	}
	return -1
}

func appCode(name string, names []string) float64 {
	for i, n := range names {
		if n == name {
			return float64(i)
		}
	}
	return -1
}

// designMatrix is a design matrix and its labels, refilled for one
// selection after another: rows of one grouping's width, views of one
// backing array sized to the largest selection it was made for.
type designMatrix struct {
	x [][]float64
	y []bool
}

// newDesign sizes a design matrix for the largest of sels under the
// grouping.
func newDesign(g Grouping, sels ...selection) *designMatrix {
	n, p := 0, len(g.features())
	for _, sel := range sels {
		n = max(n, sel.len())
	}
	cells := make([]float64, n*p)
	d := &designMatrix{x: make([][]float64, n), y: make([]bool, n)}
	for i := range d.x {
		d.x[i] = cells[i*p : (i+1)*p : (i+1)*p]
	}
	return d
}

// design fills d with the design matrix and labels of sel's samples under
// the grouping d was made for: the sample's input scale and thread count,
// its configuration's feature row and the group's context cell. A label is
// Sample.Optimal's expression over the speedup column. The rows returned
// are d's, valid until its next fill.
func (f *Frame) design(d *designMatrix, sel selection, g Grouping) ([][]float64, []bool) {
	nv := len(tableFeatures)
	x, y := d.x[:sel.len()], d.y[:sel.len()]
	i := 0
	for _, r := range sel {
		ctx, hasCtx := g.context(&f.groups[r.Group], f.apps)
		for q := r.Lo; q < r.Hi; q++ {
			row := x[i]
			s, c := f.samples[q], int(f.config[q])
			row[0], row[1] = s.Scale, float64(s.Threads)
			copy(row[2:], f.feats[c*nv:(c+1)*nv])
			if hasCtx {
				row[len(row)-1] = ctx
			}
			y[i] = f.speedup[q] > dataset.OptimalThreshold
			i++
		}
	}
	return x, y
}

// Heatmap is a rows x features influence matrix; each row sums to 1.
// It carries the model quality per row so readers can judge the fit, as
// §IV-D does via "high model prediction scores".
type Heatmap struct {
	RowLabels []string
	Features  []string
	Cells     [][]float64
	Accuracy  []float64
}

// InfluenceHeatmap trains one logistic-regression classifier per group and
// assembles the weight-normalized coefficient magnitudes into the heatmap
// of the requested grouping: Fig. 2 (PerApp), Fig. 3 (PerArch) or
// Fig. 4 (PerArchApp).
func InfluenceHeatmap(ds *dataset.Dataset, g Grouping, opt ml.LogisticOptions) (*Heatmap, error) {
	return NewFrame(ds).InfluenceHeatmap(g, opt)
}

// InfluenceHeatmap is InfluenceHeatmap over the frame's dataset. Its rows
// share one design matrix, and every heatmap of the frame fits on the
// frame's one fitter block.
func (f *Frame) InfluenceHeatmap(g Grouping, opt ml.LogisticOptions) (*Heatmap, error) {
	labels, sels := f.rows(g)
	hm := &Heatmap{RowLabels: labels, Features: g.features(),
		Cells: make([][]float64, len(labels)), Accuracy: make([]float64, len(labels))}
	d := newDesign(g, sels...)
	for i, label := range labels {
		x, y := f.design(d, sels[i], g)
		// A group where nothing (or everything) beats the default has no
		// decision boundary; report zero influence, as the paper's missing
		// Sort/Strassen cells do.
		if !hasBothClasses(y) {
			hm.Cells[i], hm.Accuracy[i] = make([]float64, len(hm.Features)), 1
			continue
		}
		model, err := f.fit.FitLogistic(x, y, opt)
		if err != nil {
			return nil, fmt.Errorf("core: group %s: %w", label, err)
		}
		hm.Cells[i], hm.Accuracy[i] = model.Influence(), model.Accuracy(x, y)
	}
	return hm, nil
}

// RowInfluence returns the influence of feature in the named row, or 0.
func (h *Heatmap) RowInfluence(row, feature string) float64 {
	i, j := slices.Index(h.RowLabels, row), slices.Index(h.Features, feature)
	if i < 0 || j < 0 {
		return 0
	}
	return h.Cells[i][j]
}

// influence is RowInfluence, NaN without the row.
func (h *Heatmap) influence(row, feature string) float64 {
	if !slices.Contains(h.RowLabels, row) {
		return nan
	}
	return h.RowInfluence(row, feature)
}

func hasBothClasses(y []bool) bool {
	var t, f bool
	for _, v := range y {
		if v {
			t = true
		} else {
			f = true
		}
		if t && f {
			return true
		}
	}
	return false
}
