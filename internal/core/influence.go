package core

import (
	"fmt"
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/env"
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

// rows splits the frame into the grouping's heatmap rows: the labels in
// order, and each row's selection — its samples in dataset order.
func (f *Frame) rows(g Grouping) ([]string, []selection) {
	label := make([]string, len(f.groups))
	index := map[string]int{}
	var labels []string
	for i := range f.groups {
		label[i] = g.label(&f.groups[i])
		if _, ok := index[label[i]]; !ok {
			index[label[i]] = 0
			labels = append(labels, label[i])
		}
	}
	sort.Strings(labels)
	for i, l := range labels {
		index[l] = i
	}
	sels := make([]selection, len(labels))
	for _, r := range f.runs {
		k := index[label[r.Group]]
		sels[k] = append(sels[k], r)
	}
	return labels, sels
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
	for _, v := range env.Names() {
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

// design gathers the design matrix and labels of sel's samples under the
// grouping: the sample's input scale and thread count, its configuration's
// feature row and the group's context cell. The rows share one backing
// array; a label is Sample.Optimal's expression over the speedup column.
func (f *Frame) design(sel selection, g Grouping) ([][]float64, []bool) {
	nv, p := len(tableFeatures), len(g.features())
	n := sel.len()
	cells := make([]float64, n*p)
	x := make([][]float64, n)
	y := make([]bool, n)
	i := 0
	for _, r := range sel {
		ctx, hasCtx := g.context(&f.groups[r.Group], f.apps)
		for q := r.Lo; q < r.Hi; q++ {
			row := cells[i*p : (i+1)*p : (i+1)*p]
			s, c := f.samples[q], int(f.config[q])
			row[0], row[1] = s.Scale, float64(s.Threads)
			copy(row[2:], f.feats[c*nv:(c+1)*nv])
			if hasCtx {
				row[p-1] = ctx
			}
			x[i], y[i] = row, f.speedup[q] > dataset.OptimalThreshold
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

// InfluenceHeatmap is InfluenceHeatmap over the frame's dataset.
func (f *Frame) InfluenceHeatmap(g Grouping, opt ml.LogisticOptions) (*Heatmap, error) {
	hm := &Heatmap{Features: g.features()}
	labels, sels := f.rows(g)
	for i, label := range labels {
		x, y := f.design(sels[i], g)
		cells, acc := make([]float64, len(hm.Features)), 1.0
		// A group where nothing (or everything) beats the default has no
		// decision boundary; report zero influence, as the paper's missing
		// Sort/Strassen cells do.
		if hasBothClasses(y) {
			model, err := ml.FitLogistic(x, y, opt)
			if err != nil {
				return nil, fmt.Errorf("core: group %s: %w", label, err)
			}
			cells, acc = model.Influence(), model.Accuracy(x, y)
		}
		hm.RowLabels = append(hm.RowLabels, label)
		hm.Cells = append(hm.Cells, cells)
		hm.Accuracy = append(hm.Accuracy, acc)
	}
	return hm, nil
}

// FeatureRank returns the features of a heatmap ordered by mean influence
// across rows, most influential first — the reading the paper gives of
// Fig. 3 (threads, then proc_bind, then places, ...).
func (h *Heatmap) FeatureRank() []string {
	means := make([]float64, len(h.Features))
	for _, row := range h.Cells {
		for j, v := range row {
			means[j] += v
		}
	}
	idx := make([]int, len(h.Features))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return means[idx[a]] > means[idx[b]] })
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = h.Features[j]
	}
	return out
}

// RowInfluence returns the influence of feature in the named row, or 0.
func (h *Heatmap) RowInfluence(row, feature string) float64 {
	for i, r := range h.RowLabels {
		if r != row {
			continue
		}
		for j, f := range h.Features {
			if f == feature {
				return h.Cells[i][j]
			}
		}
	}
	return 0
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
