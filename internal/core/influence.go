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

// eachRow calls fit once per heatmap row of the grouping, in label order,
// with the row's samples in dataset order. One walk splits the dataset into
// all of its rows.
func (g Grouping) eachRow(ds *dataset.Dataset, fit func(label string, sub *dataset.Dataset) error) error {
	rows := ds.Split(g.label)
	labels := make([]string, 0, len(rows))
	for l := range rows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, label := range labels {
		if err := fit(label, rows[label]); err != nil {
			return err
		}
	}
	return nil
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

// featureOf reads one design-matrix cell of a sample. The column's name and
// the application coding are arguments, not captured, so that every accessor
// is a static function and resolving a group's columns allocates nothing.
type featureOf func(s *dataset.Sample, col string, appNames []string) float64

func accessor(col string) featureOf {
	switch col {
	case FeatInput:
		return func(s *dataset.Sample, _ string, _ []string) float64 { return s.Scale }
	case FeatNT:
		return func(s *dataset.Sample, _ string, _ []string) float64 { return float64(s.Threads) }
	case FeatApp:
		return func(s *dataset.Sample, _ string, appNames []string) float64 { return appCode(s.App, appNames) }
	case FeatArch:
		return func(s *dataset.Sample, _ string, _ []string) float64 { return archCode(s.Arch) }
	default:
		return func(s *dataset.Sample, col string, _ []string) float64 { return s.Config.Feature(env.VarName(col)) }
	}
}

// featurize builds the design matrix and labels for a dataset subset,
// resolving each column to its accessor once rather than per cell. The rows
// share one backing array.
func featurize(ds *dataset.Dataset, cols []string, appNames []string) ([][]float64, []bool) {
	var buf [16]featureOf // the widest grouping has 11 columns
	get := buf[:0]
	for _, c := range cols {
		get = append(get, accessor(c))
	}
	p := len(cols)
	cells := make([]float64, ds.Len()*p)
	x := make([][]float64, ds.Len())
	y := make([]bool, ds.Len())
	for i, s := range ds.Samples {
		row := cells[i*p : (i+1)*p : (i+1)*p]
		for j, f := range get {
			row[j] = f(s, cols[j], appNames)
		}
		x[i] = row
		y[i] = s.Optimal()
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
	appNames := ds.Apps()
	hm := &Heatmap{Features: g.features()}
	err := g.eachRow(ds, func(label string, sub *dataset.Dataset) error {
		x, y := featurize(sub, hm.Features, appNames)
		cells, acc := make([]float64, len(hm.Features)), 1.0
		// A group where nothing (or everything) beats the default has no
		// decision boundary; report zero influence, as the paper's missing
		// Sort/Strassen cells do.
		if hasBothClasses(y) {
			model, err := ml.FitLogistic(x, y, opt)
			if err != nil {
				return fmt.Errorf("core: group %s: %w", label, err)
			}
			cells, acc = model.Influence(), model.Accuracy(x, y)
		}
		hm.RowLabels = append(hm.RowLabels, label)
		hm.Cells = append(hm.Cells, cells)
		hm.Accuracy = append(hm.Accuracy, acc)
		return nil
	})
	if err != nil {
		return nil, err
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
