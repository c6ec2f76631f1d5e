package core

import (
	"fmt"
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/sim"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// UpshotSummary answers §V-Q1 for one architecture: the range and median of
// the per-setting best speedups.
type UpshotSummary struct {
	Arch             topology.Arch
	MinBest, MaxBest float64
	MedianBest       float64
	Settings         int
}

// Upshot computes the Q1 summary for every architecture in the dataset.
func Upshot(ds *dataset.Dataset) []UpshotSummary { return NewFrame(ds).Upshot() }

// Upshot is Upshot over the frame's dataset.
func (f *Frame) Upshot() []UpshotSummary {
	var out []UpshotSummary
	for _, arch := range topology.Arches() {
		best := f.bests(onArch(arch))
		if len(best) == 0 {
			continue
		}
		lo, hi := dataset.RangeOf(best)
		out = append(out, UpshotSummary{
			Arch: arch, MinBest: lo, MaxBest: hi,
			Settings:   len(best),
			MedianBest: dataset.MedianOf(best),
		})
	}
	return out
}

// SizeRow is one row of Table II: the applications and samples one
// architecture contributes.
type SizeRow struct {
	Arch          topology.Arch
	Apps, Samples int
}

// TableII returns the dataset's size on every architecture, in
// topology.Arches order, absent architectures included.
func (f *Frame) TableII() []SizeRow {
	var rows []SizeRow
	for _, arch := range topology.Arches() {
		var groups []dataset.Group
		n := 0
		for _, g := range f.groups {
			if g.Arch == arch {
				groups = append(groups, g)
				n += len(g.Samples)
			}
		}
		rows = append(rows, SizeRow{Arch: arch, Apps: len(dataset.AppsOf(groups)), Samples: n})
	}
	return rows
}

// SettingGroups returns app's groups in figure order — architectures as
// topology.Arches lists them, settings by label within each: the cells of
// Tables III/IV and of the violin figures.
func SettingGroups(ds *dataset.Dataset, app string) []dataset.Group {
	return settingGroups(ds.Groups(), app)
}

// SettingGroups is SettingGroups over the frame's dataset.
func (f *Frame) SettingGroups(app string) []dataset.Group { return settingGroups(f.groups, app) }

func settingGroups(groups []dataset.Group, app string) []dataset.Group {
	var out []dataset.Group
	for _, arch := range topology.Arches() {
		n := len(out)
		for _, g := range groups {
			if g.Arch == arch && g.App == app {
				out = append(out, g)
			}
		}
		cells := out[n:]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Setting < cells[j].Setting })
	}
	return out
}

// WilcoxonRow is one row of Table III: the consistency test for one
// consecutive pair of repeated runs over all configurations of a setting.
type WilcoxonRow struct {
	Group     string // e.g. "a64fx-alignment-small"
	Pair      string // e.g. "R0, R1"
	Statistic float64
	PValue    float64
	// Degenerate marks groups whose paired runs are identical after timer
	// quantization (the A64FX case); the p-value is then reported as 1.
	Degenerate bool
}

// WilcoxonTable reproduces Table III for one application and setting label
// across all architectures: consecutive run pairs (R0,R1), (R1,R2), (R2,R3).
func WilcoxonTable(ds *dataset.Dataset, app, setting string) []WilcoxonRow {
	return NewFrame(ds).WilcoxonTable(app, setting)
}

// WilcoxonTable is WilcoxonTable over the frame's dataset.
func (f *Frame) WilcoxonTable(app, setting string) []WilcoxonRow {
	var rows []WilcoxonRow
	for _, g := range f.SettingGroups(app) {
		if g.Setting != setting {
			continue
		}
		group := fmt.Sprintf("%s-%s-%s", g.Arch, app, setting)
		for rep := 0; rep+1 < sim.Reps; rep++ {
			a := g.RuntimeColumn(rep)
			b := g.RuntimeColumn(rep + 1)
			res, err := stats.Wilcoxon(a, b)
			row := WilcoxonRow{
				Group:     group,
				Pair:      fmt.Sprintf("R%d, R%d", rep, rep+1),
				Statistic: res.Statistic,
				PValue:    res.PValue,
			}
			if err == stats.ErrDegenerate {
				row.Degenerate = true
				row.PValue = 1
			} else if err != nil {
				row.PValue = 1
				row.Degenerate = true
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// RuntimeStatRow is one row of Table IV: the mean and standard deviation of
// one run index over all configurations of a setting.
type RuntimeStatRow struct {
	Group string
	Rep   int
	Mean  float64
	Std   float64
}

// RuntimeStats reproduces Table IV for one application and setting label
// (the paper tabulates the first three run indices).
func (f *Frame) RuntimeStats(app, setting string, reps int) []RuntimeStatRow {
	var rows []RuntimeStatRow
	for _, g := range f.SettingGroups(app) {
		if g.Setting != setting {
			continue
		}
		group := fmt.Sprintf("%s-%s-%s", g.Arch, app, setting)
		for rep := 0; rep < reps && rep < sim.Reps; rep++ {
			col := g.RuntimeColumn(rep)
			rows = append(rows, RuntimeStatRow{
				Group: group, Rep: rep,
				Mean: stats.Mean(col), Std: stats.StdDev(col),
			})
		}
	}
	return rows
}

// SpeedupRangeRow is one row of Tables V/VI.
type SpeedupRangeRow struct {
	App  string
	Arch topology.Arch // empty for the cross-architecture Table VI rows
	Lo   float64
	Hi   float64
}

// TableV returns per-(app, arch) best-speedup ranges for the given apps.
func (f *Frame) TableV(appNames []string) []SpeedupRangeRow {
	var rows []SpeedupRangeRow
	for _, app := range appNames {
		for _, arch := range topology.Arches() {
			best := f.bests(ofAppOnArch(app, arch))
			if len(best) == 0 {
				continue
			}
			lo, hi := dataset.RangeOf(best)
			rows = append(rows, SpeedupRangeRow{App: app, Arch: arch, Lo: lo, Hi: hi})
		}
	}
	return rows
}

// TableVI returns the per-application best-speedup range across all
// architectures and settings, sorted by application name as in the paper.
func (f *Frame) TableVI() []SpeedupRangeRow {
	var rows []SpeedupRangeRow
	for _, app := range f.apps {
		lo, hi := dataset.RangeOf(f.bests(ofApp(app)))
		rows = append(rows, SpeedupRangeRow{App: app, Lo: lo, Hi: hi})
	}
	return rows
}
