package core

import (
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// Frame is one analysis pass over a dataset: its groups and runs from one
// walk, and the columns every table, question and heatmap reads, built once
// so that no section rescans the samples. Per sample it holds the speedup
// (Sample.Speedup, called once) and a configuration id; per distinct
// configuration its seven feature values and value ids (variables in
// env.Names order). Selections by application and architecture filter the
// groups and emit their runs in dataset order — the samples Dataset.Where
// returns, in the same order.
//
// A Frame sees the dataset as it was when NewFrame ran. It memoises the
// fastest-sample lifts of each (application, architecture) slice, which Q2
// and Table VII share, so it is not safe for concurrent use.
type Frame struct {
	samples []*dataset.Sample
	groups  []dataset.Group
	runs    []dataset.Run
	apps    []string // distinct applications, sorted: the Application feature's coding

	speedup []float64 // per sample
	config  []int32   // per sample: its configuration's id
	best    []float64 // per group: its best speedup, as Group.Best finds it

	// feats and values hold configuration c's env.Names features and value
	// ids at [c*nv, (c+1)*nv); names[k][id] is the value string of id for
	// variable k, ids in ascending string order.
	feats  []float64
	values []int32
	names  [][]string

	fastest map[appArch][][]float64
}

type appArch struct {
	app  string
	arch topology.Arch
}

// NewFrame builds ds's frame in one walk over its samples.
func NewFrame(ds *dataset.Dataset) *Frame {
	f := &Frame{samples: ds.Samples[:len(ds.Samples):len(ds.Samples)], fastest: map[appArch][][]float64{}}
	f.groups, f.runs = ds.Runs()
	f.apps = dataset.AppsOf(f.groups)
	f.speedup = make([]float64, len(f.samples))
	f.config = make([]int32, len(f.samples))
	f.best = make([]float64, len(f.groups))
	nv := len(tableFeatures)
	f.names = make([][]string, nv)
	valueID := make([]map[string]int32, nv)
	for k := range valueID {
		valueID[k] = map[string]int32{}
	}
	ids := make(map[env.Config]int32)
	next := 0
	for _, r := range f.runs {
		// Groups are numbered in first-seen order, so a group's first run
		// carries the next unseen number. Its first sample seeds the group's
		// best, and only a strictly higher speedup replaces it.
		first, best := r.Group == next, f.best[r.Group]
		if first {
			next++
		}
		for p := r.Lo; p < r.Hi; p++ {
			s := f.samples[p]
			sp := s.Speedup()
			f.speedup[p] = sp
			if first || sp > best {
				first, best = false, sp
			}
			id, ok := ids[s.Config]
			if !ok {
				id = int32(len(ids))
				ids[s.Config] = id
				for k, v := range tableFeatures {
					f.feats = append(f.feats, s.Config.Feature(v))
					val := s.Config.Value(v)
					vid, ok := valueID[k][val]
					if !ok {
						vid = int32(len(f.names[k]))
						valueID[k][val] = vid
						f.names[k] = append(f.names[k], val)
					}
					f.values = append(f.values, vid)
				}
			}
			f.config[p] = id
		}
		f.best[r.Group] = best
	}
	// Renumber each variable's value ids in ascending string order.
	for k, names := range f.names {
		sorted := append([]string(nil), names...)
		sort.Strings(sorted)
		rank := make([]int32, len(sorted))
		for id, val := range names {
			rank[id] = int32(sort.SearchStrings(sorted, val))
		}
		for i := k; i < len(f.values); i += nv {
			f.values[i] = rank[f.values[i]]
		}
		f.names[k] = sorted
	}
	return f
}

// selection is the runs of some of a frame's groups, in dataset order.
type selection []dataset.Run

func (s selection) len() int {
	n := 0
	for _, r := range s {
		n += r.Hi - r.Lo
	}
	return n
}

// where selects the groups match accepts: their samples are exactly what
// Dataset.Where returns, in the same order. match runs once per group.
func (f *Frame) where(match func(*dataset.Group) bool) selection {
	keep := make([]bool, len(f.groups))
	for i := range f.groups {
		keep[i] = match(&f.groups[i])
	}
	var sel selection
	for _, r := range f.runs {
		if keep[r.Group] {
			sel = append(sel, r)
		}
	}
	return sel
}

// bests returns the best speedup of every group match accepts, in group
// order.
func (f *Frame) bests(match func(*dataset.Group) bool) []float64 {
	var out []float64
	for i := range f.groups {
		if match(&f.groups[i]) {
			out = append(out, f.best[i])
		}
	}
	return out
}

// has reports whether match accepts any group.
func (f *Frame) has(match func(*dataset.Group) bool) bool {
	for i := range f.groups {
		if match(&f.groups[i]) {
			return true
		}
	}
	return false
}

func onArch(arch topology.Arch) func(*dataset.Group) bool {
	return func(g *dataset.Group) bool { return g.Arch == arch }
}

func ofApp(app string) func(*dataset.Group) bool {
	return func(g *dataset.Group) bool { return g.App == app }
}

func ofAppOnArch(app string, arch topology.Arch) func(*dataset.Group) bool {
	return func(g *dataset.Group) bool { return g.App == app && g.Arch == arch }
}

// fastestLifts returns the lifts among the fastest samples of app on arch,
// computed once per frame.
func (f *Frame) fastestLifts(app string, arch topology.Arch) [][]float64 {
	key := appArch{app, arch}
	l, ok := f.fastest[key]
	if !ok {
		l = f.valueLift(f.where(ofAppOnArch(app, arch)), fastest)
		f.fastest[key] = l
	}
	return l
}
