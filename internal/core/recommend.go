package core

import (
	"sort"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/topology"
)

// Recommendation names the values of one variable that are over-represented
// among a group's fastest configurations — the Table VII content.
type Recommendation struct {
	App      string
	Arch     topology.Arch // empty = consistent across architectures
	Variable env.VarName
	Values   []string
	// Lift is how much more frequent the values are among the top
	// configurations than in the overall sweep (1 = no enrichment).
	Lift float64
}

// The mining of Table VII and §V-Q4: the share of a group's samples, fastest
// or slowest, examined for over-represented values; the enrichment a value
// needs to be recommended; and how many variables one architecture adds.
const (
	extremeFrac  = 0.05
	minLift      = 1.35
	maxVarsAdded = 3
)

// fastest and slowest order speedups for valueLift: which extreme to mine.
func fastest(a, b float64) bool { return a > b }
func slowest(a, b float64) bool { return a < b }

// valueLift computes, for each variable (env.Names order), the enrichment
// of each value among the extremeFrac of sel's samples that come first
// under before (fastest or slowest), relative to its share of all of sel:
// lifts[k][id] for value id of variable k, 0 where sel lacks the value.
//
// The extreme set is the prefix sort.Slice leaves over sel in dataset
// order. Speedups tie across the cut in most (application, architecture)
// slices of the study's dataset, so which tied samples count is that sort's
// choice. sort.Slice's permutation depends only on the length and the
// comparator's answers, so sorting an index array by the same comparison of
// the same speedups picks the same samples as sorting the samples did.
func (f *Frame) valueLift(sel selection, before func(a, b float64) bool) [][]float64 {
	n := sel.len()
	sp, config, order := make([]float64, 0, n), make([]int32, 0, n), make([]int32, n)
	for _, r := range sel {
		sp = append(sp, f.speedup[r.Lo:r.Hi]...)
		config = append(config, f.config[r.Lo:r.Hi]...)
	}
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return before(sp[order[i]], sp[order[j]]) })
	nTop := int(float64(n) * extremeFrac)
	if nTop < 10 {
		nTop = min(10, n)
	}

	// Count by configuration, then fold each configuration's counts into
	// its values once.
	nv := len(f.names)
	nc := len(f.values) / nv
	all, top := make([]int, nc), make([]int, nc)
	for i, o := range order {
		all[config[o]]++
		if i < nTop {
			top[config[o]]++
		}
	}
	lifts := make([][]float64, nv)
	for k := range lifts {
		cAll, cTop := make([]int, len(f.names[k])), make([]int, len(f.names[k]))
		for c, cnt := range all {
			if cnt > 0 {
				id := f.values[c*nv+k]
				cAll[id] += cnt
				cTop[id] += top[c]
			}
		}
		lifts[k] = make([]float64, len(cAll))
		for id, c := range cAll {
			if c > 0 {
				pAll := float64(c) / float64(n)
				pTop := float64(cTop[id]) / float64(nTop)
				lifts[k][id] = pTop / pAll
			}
		}
	}
	return lifts
}

// Recommend mines the best-performing variable/value pairs for one
// application: first values that are enriched among the fastest
// configurations on every architecture (the "All" rows of Table VII, like
// NQueens' KMP_LIBRARY=turnaround), then per-architecture additions. Rows
// of equal lift keep env.Names order.
func Recommend(ds *dataset.Dataset, app string) []Recommendation { return NewFrame(ds).Recommend(app) }

// Recommend is Recommend over the frame's dataset.
func (f *Frame) Recommend(app string) []Recommendation {
	var out []Recommendation

	// Which (variable, value) pairs clear the lift bar on every arch?
	perArch := map[topology.Arch][][]float64{}
	var archs []topology.Arch
	for _, arch := range topology.Arches() {
		if !f.has(ofAppOnArch(app, arch)) {
			continue
		}
		archs = append(archs, arch)
		perArch[arch] = f.fastestLifts(app, arch)
	}
	if len(archs) == 0 {
		return nil
	}
	names := env.Names()
	consistent := make([]bool, len(names))
	for k, v := range names {
		var vals []string
		lift := 0.0
		for id := range f.names[k] {
			lowest := 1e18
			for _, arch := range archs {
				lowest = min(lowest, perArch[arch][k][id])
			}
			if lowest >= minLift {
				vals = append(vals, f.names[k][id])
				lift = max(lift, lowest)
			}
		}
		if len(vals) > 0 {
			consistent[k] = true
			out = append(out, Recommendation{App: app, Variable: v, Values: vals, Lift: lift})
		}
	}

	// Per-architecture additions beyond the consistent set.
	for _, arch := range archs {
		type cand struct {
			v    env.VarName
			vals []string
			lift float64
		}
		var cands []cand
		for k, v := range names {
			if consistent[k] {
				continue
			}
			var vals []string
			best := 0.0
			for id, l := range perArch[arch][k] {
				if l >= minLift {
					vals = append(vals, f.names[k][id])
					if l > best {
						best = l
					}
				}
			}
			if len(vals) > 0 {
				cands = append(cands, cand{v, vals, best})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].lift > cands[j].lift })
		cands = cands[:min(len(cands), maxVarsAdded)]
		for _, c := range cands {
			out = append(out, Recommendation{App: app, Arch: arch, Variable: c.v, Values: c.vals, Lift: c.lift})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Arch != out[j].Arch {
			return out[i].Arch < out[j].Arch
		}
		return out[i].Lift > out[j].Lift
	})
	return out
}

// WorstTrend is one over-represented variable/value pair among the slowest
// configurations (§V-Q4).
type WorstTrend struct {
	Variable env.VarName
	Value    string
	Lift     float64
}

// WorstTrends mines the bottom extremeFrac of samples (by speedup) across
// the dataset for enriched variable/value pairs. The paper's finding — master
// binding onto small places with large thread counts — appears as high
// lifts for OMP_PROC_BIND=master and fine-grained OMP_PLACES values. Pairs
// of equal lift keep env.Names order, then value order.
func WorstTrends(ds *dataset.Dataset) []WorstTrend { return NewFrame(ds).WorstTrends() }

// WorstTrends is WorstTrends over the frame's dataset.
func (f *Frame) WorstTrends() []WorstTrend {
	var out []WorstTrend
	lifts := f.valueLift(f.runs, slowest)
	for k, v := range env.Names() {
		for id, lift := range lifts[k] {
			if lift >= 1.5 {
				out = append(out, WorstTrend{Variable: v, Value: f.names[k][id], Lift: lift})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Lift > out[j].Lift })
	return out
}
