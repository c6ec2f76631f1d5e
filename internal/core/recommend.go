package core

import (
	"fmt"
	"slices"
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
// a lift vector, which holds value id of variable k at slot base[k]+id (see
// liftsOf), 0 where sel lacks the value. The vector is the one allocation:
// the rest is the frame's scratch.
//
// The extreme set is the prefix sort.Slice leaves over sel in dataset
// order. Speedups tie across the cut in most (application, architecture)
// slices of the study's dataset, so which tied samples count is that sort's
// choice. sort.Slice's permutation depends only on the length and the
// comparator's answers, and slices.SortFunc runs the same pattern-defeating
// quicksort (both are generated from one template), so sorting the
// selection's sample positions by the same comparison of the same speedups
// picks the same samples as sorting the samples did.
func (f *Frame) valueLift(sel selection, before func(a, b float64) bool) []float64 {
	s := &f.lift
	if n := sel.len(); cap(s.order) < n {
		s.order = make([]int32, 0, n)
	}
	s.order = s.order[:0]
	for _, r := range sel {
		for p := r.Lo; p < r.Hi; p++ {
			s.order = append(s.order, int32(p))
		}
	}
	sp := f.speedup
	slices.SortFunc(s.order, func(a, b int32) int {
		if before(sp[a], sp[b]) {
			return -1
		}
		return 0
	})
	n := len(s.order)
	nTop := int(float64(n) * extremeFrac)
	if nTop < 10 {
		nTop = min(10, n)
	}

	// Count by configuration, then fold each configuration's counts into
	// its values once.
	nv := len(f.names)
	nc := len(f.values) / nv
	s.all, s.top = grown(s.all, nc), grown(s.top, nc)
	s.cAll, s.cTop = grown(s.cAll, f.base[nv]), grown(s.cTop, f.base[nv])
	for i, p := range s.order {
		c := f.config[p]
		s.all[c]++
		if i < nTop {
			s.top[c]++
		}
	}
	for c, cnt := range s.all {
		if cnt > 0 {
			for k := range nv {
				slot := f.base[k] + int(f.values[c*nv+k])
				s.cAll[slot] += cnt
				s.cTop[slot] += s.top[c]
			}
		}
	}
	lifts := make([]float64, f.base[nv])
	for slot, c := range s.cAll {
		if c > 0 {
			pAll := float64(c) / float64(n)
			pTop := float64(s.cTop[slot]) / float64(nTop)
			lifts[slot] = pTop / pAll
		}
	}
	return lifts
}

// liftScratch is valueLift's working storage, kept on the frame and grown
// to the largest selection: the selection's sample positions in the order
// valueLift sorts them, and its counts by configuration and by value slot.
type liftScratch struct {
	order      []int32
	all, top   []int
	cAll, cTop []int
}

// grown returns s cleared to length n, reusing its array when it is large
// enough.
func grown(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Recommend mines the best-performing variable/value pairs for one
// application: first values that are enriched among the fastest
// configurations on every architecture (the "All" rows of Table VII, like
// NQueens' KMP_LIBRARY=turnaround), then per-architecture additions. Rows
// of equal lift keep env.Names order. An app with no samples in ds is an
// error.
func Recommend(ds *dataset.Dataset, app string) ([]Recommendation, error) {
	f := NewFrame(ds)
	if !f.has(ofApp(app)) {
		return nil, noSamples(app)
	}
	return f.Recommend(app), nil
}

// noSamples is the error of an analysis of app over a dataset without it.
func noSamples(app string) error { return fmt.Errorf("core: no samples for %s", app) }

// Recommend is Recommend over the frame's dataset.
func (f *Frame) Recommend(app string) []Recommendation {
	var out []Recommendation

	// Which (variable, value) pairs clear the lift bar on every arch?
	perArch := map[topology.Arch][]float64{}
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
	consistent := make([]bool, len(tableFeatures))
	for k, v := range tableFeatures {
		var vals []string
		lift := 0.0
		for id := range f.names[k] {
			lowest := 1e18
			for _, arch := range archs {
				lowest = min(lowest, f.liftsOf(perArch[arch], k)[id])
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
		for k, v := range tableFeatures {
			if consistent[k] {
				continue
			}
			var vals []string
			best := 0.0
			for id, l := range f.liftsOf(perArch[arch], k) {
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
	for k, v := range tableFeatures {
		for id, lift := range f.liftsOf(lifts, k) {
			if lift >= 1.5 {
				out = append(out, WorstTrend{Variable: v, Value: f.names[k][id], Lift: lift})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Lift > out[j].Lift })
	return out
}
