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

// fastest and slowest order samples for valueLift: which extreme to mine.
func fastest(a, b *dataset.Sample) bool { return a.Speedup() > b.Speedup() }
func slowest(a, b *dataset.Sample) bool { return a.Speedup() < b.Speedup() }

// valueLift computes, for each variable, the enrichment of each value among
// the extremeFrac of ds's samples that come first under before (fastest or
// slowest), relative to its share of all of ds.
func valueLift(ds *dataset.Dataset, before func(a, b *dataset.Sample) bool) map[env.VarName]map[string]float64 {
	samples := append([]*dataset.Sample(nil), ds.Samples...)
	sort.Slice(samples, func(i, j int) bool { return before(samples[i], samples[j]) })
	nTop := int(float64(len(samples)) * extremeFrac)
	if nTop < 10 {
		nTop = min(10, len(samples))
	}
	top := samples[:nTop]

	out := make(map[env.VarName]map[string]float64)
	for _, v := range env.Names() {
		all := map[string]int{}
		topCount := map[string]int{}
		for _, s := range samples {
			all[s.Config.Value(v)]++
		}
		for _, s := range top {
			topCount[s.Config.Value(v)]++
		}
		lifts := map[string]float64{}
		for val, cAll := range all {
			pAll := float64(cAll) / float64(len(samples))
			pTop := float64(topCount[val]) / float64(len(top))
			if pAll > 0 {
				lifts[val] = pTop / pAll
			}
		}
		out[v] = lifts
	}
	return out
}

// Recommend mines the best-performing variable/value pairs for one
// application: first values that are enriched among the fastest
// configurations on every architecture (the "All" rows of Table VII, like
// NQueens' KMP_LIBRARY=turnaround), then per-architecture additions.
func Recommend(ds *dataset.Dataset, app string) []Recommendation {
	sub := ds.ByApp(app)
	var out []Recommendation

	// Which (variable, value) pairs clear the lift bar on every arch?
	perArch := map[topology.Arch]map[env.VarName]map[string]float64{}
	var archs []topology.Arch
	for _, arch := range topology.Arches() {
		a := sub.ByArch(arch)
		if a.Len() == 0 {
			continue
		}
		archs = append(archs, arch)
		perArch[arch] = valueLift(a, fastest)
	}
	if len(archs) == 0 {
		return nil
	}
	consistent := map[env.VarName][]string{}
	consistentLift := map[env.VarName]float64{}
	for _, v := range env.Names() {
		for val := range perArch[archs[0]][v] {
			lowest := 1e18
			for _, arch := range archs {
				lowest = min(lowest, perArch[arch][v][val])
			}
			if lowest >= minLift {
				consistent[v] = append(consistent[v], val)
				consistentLift[v] = max(consistentLift[v], lowest)
			}
		}
	}
	for v, vals := range consistent {
		sort.Strings(vals)
		out = append(out, Recommendation{App: app, Variable: v, Values: vals, Lift: consistentLift[v]})
	}

	// Per-architecture additions beyond the consistent set.
	for _, arch := range archs {
		type cand struct {
			v    env.VarName
			vals []string
			lift float64
		}
		var cands []cand
		for _, v := range env.Names() {
			if len(consistent[v]) > 0 {
				continue
			}
			var vals []string
			best := 0.0
			for val, l := range perArch[arch][v] {
				if l >= minLift {
					vals = append(vals, val)
					if l > best {
						best = l
					}
				}
			}
			if len(vals) > 0 {
				sort.Strings(vals)
				cands = append(cands, cand{v, vals, best})
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].lift > cands[j].lift })
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
// lifts for OMP_PROC_BIND=master and fine-grained OMP_PLACES values.
func WorstTrends(ds *dataset.Dataset) []WorstTrend {
	var out []WorstTrend
	for v, lifts := range valueLift(ds, slowest) {
		for val, lift := range lifts {
			if lift >= 1.5 {
				out = append(out, WorstTrend{Variable: v, Value: val, Lift: lift})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lift > out[j].Lift })
	return out
}
