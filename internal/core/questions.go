package core

import (
	"sort"

	"omptune/internal/env"
	"omptune/internal/topology"
)

// Q2Row answers §V-Q2 for one application: does the same set of environment
// variables define the upshot across architectures? It reports the
// variables that appear among the top-influence set on every architecture
// the app ran on, and the Jaccard overlap of those per-architecture sets.
type Q2Row struct {
	App string
	// PerArchTop maps each architecture to its top-2 variables by lift
	// among the fastest configurations.
	PerArchTop map[topology.Arch][]env.VarName
	// Consistent is the intersection across architectures.
	Consistent []env.VarName
	// Jaccard is |intersection| / |union| of the per-arch top sets: 1 means
	// the same variables matter everywhere, 0 means no overlap.
	Jaccard float64
}

// Q2Consistency computes the Q2 analysis for every application in the
// frame's dataset.
func (f *Frame) Q2Consistency() []Q2Row {
	var rows []Q2Row
	for _, app := range f.apps {
		row := Q2Row{App: app, PerArchTop: map[topology.Arch][]env.VarName{}}
		union := map[env.VarName]int{}
		archCount := 0
		for _, arch := range topology.Arches() {
			if !f.has(ofAppOnArch(app, arch)) {
				continue
			}
			archCount++
			lifts := f.fastestLifts(app, arch)
			type vl struct {
				v    env.VarName
				lift float64
			}
			ranked := make([]vl, 0, len(tableFeatures))
			for k, v := range tableFeatures {
				best := 0.0
				for _, l := range f.liftsOf(lifts, k) {
					if l > best {
						best = l
					}
				}
				ranked = append(ranked, vl{v, best})
			}
			sort.Slice(ranked, func(i, j int) bool { return ranked[i].lift > ranked[j].lift })
			top := make([]env.VarName, 0, 2)
			for k := 0; k < 2 && k < len(ranked); k++ {
				top = append(top, ranked[k].v)
				union[ranked[k].v]++
			}
			row.PerArchTop[arch] = top
		}
		inter := 0
		for v, c := range union {
			if c == archCount && archCount > 0 {
				inter++
				row.Consistent = append(row.Consistent, v)
			}
		}
		sort.Slice(row.Consistent, func(i, j int) bool { return row.Consistent[i] < row.Consistent[j] })
		if len(union) > 0 {
			row.Jaccard = float64(inter) / float64(len(union))
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	return rows
}

// Q3Row answers §V-Q3 for one architecture: which variables work best
// there, ranked by their mean influence in the per-architecture heatmap,
// with the paper's derived observation about OMP_WAIT_POLICY.
type Q3Row struct {
	Arch topology.Arch
	// Ranked is the environment variables by descending influence.
	Ranked []RankedVariable
	// WaitPolicyShare is the combined influence of KMP_LIBRARY and
	// KMP_BLOCKTIME — the share a user could address by tuning the single
	// derived OMP_WAIT_POLICY variable instead (§V-3).
	WaitPolicyShare float64
}

// Q3BestVariables derives the §V-Q3 per-architecture variable ranking from
// a per-architecture influence heatmap (Fig. 3).
func Q3BestVariables(hm *Heatmap) []Q3Row {
	var rows []Q3Row
	for _, label := range hm.RowLabels {
		row := Q3Row{Arch: topology.Arch(label)}
		for _, v := range env.Names() {
			row.Ranked = append(row.Ranked, RankedVariable{
				Variable:  v,
				Influence: hm.RowInfluence(label, string(v)),
			})
		}
		sort.SliceStable(row.Ranked, func(i, j int) bool {
			return row.Ranked[i].Influence > row.Ranked[j].Influence
		})
		row.WaitPolicyShare = hm.RowInfluence(label, string(env.VarLibrary)) +
			hm.RowInfluence(label, string(env.VarBlocktime))
		rows = append(rows, row)
	}
	return rows
}
