package core

import (
	"fmt"
	"sort"
	"strings"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// SobolIndex is one variable's share of the runtime variance within a group.
type SobolIndex struct {
	Var   env.VarName `json:"var"`
	First float64     `json:"first"` // S_i: main effect alone
	Total float64     `json:"total"` // ST_i: main effect + interactions
}

// SobolGroup holds the sensitivity decomposition of one measurement setting
// (arch/app/setting): the variance of mean runtime across the swept
// configuration space, partitioned per tuning variable.
type SobolGroup struct {
	Group    string       `json:"group"`
	Configs  int          `json:"configs"`  // distinct configs measured in the group
	Misses   int          `json:"misses"`   // evaluations that fell outside the measured set
	Evals    int          `json:"evals"`    // total response evaluations
	Mean     float64      `json:"mean"`     // mean runtime over the base samples
	Variance float64      `json:"variance"` // runtime variance over the base samples
	Indices  []SobolIndex `json:"indices"`
}

// Rank returns the group's variables ordered by total-order index,
// most influential first.
func (g *SobolGroup) Rank() []env.VarName {
	idx := make([]int, len(g.Indices))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return g.Indices[idx[a]].Total > g.Indices[idx[b]].Total
	})
	out := make([]env.VarName, len(idx))
	for i, j := range idx {
		out[i] = g.Indices[j].Var
	}
	return out
}

// Index returns the group's index pair for the named variable, or zeros.
func (g *SobolGroup) Index(v env.VarName) SobolIndex {
	for _, ix := range g.Indices {
		if ix.Var == v {
			return ix
		}
	}
	return SobolIndex{Var: v}
}

// SobolReport is the dataset-wide sensitivity analysis: one group per
// measurement setting, plus the sampling parameters that produced it.
type SobolReport struct {
	Samples int          `json:"samples"` // base samples per group
	Seed    int64        `json:"seed"`
	Groups  []SobolGroup `json:"groups"`
}

// MeanTotal returns the across-groups mean total-order index per variable,
// in canonical variable order — the dataset-wide ranking signal.
func (r *SobolReport) MeanTotal() []SobolIndex {
	if len(r.Groups) == 0 {
		return nil
	}
	names := env.Names()
	out := make([]SobolIndex, len(names))
	for i, v := range names {
		out[i].Var = v
		for j := range r.Groups {
			ix := r.Groups[j].Index(v)
			out[i].First += ix.First
			out[i].Total += ix.Total
		}
		out[i].First /= float64(len(r.Groups))
		out[i].Total /= float64(len(r.Groups))
	}
	return out
}

// Rank returns the variables ordered by across-groups mean total-order
// index, most influential first.
func (r *SobolReport) Rank() []env.VarName {
	means := r.MeanTotal()
	sort.SliceStable(means, func(a, b int) bool { return means[a].Total > means[b].Total })
	out := make([]env.VarName, len(means))
	for i, m := range means {
		out[i] = m.Var
	}
	return out
}

// String renders the report as a fixed-width table, one block per group
// followed by the pooled ranking.
func (r *SobolReport) String() string {
	var sb strings.Builder
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(&sb, "%s  (configs %d, misses %d/%d, mean %.4g, var %.4g)\n",
			g.Group, g.Configs, g.Misses, g.Evals, g.Mean, g.Variance)
		fmt.Fprintf(&sb, "  %-22s %8s %8s\n", "variable", "S", "ST")
		for _, v := range g.Rank() {
			ix := g.Index(v)
			fmt.Fprintf(&sb, "  %-22s %8.4f %8.4f\n", v, ix.First, ix.Total)
		}
	}
	if len(r.Groups) > 1 {
		fmt.Fprintf(&sb, "pooled ranking (mean ST across %d groups)\n", len(r.Groups))
		fmt.Fprintf(&sb, "  %-22s %8s %8s\n", "variable", "S", "ST")
		means := r.MeanTotal()
		sort.SliceStable(means, func(a, b int) bool { return means[a].Total > means[b].Total })
		for _, m := range means {
			fmt.Fprintf(&sb, "  %-22s %8.4f %8.4f\n", m.Var, m.First, m.Total)
		}
	}
	return sb.String()
}

// SobolSensitivity partitions the runtime variance of each measurement
// setting across the seven tuning variables with Saltelli-sampled Sobol
// indices (stats.Sobol) over the discrete swept domains.
//
// The response surface is the measured mean runtime, looked up by
// configuration key. Saltelli hybrids can land on configurations the sweep
// never measured (e.g. a subsampled or pruned sweep); those evaluations fall
// back to the group's mean response — a zero-variance substitution that
// biases indices toward zero rather than inventing signal — and are counted
// in Misses so readers can judge coverage.
func SobolSensitivity(ds *dataset.Dataset, n int, seed int64) (*SobolReport, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("core: sobol: empty dataset")
	}
	if n <= 0 {
		n = 256
	}
	rep := &SobolReport{Samples: n, Seed: seed}
	names := env.Names()
	for _, sub := range ds.Groups() {
		if len(sub.Samples) < 2 {
			continue // a single config has no variance to partition
		}
		group := sub.Samples[0].SettingKey()
		machine, err := topology.Get(sub.Arch)
		if err != nil {
			return nil, fmt.Errorf("core: sobol: group %s: %w", group, err)
		}

		// Mean runtime per measured configuration, and the group mean as the
		// out-of-sweep fallback.
		resp := make(map[string]float64, len(sub.Samples))
		cnt := make(map[string]int, len(sub.Samples))
		groupMean := 0.0
		for _, s := range sub.Samples {
			// MeanRuntime divides by 4, a multiply that arm64 would fuse
			// into the sum: float64() rounds it first, as amd64 does.
			k, mean := s.Config.Key(), float64(s.MeanRuntime())
			resp[k] += mean
			cnt[k]++
			groupMean += mean
		}
		groupMean /= float64(len(sub.Samples))
		for k, c := range cnt {
			resp[k] /= float64(c)
		}

		domains := make([][]string, len(names))
		levels := make([]int, len(names))
		for i, v := range names {
			domains[i] = env.Values(machine, v)
			levels[i] = len(domains[i])
		}

		base := env.Default(machine)
		misses := 0
		f := func(idx []int) float64 {
			c := base
			for i, v := range names {
				c, _ = c.Set(v, domains[i][idx[i]]) // domain values always parse
			}
			if r, ok := resp[c.Key()]; ok {
				return r
			}
			misses++
			return groupMean
		}

		res, err := stats.Sobol(levels, f, n, seed)
		if err != nil {
			return nil, fmt.Errorf("core: sobol: group %s: %w", group, err)
		}
		sg := SobolGroup{
			Group:   group,
			Configs: len(resp),
			Misses:  misses,
			Evals:   res.Evals,
			Mean:    res.Mean, Variance: res.Variance,
		}
		for i, v := range names {
			sg.Indices = append(sg.Indices, SobolIndex{Var: v, First: res.First[i], Total: res.Total[i]})
		}
		rep.Groups = append(rep.Groups, sg)
	}
	if len(rep.Groups) == 0 {
		return nil, fmt.Errorf("core: sobol: no group has more than one configuration")
	}
	return rep, nil
}
