package core

import (
	"fmt"
	"sort"
	"strings"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// DrillDown implements the hierarchical reading the paper describes at the
// end of §V-3: start from the per-architecture view (Fig 3); if the
// Application feature matters there, move to the per-application view
// (Fig 2); if the Architecture feature matters there, finish at the
// per-application-architecture view (Fig 4) — and report, at the finest
// level, which variables to tune first.
type DrillDown struct {
	App  string
	Arch topology.Arch

	// ArchLevelAppInfluence is the Application column of the Fig 3 row —
	// how app-dependent tuning on this architecture is.
	ArchLevelAppInfluence float64
	// AppLevelArchInfluence is the Architecture column of the Fig 2 row —
	// how arch-dependent tuning of this application is.
	AppLevelArchInfluence float64
	// Variables is the finest-level (Fig 4) ranking of the environment
	// variables, most influential first, with their influences.
	Variables []RankedVariable
	// BestSpeedup is the per-setting best speedup range at this level.
	BestLo, BestHi float64
	// Recommended are the Table VII-style value suggestions at this level.
	Recommended []Recommendation
}

// RankedVariable pairs a variable with its influence at the finest level.
type RankedVariable struct {
	Variable  env.VarName
	Influence float64
}

// Drill runs the three-level analysis for one application on one
// architecture.
func Drill(ds *dataset.Dataset, app string, arch topology.Arch) (*DrillDown, error) {
	sub := ds.ByApp(app).ByArch(arch)
	if sub.Len() == 0 {
		return nil, fmt.Errorf("core: no samples for %s on %s", app, arch)
	}
	d := &DrillDown{App: app, Arch: arch}

	// Level 1: per architecture (Fig 3).
	fig3, err := InfluenceHeatmap(ds, PerArch, ml.LogisticOptions{})
	if err != nil {
		return nil, err
	}
	d.ArchLevelAppInfluence = fig3.RowInfluence(string(arch), FeatApp)

	// Level 2: per application (Fig 2).
	fig2, err := InfluenceHeatmap(ds, PerApp, ml.LogisticOptions{})
	if err != nil {
		return nil, err
	}
	d.AppLevelArchInfluence = fig2.RowInfluence(app, FeatArch)

	// Level 3: the finest grouping, restricted to this app-arch pair.
	fig4, err := InfluenceHeatmap(sub, PerArchApp, ml.LogisticOptions{})
	if err != nil {
		return nil, err
	}
	row := PerArchApp.label(&dataset.Group{Arch: arch, App: app})
	for _, v := range env.Names() {
		d.Variables = append(d.Variables, RankedVariable{
			Variable: v, Influence: fig4.RowInfluence(row, string(v)),
		})
	}
	sort.SliceStable(d.Variables, func(i, j int) bool {
		return d.Variables[i].Influence > d.Variables[j].Influence
	})

	d.BestLo, d.BestHi = sub.SpeedupRange()
	for _, r := range Recommend(ds, app) {
		if r.Arch == "" || r.Arch == arch {
			d.Recommended = append(d.Recommended, r)
		}
	}
	return d, nil
}

// String renders the drill-down as a short advisory text.
func (d *DrillDown) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: best speedup %.3f-%.3fx over the default\n", d.App, d.Arch, d.BestLo, d.BestHi)
	fmt.Fprintf(&b, "  application-dependence on this arch (Fig 3): %.2f\n", d.ArchLevelAppInfluence)
	fmt.Fprintf(&b, "  architecture-dependence of this app (Fig 2): %.2f\n", d.AppLevelArchInfluence)
	fmt.Fprintf(&b, "  tune first (Fig 4 ranking):")
	for i, rv := range d.Variables {
		if i >= 3 {
			break
		}
		fmt.Fprintf(&b, " %s(%.2f)", rv.Variable, rv.Influence)
	}
	fmt.Fprintln(&b)
	for _, r := range d.Recommended {
		scope := "all architectures"
		if r.Arch != "" {
			scope = string(r.Arch)
		}
		fmt.Fprintf(&b, "  try %s=%s (%s, lift %.2f)\n", r.Variable, strings.Join(r.Values, "/"), scope, r.Lift)
	}
	return b.String()
}
