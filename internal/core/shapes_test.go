package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// These tests assert the qualitative findings ("shapes") of the paper's
// evaluation section against the simulated reproduction: who wins, by
// roughly what factor, and where the crossovers fall. Tolerances are wide
// on purpose — the substrate is a model, not the authors' testbed.

func TestShapeTableIISampleCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	want := map[topology.Arch]int{
		topology.A64FX:   53822,
		topology.Skylake: 90230,
		topology.Milan:   99707,
	}
	for arch, w := range want {
		got := ds.ByArch(arch).Len()
		if math.Abs(float64(got-w))/float64(w) > 0.03 {
			t.Errorf("%s: %d samples, want within 3%% of %d (Table II)", arch, got, w)
		}
	}
	if total := ds.Len(); total < 230000 || total > 260000 {
		t.Errorf("total samples = %d, want ~240k", total)
	}
}

func TestShapeQ1MediansAndMaxima(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	up := Upshot(ds)
	if len(up) != 3 {
		t.Fatalf("Upshot returned %d architectures", len(up))
	}
	med := map[topology.Arch]float64{}
	maxs := map[topology.Arch]float64{}
	for _, u := range up {
		med[u.Arch] = u.MedianBest
		maxs[u.Arch] = u.MaxBest
	}
	// Paper: medians 1.02 / 1.065 / 1.15 — Milan clearly above the others.
	if !(med[topology.Milan] > med[topology.A64FX] && med[topology.Milan] > med[topology.Skylake]) {
		t.Errorf("Milan median %v should exceed a64fx %v and skylake %v",
			med[topology.Milan], med[topology.A64FX], med[topology.Skylake])
	}
	for arch, m := range med {
		if m < 1.0 || m > 1.3 {
			t.Errorf("%s: median best speedup %v outside the plausible band", arch, m)
		}
	}
	// Paper: overall maximum ~4.85x, observed on A64FX.
	if maxs[topology.A64FX] < 4.0 || maxs[topology.A64FX] > 6.0 {
		t.Errorf("a64fx max best speedup %v, want ~4.85", maxs[topology.A64FX])
	}
	if !(maxs[topology.A64FX] > maxs[topology.Skylake] && maxs[topology.Skylake] > maxs[topology.Milan]) {
		t.Errorf("max ordering a64fx %v > skylake %v > milan %v violated (paper: 4.85/3.47/2.6)",
			maxs[topology.A64FX], maxs[topology.Skylake], maxs[topology.Milan])
	}
}

func TestShapeNQueensTurnaroundEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	// Table VI: 2.342-4.851 across architectures.
	for _, arch := range topology.Arches() {
		lo, hi := ds.ByApp("Nqueens").ByArch(arch).SpeedupRange()
		if lo < 1.8 {
			t.Errorf("%s: NQueens best speedup %v, want > 1.8 on every arch", arch, lo)
		}
		if hi > 6 {
			t.Errorf("%s: NQueens best speedup %v implausibly high", arch, hi)
		}
	}
	// Table VII: KMP_LIBRARY=turnaround is the all-architecture winner.
	recs := Recommend(ds, "Nqueens")
	found := false
	for _, r := range recs {
		if r.Arch == "" && r.Variable == env.VarLibrary {
			for _, v := range r.Values {
				if v == "turnaround" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Errorf("NQueens recommendations %v missing all-arch KMP_LIBRARY=turnaround", recs)
	}
	// The best configuration on every architecture spins rather than
	// yields: turnaround mode, or its equivalent KMP_BLOCKTIME=infinite
	// (the paper notes OMP_WAIT_POLICY is derived from the two together).
	for _, arch := range topology.Arches() {
		for _, g := range ds.ByApp("Nqueens").ByArch(arch).Groups() {
			if s := g.Best(); s.Config.EffectiveBlocktimeMS() != env.BlocktimeInfinite {
				t.Errorf("%s: best NQueens config at %s is %s — want a spinning wait policy", arch, s.SettingKey(), s.Config)
			}
		}
	}
}

func TestShapeXSBenchMilanOutlier(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	// Table V: Milan reaches 2.6x; A64FX and Skylake stay marginal.
	_, hiMilan := ds.ByApp("XSbench").ByArch(topology.Milan).SpeedupRange()
	if hiMilan < 2.0 || hiMilan > 3.2 {
		t.Errorf("XSbench Milan max speedup %v, want ~2.6", hiMilan)
	}
	for _, arch := range []topology.Arch{topology.A64FX, topology.Skylake} {
		_, hi := ds.ByApp("XSbench").ByArch(arch).SpeedupRange()
		if hi > 1.08 {
			t.Errorf("XSbench %s max speedup %v, want marginal (paper <= 1.015)", arch, hi)
		}
	}
	// The Milan win comes from binding: the best Milan config must be bound.
	for _, g := range ds.ByApp("XSbench").ByArch(topology.Milan).Groups() {
		if s := g.Best(); s.Speedup() > 1.5 && s.Config.EffectiveBind() == env.BindFalse {
			t.Errorf("best XSbench Milan config at %s is unbound: %s", s.SettingKey(), s.Config)
		}
	}
}

func TestShapeAppSpeedupBands(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	// Loose brackets around Table VI: [minLo, maxLo] for the low end and
	// [minHi, maxHi] for the high end of each application's range.
	bands := map[string][4]float64{
		"Alignment": {1.0, 1.12, 1.10, 1.30},
		"BT":        {1.0, 1.10, 1.05, 1.30},
		"CG":        {1.0, 1.10, 1.50, 2.10},
		"EP":        {1.0, 1.06, 1.02, 1.15},
		"FT":        {1.0, 1.08, 1.25, 1.70},
		"Health":    {1.2, 1.50, 1.90, 2.60},
		"LU":        {1.0, 1.10, 1.03, 1.25},
		"LULESH":    {1.0, 1.06, 1.02, 1.15},
		"MG":        {1.0, 1.10, 1.75, 2.50},
		"Nqueens":   {1.8, 2.60, 4.00, 6.00},
		"RSBench":   {1.0, 1.08, 1.10, 1.35},
		"Sort":      {1.1, 1.25, 1.10, 1.30},
		"Strassen":  {1.0, 1.05, 1.00, 1.06},
		"SU3Bench":  {1.0, 1.06, 1.90, 2.70},
		"XSbench":   {1.0, 1.06, 2.00, 3.20},
	}
	for app, b := range bands {
		lo, hi := ds.ByApp(app).SpeedupRange()
		if lo < b[0] || lo > b[1] {
			t.Errorf("%s: range low %v outside [%v, %v]", app, lo, b[0], b[1])
		}
		if hi < b[2] || hi > b[3] {
			t.Errorf("%s: range high %v outside [%v, %v]", app, hi, b[2], b[3])
		}
	}
}

func TestShapeWilcoxonTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	rows := WilcoxonTable(ds, "Alignment", "small")
	if len(rows) != 9 {
		t.Fatalf("WilcoxonTable returned %d rows, want 9 (3 archs x 3 pairs)", len(rows))
	}
	get := func(arch, pair string) WilcoxonRow {
		for _, r := range rows {
			if r.Group == arch+"-Alignment-small" && r.Pair == pair {
				return r
			}
		}
		t.Fatalf("missing row %s %s", arch, pair)
		return WilcoxonRow{}
	}
	// A64FX: consistent on every pair (paper: p = 0.72-0.86).
	for _, pair := range []string{"R0, R1", "R1, R2", "R2, R3"} {
		if r := get("a64fx", pair); r.PValue < 0.05 {
			t.Errorf("a64fx %s: p = %v, want insignificant", pair, r.PValue)
		}
	}
	// Milan: significant differences on every pair (paper: p ~ 0).
	for _, pair := range []string{"R0, R1", "R1, R2", "R2, R3"} {
		if r := get("milan", pair); r.PValue > 1e-10 {
			t.Errorf("milan %s: p = %v, want ~0", pair, r.PValue)
		}
	}
	// Skylake: first pair consistent, later pairs significant (paper:
	// 0.19 / 4e-154 / 2e-140).
	if r := get("skylake", "R0, R1"); r.PValue < 0.05 {
		t.Errorf("skylake R0,R1: p = %v, want insignificant", r.PValue)
	}
	for _, pair := range []string{"R1, R2", "R2, R3"} {
		if r := get("skylake", pair); r.PValue > 1e-10 {
			t.Errorf("skylake %s: p = %v, want ~0", pair, r.PValue)
		}
	}
}

func TestShapeRuntimeStatsTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	rows := NewFrame(ds).RuntimeStats("Alignment", "small", 3)
	get := func(arch string, rep int) RuntimeStatRow {
		for _, r := range rows {
			if r.Group == arch+"-Alignment-small" && r.Rep == rep {
				return r
			}
		}
		t.Fatalf("missing row %s rep %d", arch, rep)
		return RuntimeStatRow{}
	}
	// A64FX: means identical across runs.
	a0, a1, a2 := get("a64fx", 0), get("a64fx", 1), get("a64fx", 2)
	if math.Abs(a0.Mean-a1.Mean)/a0.Mean > 0.002 || math.Abs(a1.Mean-a2.Mean)/a1.Mean > 0.002 {
		t.Errorf("a64fx means differ: %v %v %v", a0.Mean, a1.Mean, a2.Mean)
	}
	// Milan: first run clearly slower (paper: 0.135 vs 0.109).
	m0, m1 := get("milan", 0), get("milan", 1)
	if m0.Mean < 1.15*m1.Mean {
		t.Errorf("milan Runtime_0 %v should be ~24%% above Runtime_1 %v", m0.Mean, m1.Mean)
	}
	// Config spread dominates: std well above the mean everywhere (paper:
	// 0.131 mean vs 0.310 std on a64fx).
	for _, r := range rows {
		if r.Std < r.Mean {
			t.Errorf("%s rep %d: std %v < mean %v — config spread should dominate", r.Group, r.Rep, r.Std, r.Mean)
		}
	}
}

func TestShapeWorstTrendQ4(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	trends := WorstTrends(ds)
	if len(trends) == 0 {
		t.Fatal("no worst trends found")
	}
	var masterLift, coresLift float64
	for _, w := range trends {
		if w.Variable == env.VarProcBind && w.Value == "master" {
			masterLift = w.Lift
		}
		if w.Variable == env.VarPlaces && w.Value == "cores" {
			coresLift = w.Lift
		}
	}
	if masterLift < 3 {
		t.Errorf("master binding lift %v among worst configs, want >= 3 (§V-Q4)", masterLift)
	}
	if coresLift < 1.5 {
		t.Errorf("places=cores lift %v among worst configs, want >= 1.5", coresLift)
	}
	if trends[0].Variable != env.VarProcBind || trends[0].Value != "master" {
		t.Errorf("top worst trend = %s=%s, want OMP_PROC_BIND=master", trends[0].Variable, trends[0].Value)
	}
}

// meanInfluence is the across-rows mean influence of the named feature.
func meanInfluence(h *Heatmap, feature string) float64 {
	j := slices.Index(h.Features, feature)
	if j < 0 || len(h.Cells) == 0 {
		return 0
	}
	total := 0.0
	for _, row := range h.Cells {
		total += row[j]
	}
	return total / float64(len(h.Cells))
}

func TestShapeInfluenceHeatmaps(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	opt := ml.LogisticOptions{Epochs: 120}

	fig3, err := InfluenceHeatmap(ds, PerArch, opt)
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	if len(fig3.RowLabels) != 3 {
		t.Fatalf("fig3 has %d rows, want 3", len(fig3.RowLabels))
	}
	// Fig 3's clearest claims: KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC have
	// very low relevance in the per-architecture grouping...
	if v := meanInfluence(fig3, string(env.VarForceReduction)); v > 0.05 {
		t.Errorf("force_reduction influence %v, want < 0.05", v)
	}
	if v := meanInfluence(fig3, string(env.VarAlignAlloc)); v > 0.05 {
		t.Errorf("align_alloc influence %v, want < 0.05", v)
	}
	// ...while binding/affinity and the wait-policy variables carry weight.
	if v := meanInfluence(fig3, string(env.VarProcBind)); v < 0.10 {
		t.Errorf("proc_bind influence %v, want >= 0.10", v)
	}
	if v := meanInfluence(fig3, string(env.VarLibrary)); v < 0.05 {
		t.Errorf("library influence %v, want >= 0.05 (\"some impact\")", v)
	}
	rank := fig3.FeatureRank()
	last2 := map[string]bool{rank[len(rank)-1]: true, rank[len(rank)-2]: true}
	if !last2[string(env.VarForceReduction)] || !last2[string(env.VarAlignAlloc)] {
		t.Errorf("least influential features = %v, want force_reduction and align_alloc", rank[len(rank)-2:])
	}

	fig2, err := InfluenceHeatmap(ds, PerApp, opt)
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	if len(fig2.RowLabels) != 15 {
		t.Fatalf("fig2 has %d rows, want 15", len(fig2.RowLabels))
	}
	// Sort and Strassen ran on one architecture only: zero reliance.
	for _, app := range []string{"Sort", "Strassen"} {
		if v := fig2.RowInfluence(app, FeatArch); v != 0 {
			t.Errorf("%s architecture influence %v, want 0 (single-arch data)", app, v)
		}
	}
	// Architecture-dependent proxies rely on the architecture feature;
	// BOTS task apps barely do (§V-Q2).
	for _, app := range []string{"XSbench", "SU3Bench"} {
		if v := fig2.RowInfluence(app, FeatArch); v < 0.15 {
			t.Errorf("%s architecture influence %v, want >= 0.15", app, v)
		}
	}
	for _, app := range []string{"Nqueens", "Health", "Alignment"} {
		if v := fig2.RowInfluence(app, FeatArch); v > 0.10 {
			t.Errorf("%s architecture influence %v, want low (BOTS apps transfer across archs)", app, v)
		}
	}

	fig4, err := InfluenceHeatmap(ds, PerArchApp, opt)
	if err != nil {
		t.Fatalf("fig4: %v", err)
	}
	if len(fig4.RowLabels) != 15+13+12 {
		t.Errorf("fig4 has %d rows, want 40 (app x arch pairs of Table II)", len(fig4.RowLabels))
	}
	// Every heatmap row must be a normalized distribution.
	for _, hm := range []*Heatmap{fig2, fig3, fig4} {
		for i, row := range hm.Cells {
			sum := 0.0
			for _, v := range row {
				if v < 0 {
					t.Fatalf("negative influence in row %s", hm.RowLabels[i])
				}
				sum += v
			}
			if sum != 0 && math.Abs(sum-1) > 1e-6 {
				t.Errorf("row %s sums to %v, want 1", hm.RowLabels[i], sum)
			}
		}
	}
}

func TestShapeCGSkylakeReductionSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	// Table VII: CG on Skylake is sensitive to the reduction method and the
	// allocation alignment.
	recs := Recommend(ds, "CG")
	hasRedOrAlign := false
	for _, r := range recs {
		if r.Arch == topology.Skylake &&
			(r.Variable == env.VarForceReduction || r.Variable == env.VarAlignAlloc) {
			hasRedOrAlign = true
		}
	}
	if !hasRedOrAlign {
		t.Errorf("CG Skylake recommendations %v miss reduction/alignment", recs)
	}
}

func TestShapeDefaultConfigurationIsStrong(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	ds := sweepOnce(t)
	// "All our benchmarks show a speedup potential compared to the default
	// configuration, albeit the default performs very well across the
	// board": the median sample does NOT beat the default.
	for _, arch := range topology.Arches() {
		sub := ds.ByArch(arch)
		var sp []float64
		for _, s := range sub.Samples {
			sp = append(sp, s.Speedup())
		}
		med := medianOf(sp)
		if med > 1.03 {
			t.Errorf("%s: median sample speedup %v — default should be hard to beat", arch, med)
		}
		lo, _ := sub.SpeedupRange()
		if lo < 1.0 {
			t.Errorf("%s: best-per-setting speedup %v < 1 — default is in the sweep, best can't lose to it", arch, lo)
		}
	}
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}
