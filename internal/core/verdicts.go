package core

import (
	"fmt"
	"math"
	"slices"

	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
	"omptune/openmp"
)

// Verdict is one of the paper's shape claims (EXPERIMENTS.md) evaluated on
// a frame: who wins, by roughly what factor, and where the crossovers fall.
// Thresholds are wide on purpose: the model is not the authors' testbed.
type Verdict struct {
	Name  string  // the claim with its threshold, e.g. "Q4: OMP_PROC_BIND=master tops the worst trends"
	Paper float64 // the paper's value; NaN where it publishes none
	Value float64 // the frame's value; NaN when NA
	// Margin is Value's distance to the threshold in the claim's units:
	// positive on the side where the claim holds, negative where it misses.
	Margin float64
	Holds  bool
	NA     bool // the frame lacks an architecture, application or setting the claim needs
}

var nan, inf = math.NaN(), math.Inf(1)

// tableVI is each application's Table VI range as the paper publishes it,
// and the bands the frame's low and high ends must fall in.
var tableVI = []struct {
	app                                          string
	paperLo, paperHi, minLo, maxLo, minHi, maxHi float64
}{
	{"Alignment", 1.022, 1.186, 1.0, 1.12, 1.10, 1.30},
	{"BT", 1.027, 1.185, 1.0, 1.10, 1.05, 1.30},
	{"CG", 1.000, 1.857, 1.0, 1.10, 1.50, 2.10},
	{"EP", 1.000, 1.090, 1.0, 1.06, 1.02, 1.15},
	{"FT", 1.010, 1.545, 1.0, 1.08, 1.25, 1.70},
	{"Health", 1.282, 2.218, 1.2, 1.50, 1.90, 2.60},
	{"LU", 1.020, 1.121, 1.0, 1.10, 1.03, 1.25},
	{"LULESH", 1.004, 1.062, 1.0, 1.06, 1.02, 1.15},
	{"MG", 1.011, 2.167, 1.0, 1.10, 1.75, 2.50},
	{"Nqueens", 2.342, 4.851, 1.8, 2.60, 4.00, 6.00},
	{"RSBench", 1.004, 1.213, 1.0, 1.08, 1.10, 1.35},
	{"Sort", 1.174, 1.180, 1.1, 1.25, 1.10, 1.30},
	{"Strassen", 1.023, 1.025, 1.0, 1.05, 1.00, 1.06},
	{"SU3Bench", 1.002, 2.279, 1.0, 1.06, 1.90, 2.70},
	{"XSbench", 1.001, 2.602, 1.0, 1.06, 2.00, 3.20},
}

// The paper's per-architecture numbers, in topology.Arches order: Table
// II's samples, Table III's p of pairs (R0,R1), (R1,R2), (R2,R3), Table V's
// XSbench maximum, and §V-Q1's median and maximum best speedup.
var (
	paperSamples = []float64{53822, 90230, 99707}
	paperP       = [][3]float64{{0.73, 0.86, 0.72}, {0.19, 4e-154, 2e-140}, {3e-12, 0, 0}}
	paperXSbench = []float64{1.015, 1.002, 2.602}
	paperMedian  = []float64{1.02, 1.065, 1.15}
	paperMax     = []float64{4.85, 3.47, 2.60}
)

// Verdicts evaluates every shape claim on f, in EXPERIMENTS.md's order. A
// claim whose data f lacks is NA, never an error. It fits the three
// influence heatmaps.
func Verdicts(f *Frame) []Verdict {
	var vs []Verdict // a NaN value makes its row NA
	add := func(name string, paper, value, margin float64, holds bool) {
		na := math.IsNaN(value)
		vs = append(vs, Verdict{Name: name, Paper: paper, Value: value, Margin: margin, Holds: holds && !na, NA: na})
	}
	// in is the claim lo <= value <= hi, its bounds named; the margin is to
	// the nearer one.
	in := func(name string, paper, value, lo, hi float64) {
		m := min(value-lo, hi-value)
		add(fmt.Sprintf("%s in [%.6g, %.6g]", name, lo, hi), paper, value, m, m >= 0)
	}
	archs := topology.Arches()
	type bounds struct {
		of     string
		lo, hi float64
	}

	total := 0.0
	for i, r := range f.TableII() {
		n, p := float64(r.Samples), paperSamples[i]
		if total += n; n == 0 {
			n = nan
		}
		in(fmt.Sprintf("Table II: %s samples (the paper's 3%% band)", r.Arch), p, n, float64(0.97*p), float64(1.03*p))
	}
	in("Table II: total samples", 243759, total, 230000, 260000)

	// Table III: A64FX consistent on every pair, Skylake on its first,
	// Milan significant everywhere. Table IV: A64FX's run means agree,
	// Milan's first run is slower, and configuration spread dominates (std
	// >= mean) in every run.
	cell := map[string]float64{} // p by "group pair", mean by "group Runtime_rep"
	var spread []float64
	for _, r := range f.WilcoxonTable("Alignment", "small") {
		cell[r.Group+" "+r.Pair] = r.PValue
	}
	for _, r := range f.RuntimeStats("Alignment", "small", 3) {
		cell[fmt.Sprintf("%s Runtime_%d", r.Group, r.Rep)], spread = r.Mean, append(spread, r.Std/r.Mean)
	}
	at := func(arch topology.Arch, key string) float64 {
		if v, ok := cell[fmt.Sprintf("%s-Alignment-small %s", arch, key)]; ok {
			return v
		}
		return nan
	}
	for i, arch := range archs {
		for k, pair := range []string{"R0, R1", "R1, R2", "R2, R3"} {
			b := bounds{"consistent", 0.05, inf}
			if arch == topology.Milan || arch == topology.Skylake && k > 0 {
				b = bounds{"differ", -inf, 1e-10}
			}
			in(fmt.Sprintf("Table III: %s %s %s, p", arch, pair, b.of), paperP[i][k], at(arch, pair), b.lo, b.hi)
		}
	}
	a0, a1, a2 := at(topology.A64FX, "Runtime_0"), at(topology.A64FX, "Runtime_1"), at(topology.A64FX, "Runtime_2")
	in("Table IV: a64fx relative change of the run mean", 0, max(math.Abs(a0-a1)/a0, math.Abs(a1-a2)/a1), -inf, 0.002)
	in("Table IV: milan Runtime_0 / Runtime_1", 0.135/0.109, at(topology.Milan, "Runtime_0")/at(topology.Milan, "Runtime_1"), 1.15, inf)
	in("Table IV: least std / mean of a run", 0.310/0.131, least(spread), 1, inf)

	// Table V: Nqueens wins everywhere; XSbench's headroom is Milan's alone,
	// and comes from binding.
	for i, arch := range archs {
		lo, hi := f.rangeOf(ofAppOnArch("Nqueens", arch))
		in(fmt.Sprintf("Table V: Nqueens %s low end", arch), nan, lo, 1.8, inf)
		in(fmt.Sprintf("Table V: Nqueens %s high end", arch), nan, hi, -inf, 6)
		if _, hi = f.rangeOf(ofAppOnArch("XSbench", arch)); arch == topology.Milan {
			in("Table V: XSbench milan high end", paperXSbench[i], hi, 2.0, 3.2)
		} else {
			in(fmt.Sprintf("Table V: XSbench %s high end", arch), paperXSbench[i], hi, -inf, 1.08)
		}
	}
	unbound := f.misses(ofAppOnArch("XSbench", topology.Milan), func(s *dataset.Sample) bool {
		return s.Speedup() <= 1.5 || s.Config.EffectiveBind() != openmp.BindNone
	})
	in("Table V: XSbench milan settings whose best (> 1.5x) is unbound", 0, unbound, 0, 0)

	for _, b := range tableVI {
		lo, hi := f.rangeOf(ofApp(b.app))
		in("Table VI: "+b.app+" low end", b.paperLo, lo, b.minLo, b.maxLo)
		in("Table VI: "+b.app+" high end", b.paperHi, hi, b.minHi, b.maxHi)
	}

	// Table VII: a recommendation's lift is at least minLift; a missing one reads 0.
	in("Table VII: lift of Nqueens' all-arch KMP_LIBRARY=turnaround", nan,
		f.recLift("Nqueens", "", "turnaround", env.VarLibrary), minLift, inf)
	yields := f.misses(ofApp("Nqueens"), func(s *dataset.Sample) bool {
		return s.Config.EffectiveBlocktimeMS() == openmp.BlocktimeInfinite
	})
	in("Table VII: Nqueens settings whose best yields (blocktime not infinite)", 0, yields, 0, 0)
	in("Table VII: lift of CG's skylake KMP_FORCE_REDUCTION or KMP_ALIGN_ALLOC", nan,
		f.recLift("CG", topology.Skylake, "", env.VarForceReduction, env.VarAlignAlloc), minLift, inf)

	// §V-Q1: Milan's median is the highest, A64FX's maximum the highest.
	med, top := []float64{nan, nan, nan}, []float64{nan, nan, nan}
	for _, u := range f.Upshot() {
		med[slices.Index(archs, u.Arch)], top[slices.Index(archs, u.Arch)] = u.MedianBest, u.MaxBest
	}
	for i, arch := range archs {
		in(fmt.Sprintf("Q1: %s median best speedup", arch), paperMedian[i], med[i], 1.0, 1.3)
	}
	gap := med[2] - max(med[0], med[1])
	add("Q1: milan's median best speedup tops a64fx's and skylake's", paperMedian[2]-paperMedian[1], gap, gap, gap > 0)
	in("Q1: a64fx max best speedup", paperMax[0], top[0], 4.0, 6.0)
	gap = min(top[0]-top[1], top[1]-top[2])
	add("Q1: max best speedup orders a64fx > skylake > milan", min(paperMax[0]-paperMax[1], paperMax[1]-paperMax[2]), gap, gap, gap > 0)

	// §V-Q4: master binding, then cores places, among the slowest samples.
	trends := f.WorstTrends()
	lift, runnerUp := map[string]float64{}, 0.0 // runnerUp: the greatest lift but master's
	for _, w := range trends {
		key := string(w.Variable) + "=" + w.Value
		if lift[key] = w.Lift; key != "OMP_PROC_BIND=master" {
			runnerUp = max(runnerUp, w.Lift)
		}
	}
	master, cores := lift["OMP_PROC_BIND=master"], lift["OMP_PLACES=cores"]
	if len(f.samples) == 0 {
		master, cores = nan, nan
	}
	in("Q4: OMP_PROC_BIND=master lift among the slowest 5%", nan, master, 3, inf)
	in("Q4: OMP_PLACES=cores lift among the slowest 5%", nan, cores, 1.5, inf)
	add("Q4: OMP_PROC_BIND=master tops the worst trends", nan, master, master-runnerUp,
		len(trends) > 0 && trends[0].Variable == env.VarProcBind && trends[0].Value == "master")

	// Figs 2-4: a heatmap that cannot be fitted has no rows. Fig 3 is read
	// as each feature's mean influence over the three architectures' rows:
	// NaN without all three.
	fig := func(g Grouping) *Heatmap {
		if hm, err := f.InfluenceHeatmap(g, ml.LogisticOptions{}); err == nil {
			return hm
		}
		return &Heatmap{}
	}
	fig2, fig3, fig4 := fig(PerApp), fig(PerArch), fig(PerArchApp)
	for _, b := range []bounds{{"Sort", 0, 0}, {"Strassen", 0, 0}, {"XSbench", 0.15, inf}, {"SU3Bench", 0.15, inf},
		{"Nqueens", -inf, 0.10}, {"Health", -inf, 0.10}, {"Alignment", -inf, 0.10}} {
		in("Fig 2: "+b.of+" Architecture influence", nan, fig2.influence(b.of, FeatArch), b.lo, b.hi)
	}
	meanInfluence := func(feature string) float64 {
		m := 0.0
		for _, arch := range archs {
			m += fig3.influence(string(arch), feature)
		}
		return m / float64(len(archs))
	}
	for _, b := range []bounds{{string(env.VarForceReduction), -inf, 0.05}, {string(env.VarAlignAlloc), -inf, 0.05},
		{string(env.VarProcBind), 0.10, inf}, {string(env.VarLibrary), 0.05, inf}} {
		in("Fig 3: "+b.of+" mean influence", nan, meanInfluence(b.of), b.lo, b.hi)
	}
	var others []float64
	for _, feature := range PerArch.features() {
		if v := env.VarName(feature); v != env.VarForceReduction && v != env.VarAlignAlloc {
			others = append(others, meanInfluence(feature))
		}
	}
	gap = least(others) - max(meanInfluence(string(env.VarForceReduction)), meanInfluence(string(env.VarAlignAlloc)))
	add("Fig 3: KMP_FORCE_REDUCTION and KMP_ALIGN_ALLOC are the least influential", nan, gap, gap, gap > 0)
	in("Fig 4: application-architecture rows (Table II's 15 + 13 + 12)", 40, float64(len(fig4.RowLabels)), 40, 40)

	// The default configuration is hard to beat: the median sample does not
	// beat it, and no setting's best loses to it.
	for _, arch := range archs {
		var sp []float64
		for _, r := range f.where(onArch(arch)) {
			sp = append(sp, f.speedup[r.Lo:r.Hi]...)
		}
		slices.Sort(sp)
		lo, _ := f.rangeOf(onArch(arch))
		in(fmt.Sprintf("Default: %s median sample speedup", arch), nan, least(sp[len(sp)/2:]), -inf, 1.03) // the upper median
		in(fmt.Sprintf("Default: %s least best speedup of a setting", arch), nan, lo, 1, inf)
	}
	return vs
}

// rangeOf is the least and greatest best speedup of the groups match
// accepts; NaN without any.
func (f *Frame) rangeOf(match func(*dataset.Group) bool) (lo, hi float64) {
	if !f.has(match) {
		return nan, nan
	}
	return dataset.RangeOf(f.bests(match))
}

// misses counts the groups match accepts whose best sample fails ok; NaN
// without any.
func (f *Frame) misses(match func(*dataset.Group) bool, ok func(*dataset.Sample) bool) float64 {
	if !f.has(match) {
		return nan
	}
	n := 0.0
	for i := range f.groups {
		if g := &f.groups[i]; match(g) && !ok(g.Best()) {
			n++
		}
	}
	return n
}

// recLift is the greatest lift of app's recommendations on arch ("" = all) of
// one of vars naming value ("" = any); 0 without one, NaN without app on arch.
func (f *Frame) recLift(app string, arch topology.Arch, value string, vars ...env.VarName) float64 {
	if !f.has(ofApp(app)) || arch != "" && !f.has(ofAppOnArch(app, arch)) {
		return nan
	}
	l := 0.0
	for _, r := range f.Recommend(app) {
		if r.Arch == arch && slices.Contains(vars, r.Variable) && (value == "" || slices.Contains(r.Values, value)) {
			l = max(l, r.Lift)
		}
	}
	return l
}

// least is the smallest of xs, NaN if one is; NaN for none.
func least(xs []float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	return slices.Min(xs)
}
