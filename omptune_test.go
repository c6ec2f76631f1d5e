package omptune

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/internal/viz"
	"omptune/openmp"
)

// facadeDataset is a reduced sweep shared by the facade tests.
var facadeDataset *Dataset

func facadeDS(t testing.TB) *Dataset {
	t.Helper()
	if facadeDataset == nil {
		ds, err := Collect(CollectOptions{
			Apps:     []string{"Nqueens", "XSbench", "CG", "Alignment"},
			Fraction: map[Arch]float64{A64FX: 0.12, Skylake: 0.08, Milan: 0.08},
		})
		if err != nil {
			t.Fatalf("Collect: %v", err)
		}
		facadeDataset = ds
	}
	return facadeDataset
}

func TestFacadeBasics(t *testing.T) {
	if len(topology.All()) != 3 {
		t.Fatalf("topology.All() = %d, want 3", len(topology.All()))
	}
	if len(apps.All()) != 15 {
		t.Fatalf("apps.All() = %d, want 15", len(apps.All()))
	}
	m, err := MachineByName("milan")
	if err != nil || m.Cores != 96 {
		t.Fatalf("MachineByName(milan) = %v, %v", m, err)
	}
	if _, err := MachineByName("cray-1"); err == nil {
		t.Error("unknown machine should error")
	}
	if got := len(env.Space(m)); got != 9216 {
		t.Errorf("env.Space(milan) = %d, want 9216", got)
	}
	if len(env.Names()) != 7 {
		t.Errorf("env.Names() = %d, want 7", len(env.Names()))
	}
}

func TestFacadeSimulate(t *testing.T) {
	m, _ := MachineByName("skylake")
	app, err := ApplicationByName("XSbench")
	if err != nil {
		t.Fatal(err)
	}
	set := Setting{Label: "t20", Threads: 20, Scale: 1}
	cfg := env.Default(m)
	noisy := sim.Evaluate(m, app.Profile, cfg, set, 1)
	if noisy <= 0 {
		t.Fatalf("Evaluate = %v", noisy)
	}
	if sim.Reps != 4 {
		t.Errorf("sim.Reps = %d, want 4", sim.Reps)
	}
}

func TestFacadePipeline(t *testing.T) {
	ds := facadeDS(t)
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}
	up := core.Upshot(ds)
	if len(up) != 3 {
		t.Fatalf("Upshot groups = %d", len(up))
	}
	recs := Recommend(ds, "Nqueens")
	if len(recs) == 0 {
		t.Error("no recommendations for Nqueens")
	}
	trends := WorstTrends(ds)
	if len(trends) == 0 || trends[0].Variable != env.VarProcBind {
		t.Errorf("worst trends = %v, want master binding on top", trends)
	}
	rows, err := core.WilcoxonTable(ds, "Alignment", "small")
	if err != nil || len(rows) != 9 {
		t.Errorf("WilcoxonTable rows = %d (%v), want 9", len(rows), err)
	}
	hm, err := Influence(ds, PerArch)
	if err != nil {
		t.Fatalf("Influence: %v", err)
	}
	if len(hm.RowLabels) != 3 {
		t.Errorf("per-arch heatmap rows = %d", len(hm.RowLabels))
	}
}

// tableIICSVSHA256 is the SHA-256 of the full default campaign's CSV
// (244,305 samples, 30,553,858 bytes). The model is deterministic, so the
// dataset every table and figure is derived from is pinned to the bit: a
// change to the sweep, the model, the noise streams, the configuration keys
// or the CSV format that moves one byte fails here.
const tableIICSVSHA256 = "39d65e69801f89e53313d6f1f5964e1566b65fe1d35cb57d37708a880d0ea5f7"

func TestCollectGoldenCSV(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ds, err := Collect(CollectOptions{Workers: workers})
		if err != nil {
			t.Fatalf("Collect(Workers: %d): %v", workers, err)
		}
		h := sha256.New()
		if err := WriteDatasetCSV(h, ds); err != nil {
			t.Fatalf("WriteDatasetCSV: %v", err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tableIICSVSHA256 {
			t.Errorf("Workers %d: %d samples, CSV sha256 %s, want %s", workers, ds.Len(), got, tableIICSVSHA256)
		}
	}
}

func TestFacadeCSVRoundTrip(t *testing.T) {
	ds := facadeDS(t)
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, ds); err != nil {
		t.Fatalf("WriteDatasetCSV: %v", err)
	}
	back, err := ReadDatasetCSV(&buf)
	if err != nil {
		t.Fatalf("ReadDatasetCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Errorf("round trip: %d vs %d samples", back.Len(), ds.Len())
	}
}

func TestFacadeWriteReport(t *testing.T) {
	ds := facadeDS(t)
	var buf bytes.Buffer
	if err := WriteReport(&buf, ds); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Table III", "Table IV", "Table V",
		"Table VI", "Table VII", "Fig 1", "Fig 2", "Fig 3", "Fig 4",
		"Fujitsu A64FX", "turnaround",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Figs 5-7 cover BT/Health/RSBench, absent from this reduced dataset;
	// their sections must still render without violins.
	if !strings.Contains(out, "Fig 5") {
		t.Error("report missing Fig 5 section")
	}
}

// reportSHA256 is the SHA-256 of WriteReport over facadeDS (24,497 samples,
// 11,334 bytes): every table, question and figure the analysis derives,
// pinned to the byte, so a refactor of grouping, featurizing or fitting that
// moves one digit fails here in seconds rather than on a full-campaign cmp.
const reportSHA256 = "6a40c1b794896ebcba222a6579f4fe62825c4eaff8b31dd4cdfbf6385b97ada1"

func TestWriteReportGolden(t *testing.T) {
	ds := facadeDS(t)
	var buf bytes.Buffer
	if err := WriteReport(&buf, ds); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != reportSHA256 {
		t.Errorf("%d samples, report %d bytes, sha256 %s, want %s", ds.Len(), buf.Len(), got, reportSHA256)
	}
}

// TestReportAllocs holds one report pass over facadeDS to an allocation
// count: the frame pays per distinct value, not per distinct configuration
// or sample, and the sections pay for their selections, lifts, fits and
// rendering once per table row or heatmap, not per sample. The full-campaign
// golden test holds the frame to the same bound over the campaign's 23,040
// distinct configurations.
func TestReportAllocs(t *testing.T) {
	if underRace {
		t.Skip("allocation counts under the race detector")
	}
	ds := facadeDS(t)
	if a := testing.AllocsPerRun(1, func() { core.NewFrame(ds) }); a > frameAllocs {
		t.Errorf("NewFrame of %d samples: %.0f allocations, want <= %d", ds.Len(), a, frameAllocs)
	}
	var err error
	if a := testing.AllocsPerRun(1, func() { err = WriteReport(io.Discard, ds) }); a > 2500 {
		t.Errorf("WriteReport of %d samples: %.0f allocations, want <= 2,500", ds.Len(), a)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// frameAllocs bounds NewFrame's allocations over any dataset of the study's
// variables, whatever its number of distinct configurations.
const frameAllocs = 300

// underRace reports a race-detector build (race_test.go), whose allocation
// counts the report's caps do not hold.
var underRace bool

// fullReportSHA256 is the SHA-256 of WriteReport over the full default
// campaign read back from its CSV (244,305 samples, 26,824 bytes), the
// dataset ompreport -data and the benchmark's paper_pipeline report from:
// all 15 applications, every Table VI and Q2 row and Figs 5–7, which the
// facade dataset lacks.
const fullReportSHA256 = "7e5716ab6a31f149dbd961e6383fb0ca466c8167358e4b6cd7bb14fc9acbc826"

func TestWriteReportFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign and report in -short mode")
	}
	ds, err := Collect(CollectOptions{})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	var csv bytes.Buffer
	if err := WriteDatasetCSV(&csv, ds); err != nil {
		t.Fatalf("WriteDatasetCSV: %v", err)
	}
	var back *Dataset
	allocs := testing.AllocsPerRun(1, func() { back, err = ReadDatasetCSV(bytes.NewReader(csv.Bytes())) })
	if err != nil {
		t.Fatalf("ReadDatasetCSV: %v", err)
	}
	// Nothing per row: per distinct configuration (23,040) its key, plus the
	// blocks, the sample slice and the maps, which grow geometrically.
	if allocs > 25000 {
		t.Errorf("ReadDatasetCSV of %d samples: %.0f allocations, want <= 25,000", back.Len(), allocs)
	}
	if a := testing.AllocsPerRun(1, func() { core.NewFrame(back) }); a > frameAllocs {
		t.Errorf("NewFrame of %d samples: %.0f allocations, want <= %d", back.Len(), a, frameAllocs)
	}
	var buf bytes.Buffer
	allocs = testing.AllocsPerRun(1, func() { buf.Reset(); err = WriteReport(&buf, back) })
	if err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	// Per section, its rows, lifts and fits: nothing per sample or per
	// configuration.
	if allocs > 6000 && !underRace {
		t.Errorf("WriteReport of %d samples: %.0f allocations, want <= 6,000", back.Len(), allocs)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != fullReportSHA256 {
		t.Errorf("%d samples, report %d bytes, sha256 %s, want %s", back.Len(), buf.Len(), got, fullReportSHA256)
	}
}

// TestInfluenceBits holds the three influence heatmaps over facadeDS to the
// optimum of FitLogistic's objective. Each heatmap row is refitted from a
// design matrix built here from the samples: its influence and accuracy
// must be the row's to the bit, which pins the design and the grouping. At that fit
// the objective's gradient vanishes, and 3000 epochs of full-batch gradient
// ascent, a solver written out independently, reach the same cells within
// 1e-3, the same top feature and the same top three.
func TestInfluenceBits(t *testing.T) {
	ds := facadeDS(t)
	for name, g := range map[string]core.Grouping{"PerArchApp": PerArchApp, "PerApp": PerApp, "PerArch": PerArch} {
		hm, err := Influence(ds, g)
		if err != nil {
			t.Fatalf("Influence(%s): %v", name, err)
		}
		designs := influenceDesigns(ds, g)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i, label := range hm.RowLabels {
				x, y := designs[label].x, designs[label].y
				if !slices.Contains(y, true) || !slices.Contains(y, false) {
					if slices.ContainsFunc(hm.Cells[i], func(c float64) bool { return c != 0 }) {
						t.Errorf("%s: one class only, cells %v, want zeros", label, hm.Cells[i])
					}
					continue
				}
				m, err := ml.FitLogistic(x, y, ml.LogisticOptions{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got, acc := m.Influence(), m.Accuracy(x, y); !slices.Equal(got, hm.Cells[i]) || acc != hm.Accuracy[i] {
					t.Fatalf("%s: refitted influence %v, accuracy %v; heatmap row %v, %v: the test's design is not the heatmap's",
						label, got, acc, hm.Cells[i], hm.Accuracy[i])
				}
				for j, gj := range logisticGradient(m, x, y, 1e-4) {
					if math.Abs(gj) > 1e-8 {
						t.Errorf("%s: gradient component %d = %g at the fit, want |g| ≤ 1e-8", label, j, gj)
					}
				}
				ref := ascentInfluence(x, y, 3000)
				for j, c := range hm.Cells[i] {
					if math.Abs(c-ref[j]) > 1e-3 {
						t.Errorf("%s %s: influence %.6f, gradient ascent %.6f, want within 1e-3", label, hm.Features[j], c, ref[j])
					}
				}
				top, refTop := topFeatures(hm.Cells[i], 3), topFeatures(ref, 3)
				if top[0] != refTop[0] || !slices.Equal(sortedInts(top), sortedInts(refTop)) {
					t.Errorf("%s: top features %v, gradient ascent %v", label, top, refTop)
				}
			}
		})
	}
}

type design struct {
	x [][]float64
	y []bool
}

// influenceDesigns is each heatmap row's design matrix and labels under g,
// from its samples in dataset order: input scale, threads, the seven
// variables' features and the grouping's context feature (the architecture's
// index in Arches, or the application's in the sorted application names).
func influenceDesigns(ds *Dataset, g core.Grouping) map[string]design {
	apps := dataset.AppsOf(ds.Groups())
	out := map[string]design{}
	for _, s := range ds.Samples {
		label, ctx := s.App+"@"+string(s.Arch), -1.0
		switch g {
		case PerApp:
			label, ctx = s.App, float64(slices.Index(topology.Arches(), s.Arch))
		case PerArch:
			label, ctx = string(s.Arch), float64(slices.Index(apps, s.App))
		}
		row := []float64{s.Scale, float64(s.Threads)}
		for _, v := range env.Names() {
			row = append(row, s.Config.Feature(v))
		}
		if ctx >= 0 {
			row = append(row, ctx)
		}
		d := out[label]
		d.x, d.y = append(d.x, row), append(d.y, s.Optimal())
		out[label] = d
	}
	return out
}

// logisticGradient is the gradient of FitLogistic's objective at m: the mean
// over the rows of (t − P(row))·(1, standardised row), less l2·(0, w).
func logisticGradient(m *ml.LogisticModel, x [][]float64, y []bool, l2 float64) []float64 {
	g := make([]float64, 1+len(m.Coef))
	for i, row := range x {
		e := -m.Prob(row)
		if y[i] {
			e++
		}
		g[0] += e
		for j, v := range row {
			g[1+j] += e * (v - m.Scaler.Mean[j]) / m.Scaler.Std[j]
		}
	}
	for j := range g {
		g[j] /= float64(len(x))
		if j > 0 {
			g[j] -= l2 * m.Coef[j-1]
		}
	}
	return g
}

// ascentInfluence is the influence of a fit by full-batch gradient ascent on
// FitLogistic's objective (L2 1e-4, intercept unpenalised) from zero at rate
// 0.5 for the given epochs: the solver the heatmaps used before Newton's.
func ascentInfluence(x [][]float64, y []bool, epochs int) []float64 {
	sc, err := ml.FitStandardizer(x)
	if err != nil {
		panic(err)
	}
	p, n := len(x[0]), float64(len(x))
	xs := make([][]float64, len(x))
	for i, row := range x {
		xs[i] = make([]float64, p)
		for j, v := range row {
			xs[i][j] = (v - sc.Mean[j]) / sc.Std[j]
		}
	}
	w, gw, b := make([]float64, p), make([]float64, p), 0.0
	for range epochs {
		clear(gw)
		gb := 0.0
		for i, r := range xs {
			z := b
			for j, v := range r {
				z += w[j] * v
			}
			e := -1 / (1 + math.Exp(-z))
			if y[i] {
				e++
			}
			gb += e
			for j, v := range r {
				gw[j] += e * v
			}
		}
		b += 0.5 * gb / n
		for j := range w {
			w[j] += 0.5 * (gw[j]/n - 1e-4*w[j])
		}
	}
	return (&ml.LogisticModel{Coef: w}).Influence()
}

// topFeatures is the indices of the k largest cells, largest first.
func topFeatures(cells []float64, k int) []int {
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cells[idx[a]] > cells[idx[b]] })
	return idx[:k]
}

func sortedInts(v []int) []int {
	v = slices.Clone(v)
	slices.Sort(v)
	return v
}

func TestFacadeTune(t *testing.T) {
	m, _ := MachineByName("a64fx")
	app, err := ApplicationByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	set := Setting{Label: "medium", Threads: m.Cores, Scale: 1}
	res, err := Tune(nil, m, app, set, nil, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() < 2 {
		t.Errorf("tuned NQueens speedup %v, want > 2 (turnaround effect)", res.Speedup())
	}
	if res.Best.EffectiveBlocktimeMS() != openmp.BlocktimeInfinite {
		t.Errorf("tuner should find a spinning wait policy, got %s", res.Best)
	}
	if res.Evaluations > 150 {
		t.Errorf("budget exceeded: %d", res.Evaluations)
	}
	if len(res.Trajectory) == 0 {
		t.Error("no accepted tuning steps recorded")
	}
	// Importance-guided ordering (library first) must find the win within a
	// tiny budget.
	guided, err := Tune(nil, m, app, set, []VarName{env.VarLibrary, env.VarBlocktime}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if guided.Speedup() < 2 {
		t.Errorf("guided tuning speedup %v within 10 evals, want > 2", guided.Speedup())
	}
}

func TestFacadeExtensions(t *testing.T) {
	ds := facadeDS(t)
	cmp, err := core.CompareModels(ds, PerArch, ml.LogisticOptions{},
		ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 1}, 10)
	if err != nil {
		t.Fatalf("CompareModels: %v", err)
	}
	if len(cmp) != 3 {
		t.Fatalf("CompareModels rows = %d", len(cmp))
	}
	for _, r := range cmp {
		if r.ForestAcc < r.LogisticAcc-0.05 {
			t.Errorf("%s: forest %v should be at least on par with logistic %v", r.Group, r.ForestAcc, r.LogisticAcc)
		}
	}
	tr, err := core.Transfer(ds, "Nqueens", ml.TreeOptions{MaxDepth: 8, MinLeaf: 30, Seed: 5}, 10)
	if err != nil {
		t.Fatalf("Transfer: %v", err)
	}
	if len(tr) != 3 {
		t.Errorf("Transfer rows = %d", len(tr))
	}
	m, _ := MachineByName("milan")
	if got := len(core.ExtendedSpace(m)); got != 9216+9216/4 {
		t.Errorf("ExtendedSpace = %d", got)
	}
	if got := len(core.ExtendedThreadSettings(m)); got != 6 {
		t.Errorf("ExtendedThreadSettings = %d", got)
	}
	app, _ := ApplicationByName("XSbench")
	cfg, speedup, err := core.BestNUMAPlacement(nil, m, app, Setting{Label: "t24", Threads: 24, Scale: 1})
	if err != nil || speedup < 1.5 || cfg.Places.String() != "numa_domains" {
		t.Errorf("BestNUMAPlacement = %s / %v / %v", cfg, speedup, err)
	}
	random, err := core.NewSearcher("random")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := random.Search(context.Background(), core.SearchSpec{
		Machine: m, App: app, Setting: Setting{Label: "t24", Threads: 24, Scale: 1},
		Seed: 7, Budget: core.SearchBudget{MaxEvals: 40},
	})
	if err != nil || rs.Evaluations != 40 || rs.Speedup() < 1 {
		t.Errorf("random search = %+v, %v", rs, err)
	}
}

func TestFacadeSVGOutputs(t *testing.T) {
	ds := facadeDS(t)
	var violin bytes.Buffer
	if err := viz.ViolinFigureSVG(&violin, ds, "Alignment"); err != nil {
		t.Fatalf("ViolinFigureSVG: %v", err)
	}
	if !strings.HasPrefix(violin.String(), "<svg") {
		t.Error("violin SVG malformed")
	}
	hm, err := Influence(ds, PerArch)
	if err != nil {
		t.Fatal(err)
	}
	var heat bytes.Buffer
	if err := viz.HeatmapSVG(&heat, hm, "fig3"); err != nil {
		t.Fatalf("HeatmapSVG: %v", err)
	}
	if !strings.Contains(heat.String(), "</svg>") {
		t.Error("heatmap SVG malformed")
	}
}
