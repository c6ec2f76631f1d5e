package omptune

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
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
	if len(Machines()) != 3 {
		t.Fatalf("Machines() = %d, want 3", len(Machines()))
	}
	if len(Applications()) != 15 {
		t.Fatalf("Applications() = %d, want 15", len(Applications()))
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
	if len(Variables()) != 7 {
		t.Errorf("Variables() = %d, want 7", len(Variables()))
	}
	cfg, err := ParseConfig(m, []string{"KMP_LIBRARY=turnaround"})
	if err != nil || cfg.Library != env.LibTurnaround {
		t.Errorf("ParseConfig: %v, %v", cfg, err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	m, _ := MachineByName("skylake")
	app, err := ApplicationByName("XSbench")
	if err != nil {
		t.Fatal(err)
	}
	set := Setting{Label: "t20", Threads: 20, Scale: 1}
	cfg := DefaultConfig(m)
	exact := sim.EvaluateExact(m, app.Profile, cfg, set)
	if exact <= 0 {
		t.Fatalf("EvaluateExact = %v", exact)
	}
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
	up := Upshot(ds)
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
	rows := WilcoxonTable(ds, "Alignment", "small")
	if len(rows) != 9 {
		t.Errorf("WilcoxonTable rows = %d, want 9", len(rows))
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
const reportSHA256 = "ab25f6c3331f553ad48f9d3b941b05dfe3b0c2edc463ce8806d813eaef15904f"

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

// fullReportSHA256 is the SHA-256 of WriteReport over the full default
// campaign read back from its CSV (244,305 samples, 26,824 bytes), the
// dataset ompreport -data and the benchmark's paper_pipeline report from:
// all 15 applications, every Table VI and Q2 row and Figs 5–7, which the
// facade dataset lacks.
const fullReportSHA256 = "f51b5de7d41c70f28b6fe3cfd3b0a674c145f2e2cd3358a4377363b2c217a325"

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
	var buf bytes.Buffer
	if err := WriteReport(&buf, back); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != fullReportSHA256 {
		t.Errorf("%d samples, report %d bytes, sha256 %s, want %s", back.Len(), buf.Len(), got, fullReportSHA256)
	}
}

// heatmapBitsSHA256 pins the IEEE-754 bits of every cell and accuracy of the
// three influence heatmaps over facadeDS — finer than the report, which
// prints them rounded.
const heatmapBitsSHA256 = "77103d6e70034cbafc80c1edb0a9f28e7b6c23ee9fac285830d8bd4cddc58266"

func TestInfluenceBits(t *testing.T) {
	ds := facadeDS(t)
	h := sha256.New()
	put := func(f float64) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)))
	}
	for _, g := range []core.Grouping{PerArchApp, PerApp, PerArch} {
		hm, err := Influence(ds, g)
		if err != nil {
			t.Fatalf("Influence(%v): %v", g, err)
		}
		for i, row := range hm.Cells {
			for _, c := range row {
				put(c)
			}
			put(hm.Accuracy[i])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != heatmapBitsSHA256 {
		t.Errorf("heatmap bits sha256 %s, want %s", got, heatmapBitsSHA256)
	}
}

func TestFacadeTune(t *testing.T) {
	m, _ := MachineByName("a64fx")
	app, err := ApplicationByName("Nqueens")
	if err != nil {
		t.Fatal(err)
	}
	set := Setting{Label: "medium", Threads: m.Cores, Scale: 1}
	res := Tune(nil, m, app, set, nil, 150)
	if res.Speedup() < 2 {
		t.Errorf("tuned NQueens speedup %v, want > 2 (turnaround effect)", res.Speedup())
	}
	if res.Best.EffectiveBlocktimeMS() != env.BlocktimeInfinite {
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
	guided := Tune(nil, m, app, set, []VarName{env.VarLibrary, env.VarBlocktime}, 10)
	if guided.Speedup() < 2 {
		t.Errorf("guided tuning speedup %v within 10 evals, want > 2", guided.Speedup())
	}
}

func TestFacadeExtensions(t *testing.T) {
	ds := facadeDS(t)
	cmp, err := CompareModels(ds, PerArch)
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
	tr, err := Transfer(ds, "Nqueens")
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
	cfg, speedup := BestNUMAPlacement(nil, m, app, Setting{Label: "t24", Threads: 24, Scale: 1})
	if speedup < 1.5 || cfg.Places != "numa_domains" {
		t.Errorf("BestNUMAPlacement = %s / %v", cfg, speedup)
	}
	rs := RandomSearch(nil, m, app, Setting{Label: "t24", Threads: 24, Scale: 1}, 40, 7)
	if rs.Evaluations != 40 || rs.Speedup() < 1 {
		t.Errorf("RandomSearch = %+v", rs)
	}
}

func TestFacadeSVGOutputs(t *testing.T) {
	ds := facadeDS(t)
	var violin bytes.Buffer
	if err := WriteViolinSVG(&violin, ds, "Alignment"); err != nil {
		t.Fatalf("WriteViolinSVG: %v", err)
	}
	if !strings.HasPrefix(violin.String(), "<svg") {
		t.Error("violin SVG malformed")
	}
	hm, err := Influence(ds, PerArch)
	if err != nil {
		t.Fatal(err)
	}
	var heat bytes.Buffer
	if err := WriteHeatmapSVG(&heat, hm, "fig3"); err != nil {
		t.Fatalf("WriteHeatmapSVG: %v", err)
	}
	if !strings.Contains(heat.String(), "</svg>") {
		t.Error("heatmap SVG malformed")
	}
}

func TestFacadeCustomMachineEndToEnd(t *testing.T) {
	custom := &Machine{
		Arch: "sapphire-test", Name: "Test Sapphire",
		Cores: 56, Sockets: 2, NUMANodes: 8,
		ClockGHz: 2.0, CacheLineBytes: 64, Memory: "DDR5", MemGB: 256,
		LLCGroups: 2, MemBWGBs: 600,
		RemoteNUMAFactor: 1.4, CrossSocketFactor: 1.9,
		WakeupMicros: 9, NoiseSigma: 0.004,
	}
	if err := topology.Register(custom); err != nil {
		t.Fatalf("topology.Register: %v", err)
	}
	// The whole pipeline works on the new architecture.
	ds, err := Collect(CollectOptions{
		Arches:   []Arch{"sapphire-test"},
		Apps:     []string{"Nqueens", "XSbench"},
		Fraction: map[Arch]float64{"sapphire-test": 0.06},
	})
	if err != nil {
		t.Fatalf("Collect on custom machine: %v", err)
	}
	if ds.Len() == 0 {
		t.Fatal("no samples on custom machine")
	}
	lo, hi := ds.ByApp("Nqueens").SpeedupRange()
	if lo < 1 || hi < 1.5 {
		t.Errorf("NQueens on custom machine: range %v-%v — turnaround should still win", lo, hi)
	}
	app, _ := ApplicationByName("Nqueens")
	res := Tune(nil, custom, app, Setting{Label: "medium", Threads: custom.Cores, Scale: 1}, nil, 80)
	if res.Speedup() < 1.5 {
		t.Errorf("tuning on custom machine: %v", res.Speedup())
	}
}
