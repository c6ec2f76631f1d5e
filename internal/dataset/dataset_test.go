package dataset

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"omptune/internal/env"
	"omptune/internal/topology"
)

func mkSample(arch topology.Arch, app, setting string, speedupWant float64) *Sample {
	m := topology.MustGet(arch)
	s := &Sample{
		Arch: arch, App: app, Suite: "NPB", Setting: setting,
		Threads: m.Cores, Scale: 1.0,
		Config:         env.Default(m),
		DefaultRuntime: 1.0,
	}
	rt := 1.0 / speedupWant
	for i := range s.Runtimes {
		s.Runtimes[i] = rt
	}
	return s
}

func TestSampleDerivedQuantities(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 2.0)
	if got := s.MeanRuntime(); got != 0.5 {
		t.Errorf("MeanRuntime = %v, want 0.5", got)
	}
	if got := s.Speedup(); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if !s.Optimal() {
		t.Error("speedup 2 should be optimal")
	}
	slow := mkSample(topology.A64FX, "CG", "small", 1.005)
	if slow.Optimal() {
		t.Error("speedup 1.005 should be sub-optimal (threshold 1.01)")
	}
	if k := s.SettingKey(); k != "a64fx/CG/small" {
		t.Errorf("SettingKey = %q", k)
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 1)
	s.DefaultRuntime = 0
	if s.Speedup() != 0 {
		t.Error("unenriched sample should report speedup 0")
	}
}

func TestMeanRuntimeAveragesDriftAway(t *testing.T) {
	// The §IV-C mitigation: averaging reps removes run drift from speedups.
	a := mkSample(topology.Milan, "CG", "small", 1.0)
	a.Runtimes = [4]float64{1.24, 1.0, 1.02, 1.01}
	b := mkSample(topology.Milan, "CG", "small", 1.0)
	b.Runtimes = [4]float64{1.24 * 0.9, 1.0 * 0.9, 1.02 * 0.9, 1.01 * 0.9}
	a.DefaultRuntime = a.MeanRuntime()
	b.DefaultRuntime = a.MeanRuntime()
	if sp := b.Speedup(); math.Abs(sp-1/0.9) > 1e-9 {
		t.Errorf("drift should cancel in speedup: %v, want %v", sp, 1/0.9)
	}
}

func TestFilters(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{
		mkSample(topology.A64FX, "CG", "small", 1.2),
		mkSample(topology.A64FX, "MG", "small", 1.4),
		mkSample(topology.Milan, "CG", "large", 1.6),
	}}
	if got := ds.ByArch(topology.A64FX).Len(); got != 2 {
		t.Errorf("ByArch = %d, want 2", got)
	}
	if got := ds.ByApp("CG").Len(); got != 2 {
		t.Errorf("ByApp = %d, want 2", got)
	}
	if got := len(ds.Groups()); got != 3 {
		t.Errorf("Groups = %d, want 3", got)
	}
	if got := ds.Apps(); len(got) != 2 || got[0] != "CG" || got[1] != "MG" {
		t.Errorf("Apps = %v, want [CG MG]", got)
	}
}

func TestBestPerSettingAndRange(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{
		mkSample(topology.A64FX, "CG", "small", 1.2),
		mkSample(topology.A64FX, "CG", "small", 1.5),
		mkSample(topology.A64FX, "CG", "large", 1.1),
	}}
	groups := ds.Groups()
	if len(groups) != 2 {
		t.Fatalf("Groups has %d groups, want 2", len(groups))
	}
	if sp := groups[0].Best().Speedup(); groups[0].Setting != "small" || math.Abs(sp-1.5) > 1e-9 {
		t.Errorf("best %s speedup %v, want small 1.5", groups[0].Setting, sp)
	}
	lo, hi := RangeOf(bestSpeedups(ds))
	if math.Abs(lo-1.1) > 1e-9 || math.Abs(hi-1.5) > 1e-9 {
		t.Errorf("RangeOf = %v-%v, want 1.1-1.5", lo, hi)
	}
	if med := MedianOf(bestSpeedups(ds)); math.Abs(med-1.3) > 1e-9 {
		t.Errorf("MedianOf = %v, want 1.3", med)
	}
}

func TestEmptyDatasetRanges(t *testing.T) {
	ds := &Dataset{}
	lo, hi := RangeOf(bestSpeedups(ds))
	if lo != 0 || hi != 0 {
		t.Errorf("empty range = %v-%v", lo, hi)
	}
	if MedianOf(bestSpeedups(ds)) != 0 {
		t.Error("empty median should be 0")
	}
}

func TestRuntimeColumn(t *testing.T) {
	s := mkSample(topology.A64FX, "CG", "small", 1)
	s.Runtimes = [4]float64{1, 2, 3, 4}
	g := Group{Samples: []*Sample{s}}
	for rep := 0; rep < 4; rep++ {
		col := g.RuntimeColumn(rep)
		if len(col) != 1 || col[0] != float64(rep+1) {
			t.Errorf("RuntimeColumn(%d) = %v", rep, col)
		}
	}
}

func TestValidate(t *testing.T) {
	good := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.2)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := mkSample(topology.A64FX, "CG", "small", 1.2)
	bad.Runtimes[2] = -1
	if err := (&Dataset{Samples: []*Sample{bad}}).Validate(); err == nil {
		t.Error("negative runtime accepted")
	}
	unenriched := mkSample(topology.A64FX, "CG", "small", 1.2)
	unenriched.DefaultRuntime = 0
	if err := (&Dataset{Samples: []*Sample{unenriched}}).Validate(); err == nil {
		t.Error("unenriched sample accepted")
	}
	badSetting := mkSample(topology.A64FX, "CG", "small", 1.2)
	badSetting.Threads = 0
	if err := (&Dataset{Samples: []*Sample{badSetting}}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	ds := &Dataset{}
	for i, cfg := range env.Space(m) {
		if i%500 != 0 {
			continue
		}
		s := &Sample{
			Arch: topology.Milan, App: "XSbench", Suite: "proxy", Setting: "t24",
			Threads: 24, Scale: 1.0, Config: cfg,
			Runtimes:       [4]float64{1.1, 1.2, 1.3, 1.4},
			DefaultRuntime: 1.25,
		}
		ds.Samples = append(ds.Samples, s)
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("round trip lost samples: %d vs %d", back.Len(), ds.Len())
	}
	for i := range ds.Samples {
		a, b := ds.Samples[i], back.Samples[i]
		if a.Config != b.Config {
			t.Fatalf("sample %d config mismatch: %s vs %s", i, a.Config, b.Config)
		}
		if a.Runtimes != b.Runtimes || a.DefaultRuntime != b.DefaultRuntime {
			t.Fatalf("sample %d numeric mismatch", i)
		}
		if a.Arch != b.Arch || a.App != b.App || a.Setting != b.Setting || a.Threads != b.Threads {
			t.Fatalf("sample %d metadata mismatch", i)
		}
	}
}

func TestCSVHeaderAndFormat(t *testing.T) {
	ds := &Dataset{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.5)}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "arch,app,suite,setting,threads,scale,omp_places") {
		t.Errorf("unexpected header %q", lines[0])
	}
	if !strings.Contains(lines[1], "a64fx,CG,NPB,small") {
		t.Errorf("unexpected row %q", lines[1])
	}
}

const (
	baseHeader = "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal"
	baseRow    = "a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false"
	// milanAlign64 is baseRow on Milan with a 64-byte KMP_ALIGN_ALLOC.
	milanAlign64 = "milan,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,64,1,1,1,1,1,1,false"
)

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty file":     "",
		"foreign header": "not,a,header\n",
		"unknown arch":   baseHeader + "\n" + strings.Replace(baseRow, "a64fx", "vax", 1) + "\n",
		"bad threads":    baseHeader + "\n" + strings.Replace(baseRow, ",48,", ",forty,", 1) + "\n",
		"bad schedule":   baseHeader + "\n" + strings.Replace(baseRow, "static", "roundrobin", 1) + "\n",
		// The header is resolved by name, so a botched one is caught instead
		// of being read by position.
		"duplicate column":       strings.Replace(baseHeader, "runtime_1", "runtime_0", 1) + "\n" + baseRow + "\n",
		"unknown column":         strings.Replace(baseHeader, "runtime_1", "runtime_9", 1) + "\n" + baseRow + "\n",
		"missing base column":    strings.Replace(baseHeader, ",optimal", "", 1) + "\n" + strings.TrimSuffix(baseRow, ",false") + "\n",
		"partial optional group": baseHeader + ",source,reps\n" + baseRow + ",measured,2\n",
		"cov without reps":       baseHeader + ",reps,cov,ci\n" + baseRow + ",,0.1,\n",
		"zero reps":              baseHeader + ",reps,cov,ci\n" + baseRow + ",0,0.1,0.1\n",
		// Rows that parse but fail Validate must not reach the analyses.
		"NaN runtime":          baseHeader + "\n" + strings.Replace(baseRow, "256,1,", "256,NaN,", 1) + "\n",
		"negative runtime":     baseHeader + "\n" + strings.Replace(baseRow, "256,1,", "256,-1,", 1) + "\n",
		"infinite runtime":     baseHeader + "\n" + strings.Replace(baseRow, "256,1,", "256,Inf,", 1) + "\n",
		"zero default_runtime": baseHeader + "\n" + strings.Replace(baseRow, "1,1,false", "0,1,false", 1) + "\n",
		"NaN default_runtime":  baseHeader + "\n" + strings.Replace(baseRow, "1,1,false", "NaN,1,false", 1) + "\n",
		"NaN cov":              baseHeader + ",reps,cov,ci\n" + baseRow + ",2,NaN,0.1\n",
		// Configurations parse once per machine and cells, not once per
		// cells: 64-byte alignment is valid on Milan, not on A64FX.
		"config valid on another machine": baseHeader + "\n" + milanAlign64 + "\n" + strings.Replace(milanAlign64, "milan", "a64fx", 1) + "\n",
	}
	for _, good := range []string{baseRow, milanAlign64} {
		if _, err := ReadCSV(strings.NewReader(baseHeader + "\n" + good + "\n")); err != nil {
			t.Fatalf("a row the cases corrupt does not read: %v", err)
		}
	}
	for name, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestReadCSVResolvesColumnsByName: columns are found by header name, not by
// position — a file whose runtime_0 and runtime_1 columns are swapped, header
// and cells alike, reads the same dataset (the positional reader accepted the
// swapped header and read runtime_1 into slot 0), and an optional group may
// sit anywhere.
func TestReadCSVResolvesColumnsByName(t *testing.T) {
	row := strings.Replace(baseRow, "256,1,1,1,1,", "256,0.5,0.25,1,1,", 1)
	want, err := ReadCSV(strings.NewReader(baseHeader + "\n" + row + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := want.Samples[0].Runtimes; r[0] != 0.5 || r[1] != 0.25 {
		t.Fatalf("reference runtimes %v", r)
	}
	swappedHeader := strings.Replace(baseHeader, "runtime_0,runtime_1", "runtime_1,runtime_0", 1)
	swappedRow := strings.Replace(row, "0.5,0.25", "0.25,0.5", 1)
	for name, file := range map[string]string{
		"swapped columns": swappedHeader + "\n" + swappedRow + "\n",
		"source first":    "source," + baseHeader + "\nmodel," + row + "\n",
	} {
		got, err := ReadCSV(strings.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g, w := *got.Samples[0], *want.Samples[0]; g.Runtimes != w.Runtimes || g.Config != w.Config || g.SourceName() != w.SourceName() {
			t.Errorf("%s: read %+v, want %+v", name, g, w)
		}
	}
}

// FuzzReadCSV: the reader never panics, and whatever it accepts is a valid
// dataset that the writer emits as encoding/csv would and the reader takes
// back unchanged —
// exactly so from the second pass on (the first may round floats to the
// format's 10 significant digits).
func FuzzReadCSV(f *testing.F) {
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	withMeta := mkSample(topology.A64FX, "CG", "large", 1.1)
	withMeta.Source, withMeta.RepsRun, withMeta.CoV, withMeta.CIRel = SourceMeasured, 7, 0.0123, 0.0345
	for _, ds := range []*Dataset{
		{Samples: []*Sample{mkSample(topology.A64FX, "CG", "small", 1.5)}},
		{Samples: []*Sample{measured}},
		{Samples: []*Sample{withMeta, measured}},
	} {
		f.Add(regenerate(f, ds))
	}
	legacy := withNestingColumns(regenerate(f, &Dataset{Samples: []*Sample{withMeta, measured}}), ",,")
	f.Add(legacy)
	f.Add(bytes.Replace(legacy, []byte(",,,7,"), []byte(",4,2,,7,"), 1))
	f.Add([]byte(strings.Replace(baseHeader, "runtime_0,runtime_1", "runtime_1,runtime_0", 1) + "\n" + baseRow + "\n"))
	f.Fuzz(func(t *testing.T, file []byte) {
		d1, err := ReadCSV(bytes.NewReader(file))
		if err != nil {
			return
		}
		if err := d1.Validate(); err != nil {
			t.Fatalf("accepted dataset fails Validate: %v", err)
		}
		w1 := regenerate(t, d1)
		if records, err := csv.NewReader(bytes.NewReader(w1)).ReadAll(); err != nil || !bytes.Equal(encodingCSV(t, records), w1) {
			t.Fatalf("writer output is not what encoding/csv writes for its cells (%v):\n%q", err, w1)
		}
		d2, err := ReadCSV(bytes.NewReader(w1))
		if err != nil {
			t.Fatalf("reader rejects the writer's output: %v\n%s", err, w1)
		}
		d3, err := ReadCSV(bytes.NewReader(regenerate(t, d2)))
		if err != nil {
			t.Fatalf("second pass: %v", err)
		}
		if len(d2.Samples) != len(d1.Samples) || len(d3.Samples) != len(d2.Samples) {
			t.Fatalf("round trip changed the row count: %d, %d, %d", len(d1.Samples), len(d2.Samples), len(d3.Samples))
		}
		for i := range d2.Samples {
			a, b := *d1.Samples[i], *d2.Samples[i]
			if a.Arch != b.Arch || a.App != b.App || a.Setting != b.Setting || a.Threads != b.Threads ||
				a.Config != b.Config || a.SourceName() != b.SourceName() || a.RepsRun != b.RepsRun {
				t.Fatalf("sample %d changed across write/read:\n%+v\n%+v", i, a, b)
			}
			if c := *d3.Samples[i]; b != c {
				t.Fatalf("sample %d not stable across a second write/read:\n%+v\n%+v", i, b, c)
			}
		}
	})
}

func TestSpeedupRangePropertyBestIsMax(t *testing.T) {
	f := func(speeds [6]uint8) bool {
		ds := &Dataset{}
		maxSp := 0.0
		for _, raw := range speeds {
			sp := 1.0 + float64(raw)/255.0
			if sp > maxSp {
				maxSp = sp
			}
			ds.Samples = append(ds.Samples, mkSample(topology.A64FX, "CG", "small", sp))
		}
		_, hi := RangeOf(bestSpeedups(ds))
		return math.Abs(hi-maxSp) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVSourceColumnRoundTrip(t *testing.T) {
	// A dataset with measured provenance writes the V2 header and round-trips
	// the source column.
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	model := mkSample(topology.A64FX, "CG", "large", 1.1)
	ds := &Dataset{Samples: []*Sample{measured, model}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, ",optimal,source") {
		t.Fatalf("V2 header missing source column: %q", head)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got := back.Samples[0].Source; got != SourceMeasured {
		t.Errorf("sample 0 source = %q, want %q", got, SourceMeasured)
	}
	if got := back.Samples[1].SourceName(); got != SourceModel {
		t.Errorf("sample 1 source = %q, want %q", got, SourceModel)
	}
}

func TestCSVModelDatasetKeepsLegacyHeader(t *testing.T) {
	// All-model datasets must stay byte-identical with pre-provenance files:
	// the V1 header, no trailing column — explicit "model" and empty Source
	// are equivalent.
	explicit := mkSample(topology.A64FX, "CG", "small", 1.5)
	explicit.Source = SourceModel
	ds := &Dataset{Samples: []*Sample{explicit, mkSample(topology.A64FX, "CG", "large", 1.1)}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, "source") {
		t.Fatalf("model-only dataset wrote the source column: %q", head)
	}
}

func TestCSVLegacyFileReadsWithModelSource(t *testing.T) {
	// A V1 file (written before the Source column existed) reads back with
	// every sample defaulting to the model provenance.
	legacy := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false\n"
	ds, err := ReadCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("ReadCSV(legacy): %v", err)
	}
	if ds.Len() != 1 || ds.Samples[0].SourceName() != SourceModel {
		t.Fatalf("legacy sample source = %q, want %q", ds.Samples[0].SourceName(), SourceModel)
	}
	if ds.Samples[0].Source != "" {
		t.Fatalf("legacy sample raw Source = %q, want empty", ds.Samples[0].Source)
	}
}

// withNestingColumns returns file as the commits that swept the nesting axis
// wrote it: the three nesting columns after source, their cells in every row
// cells (",," for blank).
func withNestingColumns(file []byte, cells string) []byte {
	lines := strings.SplitAfter(string(file), "\n")
	lines[0] = strings.Replace(lines[0], ",source,", ",source,omp_num_threads,omp_max_active_levels,omp_thread_limit,", 1)
	for i := 1; i < len(lines); i++ {
		lines[i] = strings.Replace(lines[i], ",measured,", ",measured,"+cells+",", 1)
	}
	return []byte(strings.Join(lines, ""))
}

// TestCSVLegacyNestingColumns: a file with the three nesting columns, which
// every measured file carried while the sweep took the nesting axis, reads
// sample for sample as the file without them when they are blank, and is
// refused, naming the column and the row, when a cell sets the variable.
func TestCSVLegacyNestingColumns(t *testing.T) {
	adaptive := mkSample(topology.A64FX, "CG", "small", 1.2)
	adaptive.Source, adaptive.RepsRun, adaptive.CoV, adaptive.CIRel = SourceMeasured, 7, 0.0123, 0.0345
	plain := mkSample(topology.A64FX, "CG", "large", 1.1)
	plain.Source, plain.RepsRun, plain.CoV, plain.CIRel = SourceMeasured, 3, 0.02, 0.04
	file := regenerate(t, &Dataset{Samples: []*Sample{adaptive, plain}})
	want, err := ReadCSV(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	legacy := withNestingColumns(file, ",,")
	got, err := ReadCSV(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("blank nesting columns refused: %v\n%s", err, legacy)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("read %d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if *got.Samples[i] != *want.Samples[i] {
			t.Errorf("sample %d: read %+v, want %+v", i, *got.Samples[i], *want.Samples[i])
		}
	}
	if !bytes.Equal(regenerate(t, got), file) {
		t.Error("a legacy file does not rewrite as the file without the nesting columns")
	}
	for _, tc := range []struct{ cells, col string }{
		{"4,,", "omp_num_threads"}, {",2,", "omp_max_active_levels"}, {",,0", "omp_thread_limit"},
	} {
		_, err := ReadCSV(bytes.NewReader(withNestingColumns(file, tc.cells)))
		if want := "dataset: row 2 " + tc.col + ": "; err == nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "nesting axis was removed") {
			t.Errorf("nesting cells %q: error %v, want one starting %q that says the axis was removed", tc.cells, err, want)
		}
	}
}

// regenerate re-serializes ds for byte-comparison.
func regenerate(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func TestCSVFlatDatasetOmitsNestedColumns(t *testing.T) {
	// Measured files keep the V2 header: the writer never writes the
	// nesting columns (see TestCSVLegacyNestingColumns).
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	ds := &Dataset{Samples: []*Sample{measured}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, "omp_num_threads") {
		t.Fatalf("flat dataset wrote nesting columns: %q", head)
	}
}

func TestCSVSourceColumnErrors(t *testing.T) {
	// An empty source cell in a V2 file is a corruption signal, not a default.
	bad := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal,source\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false,\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("empty source cell accepted")
	}
}

func TestCSVSeriesMetaRoundTrip(t *testing.T) {
	// A dataset carrying series provenance writes the V4 header and
	// round-trips the reps/cov/ci columns; samples without provenance keep
	// blank cells and read back with RepsRun == 0.
	adaptive := mkSample(topology.A64FX, "CG", "small", 1.2)
	adaptive.Source = SourceMeasured
	adaptive.RepsRun = 7
	adaptive.CoV = 0.0123
	adaptive.CIRel = 0.0345
	plain := mkSample(topology.A64FX, "CG", "large", 1.1)
	ds := &Dataset{Samples: []*Sample{adaptive, plain}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, ",source,reps,cov,ci") {
		t.Fatalf("V4 header missing provenance columns: %q", head)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	a := back.Samples[0]
	if a.RepsRun != 7 || a.CoV != 0.0123 || a.CIRel != 0.0345 {
		t.Errorf("meta round-trip = reps %d cov %v ci %v", a.RepsRun, a.CoV, a.CIRel)
	}
	if !a.HasSeriesMeta() {
		t.Error("adaptive sample lost its provenance")
	}
	p := back.Samples[1]
	if p.HasSeriesMeta() || p.RepsRun != 0 || p.CoV != 0 || p.CIRel != 0 {
		t.Errorf("plain sample gained provenance: %+v", p)
	}
	// Byte-stable across write-read-write, as checkpoint resume requires.
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatalf("WriteCSV(back): %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), regenerate(t, ds)) {
		t.Error("V4 CSV not byte-stable across write-read-write")
	}
}

func TestCSVMetaFreeDatasetOmitsMetaColumns(t *testing.T) {
	// Fixed-rep campaigns (no provenance) must keep their pre-V4 headers:
	// measured stays V2.
	measured := mkSample(topology.A64FX, "CG", "small", 1.2)
	measured.Source = SourceMeasured
	ds := &Dataset{Samples: []*Sample{measured}}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, ",reps,") || strings.HasSuffix(head, ",ci") {
		t.Fatalf("meta-free dataset wrote provenance columns: %q", head)
	}
	if !strings.HasSuffix(head, ",source") {
		t.Fatalf("measured meta-free dataset lost its V2 header: %q", head)
	}
}

func TestCSVSeriesMetaLegacyFilesUnchanged(t *testing.T) {
	// Legacy V1 (20-col) and V2 ("source") files read back unchanged — no
	// provenance invented — and re-serialize byte-identically.
	legacyV1 := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false\n"
	legacyV2 := "arch,app,suite,setting,threads,scale,omp_places,omp_proc_bind,omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,runtime_0,runtime_1,runtime_2,runtime_3,default_runtime,speedup,optimal,source\n" +
		"a64fx,CG,NPB,small,48,1,unset,unset,static,throughput,200,unset,256,1,1,1,1,1,1,false,measured\n"
	for name, legacy := range map[string]string{"v1": legacyV1, "v2": legacyV2} {
		ds, err := ReadCSV(strings.NewReader(legacy))
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		if ds.Samples[0].HasSeriesMeta() {
			t.Fatalf("%s: legacy sample invented series provenance", name)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		if buf.String() != legacy {
			t.Fatalf("%s: legacy file not byte-identical after round-trip:\n got %q\nwant %q", name, buf.String(), legacy)
		}
	}
}

// bestSpeedups returns every group's best speedup, in group order: what
// RangeOf and MedianOf take.
func bestSpeedups(d *Dataset) []float64 {
	groups := d.Groups()
	sp := make([]float64, len(groups))
	for i := range groups {
		sp[i] = groups[i].Best().Speedup()
	}
	return sp
}
