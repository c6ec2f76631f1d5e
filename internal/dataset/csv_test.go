package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// encodingCSV is what encoding/csv writes for the records.
func encodingCSV(t testing.TB, records [][]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(records); err != nil {
		t.Fatalf("csv.WriteAll: %v", err)
	}
	return buf.Bytes()
}

// TestCSVWriterMatchesEncodingCSV: the row codec quotes exactly the cells
// encoding/csv quotes, the same way, so every file has the bytes a
// csv.Writer would give it (and datasets written before keep theirs).
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	cells := []string{"", "plain", "a,b", `say "hi"`, `"`, " lead", "\tlead", " lead", "trail ",
		`\.`, `\.x`, "line\nbreak", "cr\rcr", "crlf\r\n", "é", "4,2"}
	for _, cell := range cells {
		want := strings.TrimSuffix(string(encodingCSV(t, [][]string{{cell, "x"}})), ",x\n")
		if got := string(appendCell(nil, cell)); got != want {
			t.Errorf("appendCell(%q) = %q, encoding/csv writes %q", cell, got, want)
		}
	}

	// Over a whole file: encoding/csv reads a quoted "\r\n" back as "\n",
	// so the file check leaves that cell to the per-cell one above.
	var samples []*Sample
	for i, cell := range cells[1:] {
		if strings.Contains(cell, "\r\n") {
			continue
		}
		s := mkSample(topology.Milan, cell, "small", 1.1+float64(i)/100)
		s.Suite, s.Setting, s.Source = cell, "s"+cell, SourceMeasured
		samples = append(samples, s)
	}
	withMeta := mkSample(topology.A64FX, "CG", "large", 1.1)
	withMeta.RepsRun, withMeta.CoV, withMeta.CIRel = 7, 0.0123, 0.0345
	out := regenerate(t, &Dataset{Samples: append(samples, withMeta)})
	records, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejects the writer's output: %v", err)
	}
	if want := encodingCSV(t, records); !bytes.Equal(out, want) {
		t.Errorf("writer output differs from encoding/csv over the same cells:\n got %q\nwant %q", out, want)
	}
}

// codecDataset is rows samples cycling over the first configs configurations
// of Milan's space, in one setting whose scale changes on every row, so no
// run of rows forms.
func codecDataset(rows, configs int) *Dataset {
	space := env.Space(topology.MustGet(topology.Milan))
	ds := &Dataset{Samples: make([]*Sample, rows)}
	for i := range ds.Samples {
		s := mkSample(topology.Milan, "XSbench", "t24", 1+float64(i%97)/1000)
		s.Scale = 1 + float64(i%89)/64
		s.Config = space[i%configs]
		s.Runtimes[1] *= 1.01
		ds.Samples[i] = s
	}
	return ds
}

// runsDataset is shaped like Collect's output: settings runs of rows, each
// one setting (its own label, threads, scale and default runtime) over the
// first configs configurations of Milan's space, in an order of its own.
func runsDataset(settings, configs int) *Dataset {
	space := env.Space(topology.MustGet(topology.Milan))
	ds := &Dataset{}
	for j := range settings {
		for i := range configs {
			s := mkSample(topology.Milan, "XSbench", fmt.Sprintf("t%d", 8+j), 1+float64((i*7+j)%97)/1000)
			s.Threads, s.Scale, s.DefaultRuntime = 8+j, 1+float64(j)/8, 1+float64(j)/16
			s.Config = space[(i*7+j)%configs]
			s.Runtimes[1] *= 1.01
			ds.Samples = append(ds.Samples, s)
		}
	}
	return ds
}

// TestCSVCodecAllocs pins the codec's allocations, at 40 and 400
// configurations, with and without runs of rows: the same constant bounds
// each. Writing appends every row into one buffer and renders each distinct
// configuration once into one arena; reading splits each record into views
// of one reused buffer, keeps each distinct text and configuration cell once,
// keys configurations by fixed-size values, and carves samples from growing
// blocks. Neither allocates per row or per configuration: what grows is
// geometric (blocks, buffers, maps).
func TestCSVCodecAllocs(t *testing.T) {
	const writeLimit, readLimit = 64, 150
	for _, configs := range []int{40, 400} {
		for _, c := range []struct {
			name string
			ds   *Dataset
		}{
			{"no runs", codecDataset(4000, configs)},
			{"runs of a setting", runsDataset(10, configs)},
		} {
			file := regenerate(t, c.ds)
			write := testing.AllocsPerRun(3, func() {
				if err := c.ds.WriteCSV(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
			if write > writeLimit {
				t.Errorf("%s: WriteCSV of %d rows over %d configurations: %.0f allocations, want <= %d", c.name, c.ds.Len(), configs, write, writeLimit)
			}
			read := testing.AllocsPerRun(3, func() {
				if _, err := ReadCSV(bytes.NewReader(file)); err != nil {
					t.Fatal(err)
				}
			})
			if read > readLimit {
				t.Errorf("%s: ReadCSV of %d rows over %d configurations: %.0f allocations, want <= %d", c.name, c.ds.Len(), configs, read, readLimit)
			}
		}
	}
}

// TestCSVReaderParsesConfigsOnce: a CSVReader that has read a file finds its
// configurations parsed and its text interned when the next file repeats
// them, as a campaign's checkpoint segments do on resume: it parses no
// configuration again, and reads the same samples a fresh one does. What the
// first file's samples keep outlives the records that later reads overwrite.
func TestCSVReaderParsesConfigsOnce(t *testing.T) {
	const rows, configs = 4000, 400
	file := regenerate(t, codecDataset(rows, configs))
	segment := regenerate(t, codecDataset(configs, configs))
	r := NewCSVReader()
	first, err := r.ReadCSV(bytes.NewReader(segment))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.configs) != configs {
		t.Fatalf("a file of %d configurations parsed %d", configs, len(r.configs))
	}
	var back *Dataset
	again := testing.AllocsPerRun(3, func() {
		var err error
		if back, err = r.ReadCSV(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	if len(r.configs) != configs {
		t.Errorf("reading %d rows through a reader that has seen their %d configurations parsed %d more", rows, configs, len(r.configs)-configs)
	}
	if limit := 40.0; again > limit {
		t.Errorf("ReadCSV of %d rows through a reader that has seen their %d configurations: %.0f allocations, want <= %.0f", rows, configs, again, limit)
	}
	for _, c := range []struct {
		file []byte
		got  *Dataset
	}{{file, back}, {segment, first}} {
		fresh, err := ReadCSV(bytes.NewReader(c.file))
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Samples {
			if *c.got.Samples[i] != *fresh.Samples[i] {
				t.Fatalf("sample %d through a used reader:\n%+v\nfresh:\n%+v", i, *c.got.Samples[i], *fresh.Samples[i])
			}
		}
	}
}

// TestReadCSVInternsText: every sample's text fields are the file's one copy
// of the value, not a view of its own row's record.
func TestReadCSVInternsText(t *testing.T) {
	back, err := ReadCSV(bytes.NewReader(regenerate(t, codecDataset(50, 7))))
	if err != nil {
		t.Fatal(err)
	}
	first := back.Samples[0]
	for i, s := range back.Samples[1:] {
		for _, f := range [][2]string{{string(s.Arch), string(first.Arch)}, {s.App, first.App}, {s.Suite, first.Suite}, {s.Setting, first.Setting}} {
			if unsafe.StringData(f[0]) != unsafe.StringData(f[1]) {
				t.Fatalf("sample %d: %q is a copy of its own, not the interned one", i+1, f[0])
			}
		}
	}
}

// referenceCells renders s's row for the columns header names, cell by cell
// and without the row above, as encoding/csv's caller would.
func referenceCells(t testing.TB, header []string, s *Sample) []string {
	t.Helper()
	num := func(f float64) string { return strconv.FormatFloat(f, 'g', 10, 64) }
	meta := func(cell string) string {
		if !s.HasSeriesMeta() {
			return ""
		}
		return cell
	}
	cells := make([]string, len(header))
	for i, name := range header {
		switch name {
		case "arch":
			cells[i] = string(s.Arch)
		case "app":
			cells[i] = s.App
		case "suite":
			cells[i] = s.Suite
		case "setting":
			cells[i] = s.Setting
		case "threads":
			cells[i] = strconv.Itoa(s.Threads)
		case "scale":
			cells[i] = num(s.Scale)
		case "runtime_0", "runtime_1", "runtime_2", "runtime_3":
			cells[i] = num(s.Runtimes[name[len(name)-1]-'0'])
		case "default_runtime":
			cells[i] = num(s.DefaultRuntime)
		case "speedup":
			cells[i] = num(s.Speedup())
		case "optimal":
			cells[i] = strconv.FormatBool(s.Optimal())
		case "source":
			cells[i] = s.SourceName()
		case "reps":
			cells[i] = meta(strconv.Itoa(s.RepsRun))
		case "cov":
			cells[i] = meta(num(s.CoV))
		case "ci":
			cells[i] = meta(num(s.CIRel))
		default:
			v := env.VarName(strings.ToUpper(name))
			if !slices.Contains(cfgVars, v) {
				t.Fatalf("the writer wrote an unknown column %q", name)
			}
			cells[i] = s.Config.Value(v)
		}
	}
	return cells
}

// readBack is what reading s from a file with the columns header gives:
// blank provenance reads as none, and a file with a source column names
// every sample's source.
func readBack(header []string, s *Sample) Sample {
	want := *s
	if !want.HasSeriesMeta() {
		want.CoV, want.CIRel = 0, 0
	}
	if want.Source = ""; slices.Contains(header, "source") {
		want.Source = s.SourceName()
	}
	return want
}

// checkRowReuse holds the writer, which copies cells from the row above, to
// encoding/csv over cells rendered row by row; and the reader, which keeps
// the row above's value for a cell it repeats, to the samples written: read
// whole with ReadCSV, and in segments through one CSVReader, as a
// checkpoint resume reads them. The samples' floats must survive 10
// significant digits.
func checkRowReuse(t *testing.T, ds *Dataset) {
	t.Helper()
	out := regenerate(t, ds)
	header := strings.Split(string(out[:bytes.IndexByte(out, '\n')]), ",")
	records := [][]string{header}
	for _, s := range ds.Samples {
		records = append(records, referenceCells(t, header, s))
	}
	if want := encodingCSV(t, records); !bytes.Equal(out, want) {
		t.Fatalf("writer output differs from encoding/csv over cells rendered row by row:\n got %q\nwant %q", out, want)
	}
	back, err := ReadCSV(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("ReadCSV: %v\n%s", err, out)
	}
	checkSamples(t, "ReadCSV", header, back.Samples, ds.Samples)

	// Segments of 1, 2, 3, ... rows, each with the header its rows need.
	r := NewCSVReader()
	var got []*Sample
	var headers [][]string
	for at, n := 0, 1; at < len(ds.Samples); at, n = at+n, n+1 {
		seg := &Dataset{Samples: ds.Samples[at:min(at+n, len(ds.Samples))]}
		file := regenerate(t, seg)
		d, err := r.ReadCSV(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("segment at row %d: %v\n%s", at, err, file)
		}
		got = append(got, d.Samples...)
		h := strings.Split(string(file[:bytes.IndexByte(file, '\n')]), ",")
		for range seg.Samples {
			headers = append(headers, h)
		}
	}
	for i := range got {
		checkSamples(t, "CSVReader over segments", headers[i], got[i:i+1], ds.Samples[i:i+1])
	}
}

func checkSamples(t *testing.T, how string, header []string, got, want []*Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, wrote %d", how, len(got), len(want))
	}
	for i := range want {
		if w := readBack(header, want[i]); *got[i] != w {
			t.Fatalf("%s: sample %d reads back as\n%+v\nwrote\n%+v", how, i, *got[i], w)
		}
	}
}

// reuseBase is a run of six rows of one setting, each its own configuration.
func reuseBase() []*Sample {
	space := env.Space(topology.MustGet(topology.Milan))
	out := make([]*Sample, 6)
	for i := range out {
		s := mkSample(topology.Milan, "XSbench", "t24", 1)
		s.Scale, s.DefaultRuntime = 1.5, 2.25
		s.Config = space[i*37]
		s.Runtimes = [4]float64{1 + float64(i)/8, 1.25, 1.5 + float64(i)/16, 2}
		out[i] = s
	}
	return out
}

// TestCSVRowReuse: each field a run of rows shares breaks the run on its own
// — in one row, and from one row on — and the writer and the reader agree
// with row-by-row rendering and with what was written.
func TestCSVRowReuse(t *testing.T) {
	breaks := map[string]func(s *Sample){
		"arch":            func(s *Sample) { s.Arch, s.Threads = topology.Skylake, 40; s.Config.AlignAlloc = 64 },
		"app":             func(s *Sample) { s.App = "RSBench" },
		"suite":           func(s *Sample) { s.Suite = "proxy" },
		"setting":         func(s *Sample) { s.Setting = "t12" },
		"threads":         func(s *Sample) { s.Threads = 12 },
		"scale":           func(s *Sample) { s.Scale = 0.5 },
		"default_runtime": func(s *Sample) { s.DefaultRuntime = 3.5 },
		"source":          func(s *Sample) { s.Source = SourceMeasured },
		"source, quoted":  func(s *Sample) { s.Source = "my,backend" },
		"config":          func(s *Sample) { s.Config.Schedule = openmp.ScheduleGuided },
		"reps":            func(s *Sample) { s.RepsRun, s.CoV, s.CIRel = 3, 0.125, 0.25 },
		"reps alone":      func(s *Sample) { s.RepsRun = 5 },
		"cov":             func(s *Sample) { s.CoV = 0.375 },
		"ci":              func(s *Sample) { s.CIRel = 0.0625 },
		"quoted text":     func(s *Sample) { s.App, s.Suite, s.Setting = "a,b", `say "hi"`, " lead" },
	}
	for name, change := range breaks {
		for _, from := range []bool{false, true} {
			// With provenance on every row, the meta columns are written and a
			// change to one of them shows; without, a segment of rows that
			// need no optional group has none.
			for _, meta := range []bool{false, true} {
				rows := reuseBase()
				for _, s := range rows {
					if meta {
						s.RepsRun, s.CoV, s.CIRel = 4, 0.5, 0.75
					}
				}
				for i := 2; i < len(rows) && (i == 2 || from); i++ {
					change(rows[i])
				}
				t.Run(fmt.Sprintf("%s/from=%v/meta=%v", name, from, meta), func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: rows}) })
			}
		}
	}
	// Provenance that comes and goes, and a sample without it whose unused
	// fields match the row above's: its cells are blank all the same.
	rows := reuseBase()
	for i, s := range rows {
		s.CoV, s.CIRel = 0.5, 0.75
		if i%3 != 1 {
			s.RepsRun = 4
		}
	}
	t.Run("provenance comes and goes", func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: rows}) })

	// Floats the row above shares by value but not by bits: 0 and -0.
	rows = reuseBase()
	for i, s := range rows {
		s.RepsRun = 4
		if i == 3 {
			s.CoV = math.Copysign(0, -1)
		}
	}
	t.Run("negative zero", func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: rows}) })

	// One group carrying two default runtimes.
	rows = reuseBase()
	for _, s := range rows[3:] {
		s.DefaultRuntime = 1.75
	}
	t.Run("two default runtimes", func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: rows}) })

	// Two groups interleaved row by row, and a run of one configuration.
	a, b := reuseBase(), reuseBase()
	var mixed []*Sample
	for i := range a {
		b[i].App, b[i].Setting, b[i].Config = "CG", "t48", a[0].Config
		mixed = append(mixed, a[i], b[i])
	}
	t.Run("interleaved groups", func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: mixed}) })
	t.Run("one configuration", func(t *testing.T) { checkRowReuse(t, &Dataset{Samples: b}) })
}

// TestCSVConcatenatedFiles: rows of two files, concatenated by hand so
// that they alternate, read as the samples of both in that order.
func TestCSVConcatenatedFiles(t *testing.T) {
	a, b := reuseBase(), reuseBase()
	for _, s := range b {
		s.App, s.Setting, s.DefaultRuntime = "CG", "t48", 3.5
	}
	lines := func(ds []*Sample) []string {
		return strings.Split(strings.TrimSuffix(string(regenerate(t, &Dataset{Samples: ds})), "\n"), "\n")
	}
	la, lb := lines(a), lines(b)
	if la[0] != lb[0] {
		t.Fatalf("headers differ: %q, %q", la[0], lb[0])
	}
	file, want := []string{la[0]}, []*Sample(nil)
	for i := range a {
		file, want = append(file, la[i+1], lb[i+1]), append(want, a[i], b[i])
	}
	back, err := ReadCSV(strings.NewReader(strings.Join(file, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	checkSamples(t, "ReadCSV", strings.Split(la[0], ","), back.Samples, want)
}

// FuzzCSVRowReuse builds a dataset row by row from the input, each byte
// changing one field of the row above (or none), and holds it to
// checkRowReuse.
func FuzzCSVRowReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{200, 17, 17, 40, 41, 42, 99, 13, 13, 13})
	space := env.Space(topology.MustGet(topology.Milan))
	texts := []string{"a", "b,c", `say "hi"`, " lead", "é"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		s := reuseBase()[0]
		ds := &Dataset{Samples: []*Sample{s}}
		for i, b := range data {
			n := *s
			s = &n
			v := int(b / 16)
			switch b % 16 {
			case 0:
				s.App = texts[v%len(texts)]
			case 1:
				s.Suite = texts[v%len(texts)]
			case 2:
				s.Setting = texts[v%len(texts)]
			case 3:
				s.Threads = 1 + v
			case 4:
				s.Scale = float64(1+v) / 4
			case 5:
				s.DefaultRuntime = 1 + float64(v)/8
			case 6:
				s.Source = []string{"", SourceModel, SourceMeasured, "x,y"}[v%4]
			case 7:
				s.RepsRun, s.CoV, s.CIRel = v%3, float64(v)/16, float64(v)/32
			case 8:
				s.CoV = float64(v) / 8
			case 9:
				s.Config.Schedule = env.Schedules()[v%4]
			case 10:
				s.Config.BlocktimeMS = env.Blocktimes()[v%3]
			case 11:
				s.Config.ForceReduction = env.Reductions()[v%4]
			case 12:
				s.Arch = []topology.Arch{topology.Milan, topology.Skylake}[v%2]
				s.Config.AlignAlloc = 64
			case 13, 14:
				s.Config = space[(int(b)*131+i)%len(space)]
			}
			s.Runtimes[i%4] = 1 + float64(b)/64
			ds.Samples = append(ds.Samples, s)
		}
		if err := ds.Validate(); err != nil {
			t.Skip(err)
		}
		checkRowReuse(t, ds)
	})
}

func BenchmarkWriteCSV(b *testing.B) {
	ds := runsDataset(10, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	file := regenerate(b, runsDataset(10, 2000))
	b.ReportAllocs()
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}
