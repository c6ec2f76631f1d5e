package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"
	"unsafe"

	"omptune/internal/env"
	"omptune/internal/topology"
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
		if got := quoted(cell); got != want {
			t.Errorf("quoted(%q) = %q, encoding/csv writes %q", cell, got, want)
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
	nested := mkSample(topology.Milan, "LUNest", "small", 1.3)
	nested.Config.NumThreadsList, nested.Config.ThreadLimit = "4,2", 16
	withMeta := mkSample(topology.A64FX, "CG", "large", 1.1)
	withMeta.RepsRun, withMeta.CoV, withMeta.CIRel = 7, 0.0123, 0.0345
	out := regenerate(t, &Dataset{Samples: append(samples, nested, withMeta)})
	records, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejects the writer's output: %v", err)
	}
	if want := encodingCSV(t, records); !bytes.Equal(out, want) {
		t.Errorf("writer output differs from encoding/csv over the same cells:\n got %q\nwant %q", out, want)
	}
}

// codecDataset is rows samples cycling over the first configs configurations
// of Milan's space, in one setting.
func codecDataset(rows, configs int) *Dataset {
	space := env.Space(topology.MustGet(topology.Milan))
	ds := &Dataset{Samples: make([]*Sample, rows)}
	for i := range ds.Samples {
		s := mkSample(topology.Milan, "XSbench", "t24", 1+float64(i%97)/1000)
		s.Config = space[i%configs]
		s.Runtimes[1] *= 1.01
		ds.Samples[i] = s
	}
	return ds
}

// TestCSVCodecAllocs pins the codec's allocations. Writing appends every
// cell into one buffer and renders each distinct configuration once:
// nothing per row. Reading streams one reused record (encoding/csv's one
// string per row), interns the text cells, carves samples from growing
// blocks and parses each distinct configuration once.
func TestCSVCodecAllocs(t *testing.T) {
	const rows, configs = 4000, 40
	ds := codecDataset(rows, configs)
	file := regenerate(t, ds)
	write := testing.AllocsPerRun(3, func() {
		if err := ds.WriteCSV(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	// Per distinct configuration: its cells' slice, two to three rendered
	// numbers and one map bucket share; plus the buffer, the column list and
	// the map itself.
	if limit := float64(5*configs + 20); write > limit {
		t.Errorf("WriteCSV of %d rows over %d configurations: %.0f allocations, want <= %.0f", rows, configs, write, limit)
	}
	read := testing.AllocsPerRun(3, func() {
		if _, err := ReadCSV(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	// One record string a row; per distinct configuration one env.Parse
	// (its environment entries, the key, the map share); the blocks and the
	// sample slice grow geometrically.
	if limit := float64(rows + 12*configs + 60); read > limit {
		t.Errorf("ReadCSV of %d rows over %d configurations: %.0f allocations, want <= %.0f", rows, configs, read, limit)
	}

	// A CSVReader that has read a file finds its configurations parsed and
	// its text interned when the next file repeats them, as a campaign's
	// checkpoint segments do, and reads the same samples a fresh one does.
	r := NewCSVReader()
	if _, err := r.ReadCSV(bytes.NewReader(regenerate(t, codecDataset(configs, configs)))); err != nil {
		t.Fatal(err)
	}
	var back *Dataset
	again := testing.AllocsPerRun(3, func() {
		var err error
		if back, err = r.ReadCSV(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(rows + 60); again > limit {
		t.Errorf("ReadCSV of %d rows through a reader that has seen their configurations: %.0f allocations, want <= %.0f", rows, again, limit)
	}
	fresh, err := ReadCSV(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Samples {
		if *back.Samples[i] != *fresh.Samples[i] {
			t.Fatalf("sample %d through a used reader:\n%+v\nfresh:\n%+v", i, *back.Samples[i], *fresh.Samples[i])
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

func BenchmarkWriteCSV(b *testing.B) {
	ds := codecDataset(20000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadCSV(b *testing.B) {
	file := regenerate(b, codecDataset(20000, 2000))
	b.ReportAllocs()
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSV(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
}
