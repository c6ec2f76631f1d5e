package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omptune/internal/dataset"
)

// FuzzCheckpointJournal feeds arbitrary journal bytes to a checkpoint
// directory whose manifest and segments come from one clean 3-unit campaign.
// Whatever the journal holds, opening the checkpoint and loading every unit
// must not panic, every journal entry kept must name its unit's own segment
// (so no file outside the directory is opened), and every unit either fails
// with an error or restores exactly the clean run's samples.
func FuzzCheckpointJournal(f *testing.F) {
	tmpl := f.TempDir()
	sc := smallCampaign()
	sc.CheckpointDir = tmpl
	if _, err := RunSweep(sc); err != nil {
		f.Fatalf("RunSweep: %v", err)
	}
	units, err := planUnits(sc)
	if err != nil {
		f.Fatal(err)
	}
	man := manifestFor(sc, nil, units)
	read := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join(tmpl, name))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	manifest, journal := read("manifest.json"), read("journal.jsonl")
	segments := make([][]byte, len(units))
	for i := range units {
		segments[i] = read(segmentName(i))
	}

	f.Add(journal)
	for i := range journal {
		f.Add(journal[:i])
	}
	lines := strings.SplitAfter(string(journal), "\n")
	f.Add([]byte(string(journal) + string(journal)))
	f.Add([]byte(lines[0] + lines[0] + lines[1]))
	f.Add([]byte(strings.Replace(string(journal), `"key":"`, `"key":"x`, 1)))
	f.Add([]byte(`{"unit":2,"key":"ga` + string(journal)))
	f.Add([]byte(lines[0] + `{"unit":2,"key":"ga` + lines[1] + lines[2]))
	f.Add([]byte(strings.Replace(string(journal), `"file":"unit-00001.csv"`, `"file":"../x.csv"`, 1)))
	f.Add([]byte(strings.Replace(string(journal), `"samples":`, `"samples":1`, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "ck")
		write := func(path string, raw []byte) {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(dir, "manifest.json"), manifest)
		for i, seg := range segments {
			write(filepath.Join(dir, segmentName(i)), seg)
		}
		// A well-formed segment outside the directory, with another unit's
		// samples: opening it would restore the wrong ones.
		write(filepath.Join(root, "x.csv"), segments[0])
		write(filepath.Join(dir, "journal.jsonl"), data)

		ck, err := openCheckpoint(dir, man)
		if err != nil {
			return
		}
		defer ck.close()
		for unit, e := range ck.have {
			if e.File != segmentName(unit) {
				t.Fatalf("unit %d kept with file %q", unit, e.File)
			}
		}
		for i, u := range units {
			samples, ok, err := ck.load(u)
			if err != nil || !ok {
				continue
			}
			var buf bytes.Buffer
			if err := (&dataset.Dataset{Samples: samples}).WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), segments[i]) {
				t.Fatalf("unit %d restored samples that differ from the clean run's", i)
			}
		}
	})
}

// FuzzCheckpointManifest feeds arbitrary bytes as the manifest of a
// checkpoint directory opened for a planned 3-unit campaign. Opening must not
// panic; it either rejects the manifest with an error that names the first
// mismatch against the campaign's own manifest (or the JSON error), or
// accepts it, and only when that mismatch is empty.
func FuzzCheckpointManifest(f *testing.F) {
	sc := smallCampaign()
	units, err := planUnits(sc)
	if err != nil {
		f.Fatal(err)
	}
	man := manifestFor(sc, nil, units)
	clean, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	mutate := func(edit func(m *sweepManifest)) {
		m := man
		m.Fractions = map[string]float64{}
		for a, v := range man.Fractions {
			m.Fractions[a] = v
		}
		m.Units = append([]string(nil), man.Units...)
		edit(&m)
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	mutate(func(m *sweepManifest) { m.Version++ })
	mutate(func(m *sweepManifest) { m.Backend = "measured" })
	mutate(func(m *sweepManifest) { m.Backend = "" }) // a pre-seam manifest: the model
	mutate(func(m *sweepManifest) { m.Shard = "0/2" })
	mutate(func(m *sweepManifest) { m.Nested = true })
	mutate(func(m *sweepManifest) { m.Fractions[m.Arches[0]] /= 2 })
	mutate(func(m *sweepManifest) { m.Units[1] += "x" })
	mutate(func(m *sweepManifest) { m.Units = m.Units[:2] })
	f.Add(clean[:len(clean)/2])
	f.Add([]byte("null"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := openCheckpoint(dir, man)
		var prior sweepManifest
		jsonErr := json.Unmarshal(data, &prior)
		if ck != nil {
			defer ck.close()
		}
		switch {
		case jsonErr != nil:
			if err == nil || !strings.Contains(err.Error(), "corrupt checkpoint manifest") {
				t.Fatalf("unparsable manifest opened with error %v", err)
			}
		case err == nil:
			if d := man.diff(prior); d != "" {
				t.Fatalf("manifest accepted despite mismatch %q", d)
			}
		default:
			d := man.diff(prior)
			if d == "" || !strings.Contains(err.Error(), "("+d+")") {
				t.Fatalf("manifest rejected with %v, want the first mismatch %q", err, d)
			}
		}
	})
}
