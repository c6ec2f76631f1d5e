package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"omptune/internal/dataset"
	"omptune/internal/topology"
)

// The checkpoint layout under SweepConfig.CheckpointDir:
//
//	manifest.json  — the campaign spec; a resumed run must match it exactly
//	journal.jsonl  — one appended record per completed setting batch
//	unit-NNNNN.csv — the batch's samples in the open-data CSV format
//
// Batches are the checkpoint granularity on purpose: a setting's
// configurations stay together (the §IV-B enrichment invariant), and the
// journal is append-only so an interrupted run loses at most the batches
// that were in flight.

// sweepManifest pins the campaign spec a checkpoint directory belongs to.
// Any difference — architectures, apps, fractions, extended space, shard
// spec — makes the resumed dataset incoherent, so openCheckpoint rejects it.
type sweepManifest struct {
	Version   int                `json:"version"`
	Arches    []string           `json:"arches"`
	Fractions map[string]float64 `json:"fractions"`
	Extended  bool               `json:"extended"`
	// Nested is only read: it is true in the manifest of a campaign that
	// swept the nesting axis, which no longer exists, so such a checkpoint
	// cannot resume.
	Nested bool   `json:"nested,omitempty"`
	Shard  string `json:"shard,omitempty"`
	// Backend is the measurement backend's identity (Evaluator.Name). Model
	// and measured runtimes must never mix inside one campaign, so resuming
	// under a different backend is rejected. Manifests written before the
	// evaluator seam carry no backend field; they read back as "model", the
	// only backend that existed then.
	Backend string   `json:"backend,omitempty"`
	Units   []string `json:"units"` // ordered unit keys
}

const manifestVersion = 1

// backendName normalizes the manifest's backend field: absent (a pre-seam
// manifest) means the model backend.
func (m sweepManifest) backendName() string {
	if m.Backend == "" {
		return dataset.SourceModel
	}
	return m.Backend
}

func manifestFor(sc SweepConfig, ev Evaluator, units []*sweepUnit) sweepManifest {
	man := sweepManifest{
		Version:   manifestVersion,
		Extended:  sc.Extended,
		Shard:     sc.Shard,
		Backend:   orModel(ev).Name(),
		Fractions: map[string]float64{},
	}
	seen := map[topology.Arch]bool{}
	for _, u := range units {
		if !seen[u.arch] {
			seen[u.arch] = true
			man.Arches = append(man.Arches, string(u.arch))
			man.Fractions[string(u.arch)] = u.frac
		}
		man.Units = append(man.Units, u.key())
	}
	sort.Strings(man.Arches)
	return man
}

// diff describes the first mismatch against other, or "" when equal.
func (m sweepManifest) diff(other sweepManifest) string {
	switch {
	case other.Nested:
		return "it swept the nesting axis, which was removed from the sweep"
	case m.Version != other.Version:
		return fmt.Sprintf("checkpoint format version %d vs %d", other.Version, m.Version)
	case m.backendName() != other.backendName():
		return fmt.Sprintf("measurement backend %q vs %q — a campaign journaled under the %q backend cannot resume under %q",
			other.backendName(), m.backendName(), other.backendName(), m.backendName())
	case m.Shard != other.Shard:
		return fmt.Sprintf("shard spec %q vs %q", other.Shard, m.Shard)
	case m.Extended != other.Extended:
		return fmt.Sprintf("extended space %v vs %v", other.Extended, m.Extended)
	case strings.Join(m.Arches, ",") != strings.Join(other.Arches, ","):
		return fmt.Sprintf("architectures %v vs %v", other.Arches, m.Arches)
	case len(m.Units) != len(other.Units):
		return fmt.Sprintf("%d settings vs %d", len(other.Units), len(m.Units))
	}
	for _, a := range m.Arches { // the keys of m.Fractions, in a fixed order
		if other.Fractions[a] != m.Fractions[a] {
			return fmt.Sprintf("fraction on %s %v vs %v", a, other.Fractions[a], m.Fractions[a])
		}
	}
	for i, k := range m.Units {
		if other.Units[i] != k {
			return fmt.Sprintf("setting %d is %q vs %q", i, other.Units[i], k)
		}
	}
	return ""
}

// journalEntry records one checkpointed batch.
type journalEntry struct {
	Unit    int    `json:"unit"`
	Key     string `json:"key"`
	Samples int    `json:"samples"`
	File    string `json:"file"`
}

// checkpoint is the live handle on a checkpoint directory. save is safe for
// concurrent use by sweep workers.
type checkpoint struct {
	dir     string
	mu      sync.Mutex
	journal *os.File
	have    map[int]journalEntry
	// segments reads every segment load restores, so a resume parses each
	// configuration once. load runs on the sweep's planning goroutine alone.
	segments *dataset.CSVReader
}

// openCheckpoint creates or resumes the checkpoint directory, validating an
// existing manifest against the current campaign spec and replaying the
// journal of completed batches.
func openCheckpoint(dir string, man sweepManifest) (*checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	if raw, err := os.ReadFile(manPath); err == nil {
		var prior sweepManifest
		if err := json.Unmarshal(raw, &prior); err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint manifest %s: %w", manPath, err)
		}
		if d := man.diff(prior); d != "" {
			return nil, fmt.Errorf("core: checkpoint dir %s belongs to a different campaign (%s); use a fresh directory", dir, d)
		}
	} else if os.IsNotExist(err) {
		raw, err := json.MarshalIndent(man, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := writeFileAtomic(manPath, raw); err != nil {
			return nil, fmt.Errorf("core: writing checkpoint manifest: %w", err)
		}
	} else {
		return nil, fmt.Errorf("core: reading checkpoint manifest: %w", err)
	}

	ck := &checkpoint{dir: dir, have: map[int]journalEntry{}, segments: dataset.NewCSVReader()}
	jPath := filepath.Join(dir, "journal.jsonl")
	raw, err := os.ReadFile(jPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: reading checkpoint journal: %w", err)
	}
	// A record counts once its newline is on disk. The bytes after the last
	// newline are a torn append from a killed run: truncate them, so the next
	// append starts on a fresh line.
	whole := bytes.LastIndexByte(raw, '\n') + 1
	if whole < len(raw) {
		if err := os.Truncate(jPath, int64(whole)); err != nil {
			return nil, fmt.Errorf("core: truncating torn checkpoint journal: %w", err)
		}
	}
	for _, line := range bytes.Split(raw[:whole], []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			// A torn record with the next run's first record on its line, as a
			// journal written without the truncation above can hold: skip it,
			// the entries after it stay valid.
			continue
		}
		if e.Unit < 0 || e.Unit >= len(man.Units) || man.Units[e.Unit] != e.Key || e.File != segmentName(e.Unit) {
			return nil, fmt.Errorf("core: checkpoint journal entry %q does not match the campaign plan", e.Key)
		}
		ck.have[e.Unit] = e
	}
	j, err := os.OpenFile(jPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening checkpoint journal: %w", err)
	}
	ck.journal = j
	return ck, nil
}

// load restores a previously completed batch, reporting ok=false when the
// unit has not been checkpointed. A segment must hold the journaled number of
// rows, every one of them the unit's own (arch, app, setting).
func (ck *checkpoint) load(u *sweepUnit) ([]*dataset.Sample, bool, error) {
	e, ok := ck.have[u.index]
	if !ok {
		return nil, false, nil
	}
	f, err := os.Open(filepath.Join(ck.dir, e.File))
	if err != nil {
		return nil, false, fmt.Errorf("core: checkpoint segment for %s: %w", e.Key, err)
	}
	defer f.Close()
	ds, err := ck.segments.ReadCSV(f)
	if err != nil {
		return nil, false, fmt.Errorf("core: checkpoint segment for %s: %w", e.Key, err)
	}
	if ds.Len() != e.Samples {
		return nil, false, fmt.Errorf("core: checkpoint segment for %s has %d samples, journal says %d", e.Key, ds.Len(), e.Samples)
	}
	for _, smp := range ds.Samples {
		if smp.Arch != u.arch || smp.App != u.app.Name || smp.Setting != u.set.Label {
			return nil, false, fmt.Errorf("core: checkpoint segment for %s holds a row of %s/%s/%s", e.Key, smp.Arch, smp.App, smp.Setting)
		}
	}
	return ds.Samples, true, nil
}

// save persists a completed batch: segment file first (atomically), then the
// journal record, so the journal never references a missing segment.
func (ck *checkpoint) save(u *sweepUnit, samples []*dataset.Sample) error {
	name := segmentName(u.index)
	var buf bytes.Buffer
	if err := (&dataset.Dataset{Samples: samples}).WriteCSV(&buf); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(ck.dir, name), buf.Bytes()); err != nil {
		return fmt.Errorf("core: writing checkpoint segment: %w", err)
	}
	e := journalEntry{Unit: u.index, Key: u.key(), Samples: len(samples), File: name}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if _, err := ck.journal.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("core: appending checkpoint journal: %w", err)
	}
	ck.have[u.index] = e
	return nil
}

// segmentName is the file a unit's batch is saved in, under the checkpoint
// directory. The journal names it too, and openCheckpoint rejects an entry
// that names anything else.
func segmentName(unit int) string { return fmt.Sprintf("unit-%05d.csv", unit) }

// close releases the journal handle.
func (ck *checkpoint) close() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.journal.Close()
}

// writeFileAtomic writes via a temp file and rename so readers (and resumed
// runs after a kill) never observe a half-written file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
