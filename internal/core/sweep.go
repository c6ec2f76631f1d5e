// Package core is the study engine: it orchestrates the large-scale
// parameter sweep of §IV (producing the 240,000-sample dataset), derives
// the paper's statistics (speedup ranges, medians, best configurations,
// worst trends) and drives the ML influence analysis of §IV-D.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// SweepConfig controls a data-collection campaign.
type SweepConfig struct {
	// Arches to collect on; nil means all three.
	Arches []topology.Arch
	// Apps restricts the applications by name; nil means every app that ran
	// on the architecture (Table II's 15/13/12 split).
	Apps []string
	// Fraction is the sampled share of the full configuration space per
	// architecture. The default (DefaultFractions) reproduces the sample
	// counts of Table II; 1.0 is the fully exhaustive sweep. The default
	// configuration is always included regardless of the fraction.
	Fraction map[topology.Arch]float64
	// OnProgress, when non-nil, receives the setting_done Event of every
	// completed setting batch, the value the telemetry log and the Monitor
	// receive. It is called from worker goroutines under a lock, so events
	// arrive serialized.
	OnProgress func(Event)
	// Extended enables the paper's future-work coverage: numa_domains
	// places in the configuration space and six thread counts instead of
	// three for the thread-varied applications.
	Extended bool
	// Workers bounds the number of setting batches evaluated concurrently;
	// <= 0 means runtime.NumCPU(). The merged sample order is independent
	// of the worker count (byte-identical CSV output).
	Workers int
	// CheckpointDir, when non-empty, journals every completed setting batch
	// so an interrupted campaign resumes without recomputation. The
	// directory is created if needed; resuming validates that it belongs to
	// the same campaign spec.
	CheckpointDir string
	// Shard tags the campaign's shard (e.g. "0/4") in the checkpoint
	// manifest, so a resume with a different shard layout is rejected.
	Shard string
	// Context, when non-nil, cancels the sweep between setting batches;
	// in-flight batches finish (and are checkpointed) first.
	Context context.Context
	// Backend is the measurement backend; nil means the analytic model
	// (byte-identical output with pre-seam sweeps). The backend's identity is
	// recorded in every sample's Source column and in the checkpoint
	// manifest — resuming a checkpoint under a different backend is rejected.
	Backend Evaluator
	// TelemetryLog, when non-empty, appends a JSONL telemetry stream to this
	// file: a plan record, a setting_done record per completed batch,
	// periodic heartbeats carrying workers-busy / throughput / per-arch
	// completion gauges, and a final done (or error) record. Best-effort:
	// write failures never abort the sweep.
	TelemetryLog string
	// TelemetryInterval is the heartbeat period; <= 0 means 30s. A first
	// heartbeat is always emitted immediately after the plan record.
	TelemetryInterval time.Duration
	// Monitor, when non-nil, receives live campaign gauges and latency
	// histograms for the embedded HTTP monitor (Prometheus /metrics and
	// /api/status). One Monitor observes one campaign.
	Monitor *Monitor
}

// DefaultFractions yields, with the sampling rule of keepHash, dataset
// sizes matching Table II: ~53.8k on A64FX, ~99.7k on Milan, ~90.2k on
// Skylake. (The paper's counts are what survived its data cleaning; the
// fraction plays that role here.)
func DefaultFractions() map[topology.Arch]float64 {
	return map[topology.Arch]float64{
		topology.A64FX:   0.2596,
		topology.Skylake: 0.27196,
		topology.Milan:   0.27738,
	}
}

const fnvOffset uint64 = 0xcbf29ce484222325

// fnv1a continues the FNV-1a state h (fnvOffset to start) over s; hashing a
// string in pieces gives the same state as hashing their concatenation.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// fnvFinish scrambles an FNV-1a state into the final hash.
func fnvFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// hash64 is FNV-1a with a finalizer, matching the sampling used in sim.
func hash64(s string) uint64 { return fnvFinish(fnv1a(fnvOffset, s)) }

// samplePrefix is the FNV-1a state after "app|arch|setting|": the part of
// the sampling hash that one (app, arch, setting) unit shares.
func samplePrefix(appName string, arch topology.Arch, setting string) uint64 {
	h := fnv1a(fnv1a(fnvOffset, appName), "|")
	h = fnv1a(fnv1a(h, string(arch)), "|")
	return fnv1a(fnv1a(h, setting), "|")
}

// keepHash reports whether the configuration whose sampling hash state is h
// (the unit's prefix continued over the configuration's Key()) is part of
// the sampled sweep: the hash of "app|arch|setting|key", mapped to [0, 1),
// falls below frac, limit = keepLimit(frac).
func keepHash(h, limit uint64) bool { return fnvFinish(h)>>11 < limit }

// keepLimit is the sampling fraction as an integer bound on a hash's top 53
// bits: for an integer x < 2^53, x/2^53 < frac exactly when x < ⌈frac·2^53⌉
// (both scalings by 2^53 are exact), every x is below 2^53 at frac >= 1,
// and none is below a NaN.
func keepLimit(frac float64) uint64 {
	if !(frac > 0) {
		return 0
	}
	return uint64(math.Ceil(min(frac, 1) * (1 << 53)))
}

// sweepUnit is one (arch, app, setting) batch — the unit of parallelism and
// of checkpointing. All configurations of a setting stay in one unit,
// mirroring the batching rationale of §IV-B: relative performance within a
// setting is preserved even if the cluster load changes between settings.
type sweepUnit struct {
	index int // position in the campaign plan; fixes the merge order
	arch  topology.Arch
	m     *topology.Machine
	app   *apps.App
	set   sim.Setting
	frac  float64
	*configTable
	kept     []int32 // sampled positions in space, ascending, default included
	cfgCount int     // len(kept): sampled configurations including the default
}

func (u *sweepUnit) key() string {
	return string(u.arch) + "/" + u.app.Name + "/" + u.set.Label
}

// sampleUnits applies the deterministic sampling rule to units that share
// one table, without evaluating anything: the plan knows every unit's exact
// sample set, hence exact progress totals, up front, and evalUnit walks only
// what is kept. FNV-1a is one dependent xor-and-multiply per byte, so each
// unit's chain keeps its state after every byte of the key it last walked
// and restarts the next key from the state at the prefix the two share
// (table.shared): align is the innermost domain, so neighbouring keys differ
// only in their last bytes. The units go four at a time, their chains
// advancing together; every chain takes the steps it would alone over the
// whole key.
func sampleUnits(units []*sweepUnit) {
	const prime = 0x100000001b3
	if len(units) == 0 {
		return
	}
	t := units[0].configTable
	// st[k] holds the four chains' states after the first k bytes of the
	// key walked last; st[0] is each unit's "app|arch|setting|" prefix.
	st := make([][4]uint64, t.maxKey+1)
	// Lane j writes every position into its row of rows and advances n[j]
	// over the kept ones, so no branch waits on the keep rule's coin flip.
	// A lane without a unit has limit 0 and keeps nothing.
	nk := len(t.keys)
	rows := make([]int32, 4*nk)
	for ; len(units) > 0; units = units[min(4, len(units)):] {
		g := units[:min(4, len(units))]
		var limit [4]uint64
		def := [4]int{-1, -1, -1, -1}
		for j, u := range g {
			st[0][j] = samplePrefix(u.app.Name, u.arch, u.set.Label)
			limit[j], def[j] = keepLimit(u.frac), u.defIdx
		}
		var n [4]int
		for i, key := range t.keys {
			k := int(t.shared[i])
			a, b, c, d := st[k][0], st[k][1], st[k][2], st[k][3]
			for ; k < len(key); k++ {
				x := uint64(key[k])
				a, b, c, d = (a^x)*prime, (b^x)*prime, (c^x)*prime, (d^x)*prime
				st[k+1] = [4]uint64{a, b, c, d}
			}
			states := [4]uint64{a, b, c, d}
			for j := range states {
				rows[j*nk+n[j]] = int32(i)
				keep := 0
				if keepHash(states[j], limit[j]) {
					keep = 1
				}
				if i == def[j] {
					keep = 1
				}
				n[j] += keep
			}
		}
		for j, u := range g {
			u.kept = slices.Clone(rows[j*nk : j*nk+n[j]])
			u.cfgCount = n[j]
		}
	}
}

// planUnits enumerates the campaign deterministically (arch → app →
// setting, exactly the serial sweep order) and validates its inputs.
func planUnits(sc SweepConfig) ([]*sweepUnit, error) {
	arches := sc.Arches
	if arches == nil {
		arches = topology.Arches()
	}
	fractions := sc.Fraction
	if fractions == nil {
		fractions = DefaultFractions()
	}
	var units []*sweepUnit
	for _, arch := range arches {
		m, err := topology.Get(arch)
		if err != nil {
			return nil, err
		}
		frac, ok := fractions[arch]
		if !ok {
			frac = 1.0
		}
		if !(frac >= 0 && frac <= 1) { // NaN included
			return nil, fmt.Errorf("core: fraction %v for %s outside [0, 1]", frac, arch)
		}
		appList, err := selectApps(arch, sc.Apps)
		if err != nil {
			return nil, err
		}
		// The arch's units share one table; the study space's is the
		// machine's own, built once per process.
		var table *configTable
		if sc.Extended {
			table = newConfigTable(ExtendedSpace(m), env.Default(m))
		} else {
			table = machineTable(m)
		}
		first := len(units)
		for _, app := range appList {
			settings := app.Settings(m)
			if sc.Extended && !app.VariesInput {
				settings = ExtendedThreadSettings(m)
			}
			for _, set := range settings {
				u := &sweepUnit{
					index: len(units), arch: arch, m: m, app: app, set: set,
					frac: frac, configTable: table,
				}
				units = append(units, u)
			}
		}
		sampleUnits(units[first:])
	}
	return units, nil
}

// evalUnit runs one setting batch. The default configuration is evaluated
// explicitly first — if it is missing from the space the batch fails loudly
// rather than silently enriching every sample with DefaultRuntime = 0
// (which would poison downstream speedups with Inf/NaN).
//
// A configuration whose series failed is reported and skipped, not fatal:
// skipped counts the planned rows the batch dropped. A failed default
// configuration skips the entire batch — without the default there is
// nothing to enrich against — but the campaign continues.
func evalUnit(u *sweepUnit, ev Evaluator) (out []*dataset.Sample, skipped int, err error) {
	if u.defIdx < 0 {
		return nil, 0, fmt.Errorf("core: default configuration absent from the sweep space for %s; cannot enrich (§IV-B)", u.key())
	}
	proto := dataset.Sample{
		Arch: u.arch, App: u.app.Name, Suite: string(u.app.Suite),
		Setting: u.set.Label, Threads: u.set.Threads, Scale: u.set.Scale,
		Source: ev.Name(),
	}
	ps := bindSeries(ev, u.m, u.app, u.set)
	fill := func(s *dataset.Sample, i int32) bool {
		runs, meta, err := ps.series(u.space[i], u.keys[i], u.hashes[i])
		if err != nil {
			reportSkipped(err)
			return false
		}
		*s = proto
		s.Config, s.Runtimes = u.space[i], runs
		s.RepsRun, s.CoV, s.CIRel = meta.Reps, meta.CoV, meta.CIRel
		return true
	}
	var def dataset.Sample
	if !fill(&def, int32(u.defIdx)) {
		return nil, u.cfgCount, nil
	}
	// Enrichment (§IV-B): every sample of the setting carries the default's
	// mean runtime.
	proto.DefaultRuntime = def.MeanRuntime()
	def.DefaultRuntime = proto.DefaultRuntime
	slab := make([]dataset.Sample, len(u.kept)) // one allocation for the batch's samples
	out = make([]*dataset.Sample, 0, len(u.kept))
	for _, i := range u.kept {
		s := &slab[len(out)] // a skipped sample's slot is reused by the next
		if int(i) == u.defIdx {
			*s = def
		} else if !fill(s, i) {
			skipped++
			continue
		}
		out = append(out, s)
	}
	return out, skipped, nil
}

// RunSweep executes the campaign and returns the enriched dataset. Setting
// batches fan out over a bounded worker pool and merge back in plan order,
// so the result is byte-for-byte identical to a serial (Workers: 1) sweep.
// With CheckpointDir set, completed batches are journaled and an interrupted
// run resumes without re-evaluating them.
func RunSweep(sc SweepConfig) (ds *dataset.Dataset, err error) {
	ctx := sc.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ev := orModel(sc.Backend)
	// Opened before planning so even a plan-time failure (unknown app, bad
	// shard spec) reaches the monitor as a terminal error state. The terminal
	// record reflects how the sweep actually ended, so the deferred finish
	// reads the named error result.
	rep := newReporter(sc.OnProgress, sc.Monitor)
	defer func() { rep.finish(err) }()
	units, err := planUnits(sc)
	if err != nil {
		return nil, err
	}

	var ck *checkpoint
	if sc.CheckpointDir != "" {
		ck, err = openCheckpoint(sc.CheckpointDir, manifestFor(sc, ev, units))
		if err != nil {
			return nil, err
		}
		defer ck.close()
	}

	workers := sc.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if sc.TelemetryLog != "" {
		interval := sc.TelemetryInterval
		if interval <= 0 {
			interval = 30 * time.Second
		}
		if err = rep.openTelemetry(sc.TelemetryLog, interval); err != nil {
			return nil, err
		}
	}
	rep.plan(units, ev.Name(), workers)

	results := make([][]*dataset.Sample, len(units))
	var pending []*sweepUnit
	for _, u := range units {
		if ck != nil {
			samples, ok, err := ck.load(u)
			if err != nil {
				return nil, err
			}
			if ok {
				results[u.index] = samples
				rep.unitDone(u, samples, 0, true)
				continue
			}
		}
		pending = append(pending, u)
	}

	if len(pending) > 0 {
		if err := runUnits(ctx, sc, ev, workers, pending, results, ck, rep); err != nil {
			return nil, err
		}
	}

	ds = &dataset.Dataset{Samples: make([]*dataset.Sample, 0, rep.samplesTotal)}
	for _, samples := range results {
		ds.Samples = append(ds.Samples, samples...)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// runUnits fans the pending batches out over the worker pool, writing each
// result into its plan slot (and the checkpoint, if any) as it completes.
func runUnits(ctx context.Context, sc SweepConfig, ev Evaluator, workers int, pending []*sweepUnit,
	results [][]*dataset.Sample, ck *checkpoint, rep *reporter) error {
	if workers > len(pending) {
		workers = len(pending)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	unitCh := make(chan *sweepUnit)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range unitCh {
				started := rep.unitStart()
				samples, skipped, err := evalUnit(u, ev)
				rep.unitEnd(u, started)
				if err != nil {
					fail(err)
					return
				}
				if ck != nil {
					if err := ck.save(u, samples); err != nil {
						fail(err)
						return
					}
				}
				mu.Lock()
				results[u.index] = samples
				mu.Unlock()
				rep.unitDone(u, samples, skipped, false)
			}
		}()
	}
dispatch:
	for _, u := range pending {
		// Checked first because select picks randomly among ready cases: a
		// cancelled sweep must not keep handing out batches.
		if cctx.Err() != nil {
			break
		}
		select {
		case unitCh <- u:
		case <-cctx.Done():
			break dispatch
		}
	}
	close(unitCh)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		if ck != nil {
			return fmt.Errorf("core: sweep interrupted (%w); completed settings are checkpointed in %s — rerun with the same flags to resume", err, sc.CheckpointDir)
		}
		return fmt.Errorf("core: sweep interrupted: %w", err)
	}
	return nil
}

func selectApps(arch topology.Arch, names []string) ([]*apps.App, error) {
	if names == nil {
		return apps.OnArch(arch), nil
	}
	var out []*apps.App
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		if a.RunsOn(arch) {
			out = append(out, a)
		}
	}
	return out, nil
}
