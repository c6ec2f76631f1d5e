package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"omptune"
	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/report"
	"omptune/internal/sim"
	"omptune/internal/stats"
	"omptune/internal/topology"
)

// reportSections are the 18 section titles omptune.WriteReport prints, with
// the per-layer metric each section's self time is added to.
var reportSections = []struct{ title, metric string }{
	{"Table I: hardware configuration", "report.tables_s"},
	{"Table II: dataset description", "report.tables_s"},
	{"Table III: Wilcoxon run-consistency (Alignment, small)", "report.tables_s"},
	{"Table IV: runtime statistics per run index (Alignment, small)", "report.tables_s"},
	{"Table V: speedup ranges per application and architecture", "report.tables_s"},
	{"Table VI: speedup ranges per application", "report.tables_s"},
	{"Table VII: best performing variables and values", "report.tables_s"},
	{"Q1: upshot potential per architecture", "report.questions_s"},
	{"Q2: variable-set consistency across architectures", "report.questions_s"},
	{"Q3: best variables per architecture", "report.q3_s"},
	{"Q4: worst-performance trends", "report.questions_s"},
	{"Fig 1: Alignment runtime distributions", "report.violins_s"},
	{"Fig 2: influence per application", "report.fig2_s"},
	{"Fig 3: influence per architecture", "report.fig3_s"},
	{"Fig 4: influence per application-architecture", "report.fig4_s"},
	{"Fig 5: BT runtime distributions", "report.violins_s"},
	{"Fig 6: Health runtime distributions", "report.violins_s"},
	{"Fig 7: RSBench runtime distributions", "report.violins_s"},
}

// sectionWriter receives WriteReport's output and turns each section
// header it sees into a span boundary, so the real WriteReport is traced
// section by section from outside: a later change that shares work across
// sections inside WriteReport still shows where the time went.
type sectionWriter struct {
	buf  bytes.Buffer
	rec  *recorder
	open int // span of the section being rendered, -1 before the first header
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	if w.rec != nil && bytes.HasPrefix(p, []byte("\n======== ")) && bytes.HasSuffix(p, []byte(" ========\n")) {
		w.closeSection()
		title := strings.TrimSuffix(strings.TrimPrefix(string(p), "\n======== "), " ========\n")
		w.open = w.rec.begin("report", title)
	}
	return w.buf.Write(p)
}

func (w *sectionWriter) closeSection() {
	if w.open >= 0 {
		w.rec.end(w.open)
		w.open = -1
	}
}

// pipelineTimes are the timed cells of one pipeline pass.
type pipelineTimes struct {
	collect             []time.Duration   // whole Collect calls
	collectCells        [][]time.Duration // per call: time to each setting's completion, then to return
	write, read, report time.Duration
	collectAllocs       uint64
	reportAllocs        uint64
	allocs              uint64 // every timed cell
	samples             int    // collected in the timed Collect calls
	csvBytes            int64
	back                *omptune.Dataset // the dataset as read back from the CSV
}

// pipelinePass is what ompreport does: Collect (sz.collects times), the
// second result to CSV, back from CSV, every table and figure from the
// dataset read back. With verify it also checks every output.
func pipelinePass(r *run, sz sizes, verify bool) (pipelineTimes, error) {
	var pt pipelineTimes
	// OnProgress fires as each (arch, app, setting) batch completes; with one
	// worker the batches run in plan order, so the intervals between events
	// are the cells of a Collect and the repeated calls are its rounds.
	var t0 time.Time
	var cells []time.Duration
	collectOpt := omptune.CollectOptions{Workers: 1, Apps: sz.apps, Fraction: fractions(sz),
		OnProgress: func(omptune.ProgressEvent) {
			now := time.Now()
			cells = append(cells, now.Sub(t0))
			t0 = now
		}}

	var ds *omptune.Dataset
	for i := 0; i < sz.collects; i++ {
		var got *omptune.Dataset
		var err error
		cells = nil
		d, a := r.cell("core", "Collect", func() {
			t0 = time.Now()
			got, err = omptune.Collect(collectOpt)
			cells = append(cells, time.Since(t0))
		})
		if err != nil {
			return pt, fmt.Errorf("Collect: %w", err)
		}
		if i > 0 && len(cells) != len(pt.collectCells[0]) {
			return pt, fmt.Errorf("Collect %d reported %d settings, Collect 0 %d", i, len(cells)-1, len(pt.collectCells[0])-1)
		}
		pt.collect = append(pt.collect, d)
		pt.collectCells = append(pt.collectCells, cells)
		pt.collectAllocs += a
		pt.samples += got.Len()
		if verify && sz.pins != nil {
			v := r.rec.begin("benchmark", "verify")
			r.check(got.Len() == sz.pins.samples, "collect %d: %d samples, pinned %d", i, got.Len(), sz.pins.samples)
			for arch, want := range sz.pins.samplesPerArch {
				n := got.ByArch(arch).Len()
				r.check(n == want, "collect %d: %d samples on %s, pinned %d", i, n, arch, want)
			}
			r.rec.end(v)
		}
		// The second result goes through the rest of the pipeline (the
		// only one, when a reduced or traced pass collects once).
		if i == min(1, sz.collects-1) {
			ds = got
		}
	}
	pt.allocs = pt.collectAllocs

	path := filepath.Join(r.opt.scratch, fmt.Sprintf("dataset-%d-seed%d.csv", os.Getpid(), r.opt.seed))
	defer os.Remove(path)
	var err error
	var a uint64
	pt.write, a = r.cell("dataset", "WriteDatasetCSV", func() { err = writeCSVFile(path, ds) })
	if err != nil {
		return pt, fmt.Errorf("WriteDatasetCSV: %w", err)
	}
	pt.allocs += a
	if fi, statErr := os.Stat(path); statErr == nil {
		pt.csvBytes = fi.Size()
	}

	var back *omptune.Dataset
	pt.read, a = r.cell("dataset", "ReadDatasetCSV", func() { back, err = readCSVFile(path) })
	if err != nil {
		return pt, fmt.Errorf("ReadDatasetCSV: %w", err)
	}
	pt.allocs += a

	sw := &sectionWriter{rec: r.rec, open: -1}
	pt.report, pt.reportAllocs = r.cell("report", "WriteReport", func() {
		err = omptune.WriteReport(sw, back)
		sw.closeSection()
	})
	if err != nil {
		return pt, fmt.Errorf("WriteReport: %w", err)
	}
	pt.allocs += pt.reportAllocs
	pt.back = back

	if verify {
		v := r.rec.begin("benchmark", "verify")
		defer r.rec.end(v)
		verifyRoundTrip(r, ds, back, path)
		text := sw.buf.String()
		for _, s := range reportSections {
			r.check(strings.Contains(text, "\n======== "+s.title+" ========\n"), "report: section %q missing", s.title)
		}
		if sz.pins != nil {
			var cmp bytes.Buffer
			err := report.CompareWithPaper(&cmp, back)
			r.check(err == nil && !strings.Contains(cmp.String(), "DEVIATES"),
				"report.CompareWithPaper: err=%v, DEVIATES rows=%d", err, strings.Count(cmp.String(), "DEVIATES"))
		}
	}
	return pt, nil
}

func writeCSVFile(path string, ds *omptune.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := omptune.WriteDatasetCSV(w, ds); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readCSVFile(path string) (*omptune.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return omptune.ReadDatasetCSV(bufio.NewReaderSize(f, 1<<20))
}

// verifyRoundTrip checks the dataset read back against the collected one,
// sample by sample, one operation each. The CSV keeps ten significant
// digits, so runtimes compare within 1e-9. It also records how many rows a
// second write, of the read-back dataset, renders differently from the file
// the first write left at path: a known property of the format (5 rows on
// the full dataset), not a failure.
func verifyRoundTrip(r *run, ds, back *omptune.Dataset, path string) {
	r.check(ds.Len() == back.Len(), "round trip: %d samples written, %d read", ds.Len(), back.Len())
	n := min(ds.Len(), back.Len())
	for i := 0; i < n; i++ {
		a, b := ds.Samples[i], back.Samples[i]
		ok := a.Arch == b.Arch && a.App == b.App && a.Suite == b.Suite && a.Setting == b.Setting &&
			a.Threads == b.Threads && a.Scale == b.Scale && a.Config == b.Config &&
			a.SourceName() == b.SourceName() && relClose(a.DefaultRuntime, b.DefaultRuntime, 1e-9)
		for k := range a.Runtimes {
			ok = ok && relClose(a.Runtimes[k], b.Runtimes[k], 1e-9)
		}
		r.check(ok, "round trip: sample %d differs: %+v vs %+v", i, *a, *b)
	}
	first, err := os.ReadFile(path)
	var second bytes.Buffer
	if err != nil || omptune.WriteDatasetCSV(&second, back) != nil {
		return
	}
	l1, l2 := bytes.Split(first, []byte("\n")), bytes.Split(second.Bytes(), []byte("\n"))
	differ := 0
	for i := 0; i < min(len(l1), len(l2)); i++ {
		if !bytes.Equal(l1[i], l2[i]) {
			differ++
		}
	}
	fmt.Fprintf(r.out, "note csv_rewrite_rows_differing=%d of %d (byte-level round trip; recorded, not a failure)\n", differ, len(l1))
}

func paperPipeline(r *run) (int, error) {
	// The pipeline is single-threaded code: it is timed on one P, so the
	// collector shares the P with the program and the second vCPU's
	// regimes stay out of the numbers.
	runtime.GOMAXPROCS(1)
	setup := r.rec.begin("benchmark", "setup")
	r.samplePair()
	if _, err := pipelinePass(r, reducedSizes(), false); err != nil {
		return 1, fmt.Errorf("warm-up: %w", err)
	}
	r.rec.end(setup)
	r.endSetup()

	pass := r.rec.begin("benchmark", "pass")
	pt, err := pipelinePass(r, r.sz, true)
	r.rec.end(pass)
	if err != nil {
		return 1, err
	}
	r.samplePair()

	// One Collect, each of its settings at its median over the calls.
	collect := sumOfCellMedians(pt.collectCells)
	r.set("wall_s", collect+pt.write.Seconds()+pt.read.Seconds()+pt.report.Seconds(), nil)
	r.set("work_per_s", float64(pt.samples/len(pt.collect))/collect, perSecond(pt.samples/len(pt.collect), pt.collect))
	r.set("allocs_per_work", float64(pt.allocs)/float64(pt.samples), nil)

	if r.opt.trace {
		r.set("core.sweep_s", collect, seconds(pt.collect))
		r.set("dataset.write_csv_s", pt.write.Seconds(), nil)
		r.set("dataset.read_csv_s", pt.read.Seconds(), nil)
		for _, name := range []string{"report.tables_s", "report.questions_s", "report.q3_s", "report.violins_s",
			"report.fig2_s", "report.fig3_s", "report.fig4_s"} {
			r.set(name, r.rec.selfSeconds(func(s span) bool {
				return s.Layer == "report" && sectionMetric(s.Name) == name
			}), nil)
		}
		r.set("core.sweep_allocs_per_sample", float64(pt.collectAllocs)/float64(pt.samples), nil)
		r.set("report.allocs_per_pass", float64(pt.reportAllocs), nil)
		r.set("dataset.csv_bytes", float64(pt.csvBytes), nil)
		if err := pipelineProbes(r, pt.back); err != nil {
			return 1, err
		}
	}
	return 1, nil
}

func sectionMetric(title string) string {
	for _, s := range reportSections {
		if s.title == title {
			return s.metric
		}
	}
	return ""
}

func perSecond(work int, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(work) / d.Seconds()
	}
	return out
}

// pipelineProbes times single functions of the layers under the pipeline,
// and the checkpointed variant of Collect, in a pass of their own.
func pipelineProbes(r *run, ds *omptune.Dataset) error {
	pass := r.rec.begin("benchmark", "pass:probes")
	defer r.rec.end(pass)

	// The per-architecture influence fit without rendering: what Q3 and
	// Fig 3 spend their time in.
	var err error
	d, _ := r.cell("ml", "InfluenceHeatmap(PerArch)", func() {
		_, err = core.InfluenceHeatmap(ds, core.PerArch, ml.LogisticOptions{})
	})
	if err != nil {
		return err
	}
	r.set("ml.fit_logistic_s", d.Seconds(), nil)

	probeWilcoxon(r)
	probeSimEvaluate(r)
	probeSpaceBuild(r)

	dir := filepath.Join(r.opt.scratch, fmt.Sprintf("checkpoint-%d-seed%d", os.Getpid(), r.opt.seed))
	defer os.RemoveAll(dir)
	ckOpt := omptune.CollectOptions{Workers: 1, CheckpointDir: dir, Apps: r.sz.apps, Fraction: fractions(r.sz)}
	var first, resumed *omptune.Dataset
	d, _ = r.cell("core", "Collect(checkpoint)", func() { first, err = omptune.Collect(ckOpt) })
	if err != nil {
		return err
	}
	r.set("core.checkpoint_write_s", d.Seconds(), nil)
	d, _ = r.cell("core", "Collect(resume)", func() { resumed, err = omptune.Collect(ckOpt) })
	if err != nil {
		return err
	}
	r.set("core.checkpoint_resume_s", d.Seconds(), nil)
	r.check(first.Len() == ds.Len() && resumed.Len() == ds.Len(),
		"checkpoint: %d samples written, %d resumed, %d expected", first.Len(), resumed.Len(), ds.Len())
	return nil
}

// fractions is nil (the Table II fractions) at the benchmark's sizes.
func fractions(sz sizes) map[topology.Arch]float64 {
	if sz.fractionDiv == 1 {
		return nil
	}
	f := core.DefaultFractions()
	for arch := range f {
		f[arch] /= sz.fractionDiv
	}
	return f
}

// probeWilcoxon times stats.Wilcoxon on 4,096 seeded pairs.
func probeWilcoxon(r *run) {
	prepare := r.rec.begin("benchmark", "prepare")
	g := newRNG(r.opt.seed ^ 0x77696c63)
	a, b := make([]float64, 4096), make([]float64, 4096)
	for i := range a {
		a[i] = 1 + g.float()
		b[i] = a[i] * (0.98 + 0.04*g.float())
	}
	r.rec.end(prepare)
	var us []float64
	for i := 0; i < max(50/r.sz.probeDiv, 3); i++ {
		d := r.timed("stats", "Wilcoxon", func() {
			_, err := stats.Wilcoxon(a, b)
			r.check(err == nil, "stats.Wilcoxon: %v", err)
		})
		us = append(us, float64(d.Nanoseconds())/1e3)
	}
	r.set("stats.wilcoxon_us", median(us), us)
}

// simTuple is one argument list of sim.Evaluate.
type simTuple struct {
	m   *topology.Machine
	app *apps.App
	cfg env.Config
	set sim.Setting
	rep int
}

// seededTuples draws n evaluation tuples balanced over machines and apps:
// tuple k takes entry k of seeded permutations, wrapping around.
func seededTuples(g *rng, n int) []simTuple {
	machines := topology.All()
	spaces := make([][]env.Config, len(machines))
	for i, m := range machines {
		spaces[i] = env.Space(m)
	}
	mp := g.perm(len(machines))
	out := make([]simTuple, 0, n)
	for k := 0; k < n; k++ {
		mi := mp[k%len(mp)]
		m := machines[mi]
		on := apps.OnArch(m.Arch)
		app := on[g.intn(len(on))]
		sets := app.Settings(m)
		out = append(out, simTuple{
			m: m, app: app, cfg: spaces[mi][g.intn(len(spaces[mi]))],
			set: sets[k%len(sets)], rep: k % sim.Reps,
		})
	}
	return out
}

// probeSimEvaluate times 100k sim.Evaluate calls over 1,024 seeded tuples,
// five times.
func probeSimEvaluate(r *run) {
	prepare := r.rec.begin("benchmark", "prepare")
	tuples := seededTuples(newRNG(r.opt.seed^0x73696d), 1024)
	r.rec.end(prepare)
	calls := 100_000 / r.sz.probeDiv
	var ns []float64
	sum := 0.0
	for b := 0; b < 5; b++ {
		d := r.timed("sim", "Evaluate x100k", func() {
			for i := 0; i < calls; i++ {
				t := &tuples[i%len(tuples)]
				sum += sim.Evaluate(t.m, t.app.Profile, t.cfg, t.set, t.rep)
			}
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(calls))
	}
	r.check(sum > 0, "sim.Evaluate: runtimes sum to %v", sum)
	r.set("sim.evaluate_ns", median(ns), ns)
}

// probeSpaceBuild times env.Space on the three machines together.
func probeSpaceBuild(r *run) {
	var ms []float64
	for i := 0; i < 5; i++ {
		n := 0
		d := r.timed("env", "Space x3", func() {
			for _, m := range topology.All() {
				n += len(env.Space(m))
			}
		})
		r.check(n == 4608+9216+9216, "env.Space: %d configurations on the three machines", n)
		ms = append(ms, d.Seconds()*1e3)
	}
	r.set("env.space_build_ms", median(ms), ms)
}
