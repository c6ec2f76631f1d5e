package main

import (
	"fmt"
	"runtime"
	"time"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/measure"
	"omptune/internal/topology"
	"omptune/openmp"
)

const configsPerKernel = 4

// series is one measured kernel series: an application under one
// configuration, warm-up 1, sz.kernelReps timed reps on one runtime.
type series struct {
	app int // index into apps.All()
	cfg env.Config

	optionsTime time.Duration // cfg.RuntimeOptions(m)
	newClose    time.Duration // openmp.New + Close
	res         measure.Series
	final       openmp.Stats // after Close
}

// balancedConfigs draws the four configurations of one kernel. Schedule,
// reduction method and places take each value of their four-value domains
// once, KMP_LIBRARY each value twice, in seeded order. Of the two
// throughput configurations exactly one gets KMP_BLOCKTIME=0 (the one that
// parks), so every kernel runs one parking and three spinning series
// whatever the seed: a uniform draw made the metrics depend on the seed
// more than on the machine. The other variables take entry k of a seeded
// permutation of their domain.
func balancedConfigs(g *rng, m *topology.Machine) []env.Config {
	names := env.Names()
	perms := make(map[env.VarName][]int, len(names))
	for _, v := range names {
		perms[v] = g.perm(len(env.Values(m, v)))
	}
	parkSlot := g.intn(2) // which of the two throughput configurations parks
	cfgs := make([]env.Config, configsPerKernel)
	throughputSeen := 0
	for k := range cfgs {
		cfg := env.Default(m)
		for _, v := range names {
			vals := env.Values(m, v)
			var err error
			if cfg, err = cfg.Set(v, vals[perms[v][k%len(vals)]]); err != nil {
				panic(err) // the value comes from the variable's own domain
			}
		}
		if cfg.Library == env.LibThroughput {
			if throughputSeen == parkSlot {
				cfg.BlocktimeMS = 0
			} else if cfg.BlocktimeMS == 0 {
				cfg.BlocktimeMS = env.DefaultBlocktimeMS
			}
			throughputSeen++
		}
		cfgs[k] = cfg
	}
	return cfgs
}

// runSeries measures one series the way the measured backend does:
// RuntimeOptions, New, measure.Run, Close.
func runSeries(r *run, m *topology.Machine, app *apps.App, s *series, threads int, scale float64, reps int) error {
	var opts openmp.Options
	s.optionsTime = r.timed("env", "RuntimeOptions", func() {
		opts = s.cfg.RuntimeOptions(m)
		opts.NumThreads = threads
	})
	var rt *openmp.Runtime
	var err error
	s.newClose = r.timed("openmp", "New", func() { rt, err = openmp.New(opts) })
	if err != nil {
		return fmt.Errorf("openmp.New for %s under %s: %w", app.Name, s.cfg.Key(), err)
	}
	r.timed("measure", "Run("+app.Name+")", func() { s.res = measure.Run(rt, app.Kernel, scale, 1, reps) })
	s.newClose += r.timed("openmp", "Close", rt.Close)
	s.final = rt.Stats()
	return nil
}

func sumSeconds(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func measuredKernels(r *run) (int, error) {
	runtime.GOMAXPROCS(r.threads)
	setup := r.rec.begin("benchmark", "setup")
	r.samplePair()
	m := topology.MustGet(topology.A64FX) // the one machine all 15 applications ran on
	all := apps.All()
	scale := func(app *apps.App) float64 { return kernelScale[app.Name] * r.sz.scaleMul }

	// Single-threaded references under the default configuration: the
	// checksum every series must reproduce, and the plain serial baseline
	// of apps.speedup_geomean (three times the reps of a timed series).
	refSum := make([]float64, len(all))
	refTime := make([]float64, len(all))
	for i, app := range all {
		s := &series{app: i, cfg: env.Default(m)}
		if err := runSeries(r, m, app, s, 1, scale(app), 3*r.sz.kernelReps); err != nil {
			return r.threads, err
		}
		refSum[i], refTime[i] = s.res.Checksum, median(s.res.Runtimes)
		if pins := r.sz.pins; pins != nil {
			r.check(relClose(refSum[i], pins.kernelChecksum[app.Name], 1e-12),
				"pin: %s serial checksum %.17g, pinned %.17g", app.Name, refSum[i], pins.kernelChecksum[app.Name])
		}
	}

	var all60 []*series
	for i := range all {
		for _, cfg := range balancedConfigs(r.rng, m) {
			all60 = append(all60, &series{app: i, cfg: cfg})
		}
	}
	// Warm-up pass, reduced to one rep: every kernel once on a full team.
	for i, app := range all {
		s := &series{app: i, cfg: env.Default(m)}
		if err := runSeries(r, m, app, s, r.threads, scale(app), 1); err != nil {
			return r.threads, fmt.Errorf("warm-up: %w", err)
		}
	}
	order := r.rng.perm(len(all60))
	r.rec.end(setup)
	runtime.GC()
	r.endSetup()

	// The timed section: New, warm-up, reps and Close of all 60 series.
	pass := r.rec.begin("benchmark", "pass")
	before := r.mallocs()
	t0 := time.Now()
	for _, j := range order {
		s := all60[j]
		if err := runSeries(r, m, all[s.app], s, r.threads, scale(all[s.app]), r.sz.kernelReps); err != nil {
			return r.threads, err
		}
	}
	section := time.Since(t0)
	allocs := r.mallocs() - before
	r.rec.end(pass)
	r.samplePair()

	perApp := make([]float64, len(all))
	var medians, speedups, newClose, optionsUS []float64
	var total, repZero openmp.Stats
	timedReps, failures := 0.0, 0
	countsRepeat := true
	for _, s := range all60 {
		app := all[s.app]
		med := median(s.res.Runtimes)
		medians = append(medians, med)
		perApp[s.app] += med * 1e3
		speedups = append(speedups, refTime[s.app]/med)
		newClose = append(newClose, float64(s.newClose.Nanoseconds())/1e3)
		optionsUS = append(optionsUS, float64(s.optionsTime.Nanoseconds())/1e3)
		timedReps += sumSeconds(s.res.Runtimes)

		ok := relClose(s.res.Checksum, refSum[s.app], 1e-9)
		if !ok {
			failures++
		}
		r.check(ok, "%s under %s: checksum %.17g, one-thread reference %.17g", app.Name, s.cfg.Key(), s.res.Checksum, refSum[s.app])
		r.check(len(s.res.Runtimes) == r.sz.kernelReps && med > 0, "%s: %d reps, median %v", app.Name, len(s.res.Runtimes), med)
		r.check(s.final.Sleeps == s.final.Wakeups, "%s under %s: after Close %d sleeps, %d wakeups",
			app.Name, s.cfg.Key(), s.final.Sleeps, s.final.Wakeups)

		total = addStats(total, s.final)
		repZero = addStats(repZero, s.res.RepStats[0])
		for _, rs := range s.res.RepStats {
			if rs.Regions != s.res.RepStats[0].Regions || rs.Chunks != s.res.RepStats[0].Chunks || rs.TasksRun != s.res.RepStats[0].TasksRun {
				countsRepeat = false
			}
		}
	}
	r.check(countsRepeat, "regions, chunks and tasks run differ between the reps of a series")

	wall := sumSeconds(medians)
	r.set("wall_s", wall, medians)
	r.set("work_per_s", float64(len(all60))/section.Seconds(), nil)
	r.set("allocs_per_work", float64(allocs)/float64(len(all60)), nil)

	if r.opt.trace {
		for i, app := range all {
			r.set("apps.kernel_ms."+app.Name, perApp[i], nil)
		}
		r.set("apps.speedup_geomean", geomean(speedups), speedups)
		r.set("openmp.steal_share", ratio(float64(total.TasksStolen), float64(total.TasksRun)), nil)
		r.set("openmp.sleeps_per_region", ratio(float64(total.Sleeps), float64(total.Regions)), nil)
		r.set("openmp.new_close_us", median(newClose), newClose)
		r.set("measure.harness_share", 1-timedReps/section.Seconds(), nil)
		r.set("env.runtime_options_us", median(optionsUS), optionsUS)
		r.set("openmp.regions", float64(repZero.Regions), nil)
		r.set("openmp.chunks", float64(repZero.Chunks), nil)
		r.set("openmp.tasks_run", float64(repZero.TasksRun), nil)
		r.set("apps.checksum_failures", float64(failures), nil)
	}
	return r.threads, nil
}

func addStats(a, b openmp.Stats) openmp.Stats {
	a.Regions += b.Regions
	a.Sleeps += b.Sleeps
	a.Wakeups += b.Wakeups
	a.TasksRun += b.TasksRun
	a.TasksStolen += b.TasksStolen
	a.Chunks += b.Chunks
	return a
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
