package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"omptune/internal/apps"
	"omptune/internal/core"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// searchApps are the three applications searched on each machine: a
// tasking kernel, a loop kernel and a thread-varied proxy.
var searchApps = []string{"Nqueens", "CG", "XSbench"}

// problem is one search problem: an application on a machine at its first
// setting, with the exhaustive sweep's best mean runtime as the reference.
type problem struct {
	m         *topology.Machine
	app       *apps.App
	set       sim.Setting
	sweepBest float64
}

func (p problem) String() string { return fmt.Sprintf("%s/%s/%s", p.m.Arch, p.app.Name, p.set.Label) }

func searchProblems() ([]problem, error) {
	var out []problem
	for _, m := range topology.All() {
		for _, name := range searchApps {
			app, err := apps.ByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, problem{m: m, app: app, set: app.Settings(m)[0]})
		}
	}
	return out, nil
}

// meanRuntime is the searchers' objective: the mean of the repeated model
// evaluations of one configuration.
func meanRuntime(p problem, cfg env.Config) float64 {
	total := 0.0
	for rep := 0; rep < sim.Reps; rep++ {
		total += core.ModelEvaluator{}.Evaluate(p.m, p.app, cfg, p.set, rep)
	}
	return total / sim.Reps
}

// searchJob is one (problem, strategy) search with its derived seed.
type searchJob struct {
	prob     int
	strategy string
	seed     uint64
}

// passResult sums one pass of searches per strategy.
type passResult struct {
	search []time.Duration // per job, indexed like jobs
	time   map[string]time.Duration
	evals  map[string]int
	hits   int
	allocs uint64
	fracs  []float64 // sweep best ÷ best found, per search
}

// searchPass runs jobs in the given order, each against a fresh EvalCache,
// and checks every result.
func searchPass(r *run, probs []problem, jobs []searchJob, order []int, maxEvals int, verify bool) (passResult, error) {
	res := passResult{search: make([]time.Duration, len(jobs)), time: map[string]time.Duration{}, evals: map[string]int{}}
	before := r.mallocs()
	for _, ji := range order {
		job := jobs[ji]
		p := probs[job.prob]
		s, err := core.NewSearcher(job.strategy)
		if err != nil {
			return res, err
		}
		spec := core.SearchSpec{
			Machine: p.m, App: p.app, Setting: p.set, Seed: job.seed,
			Budget: core.SearchBudget{MaxEvals: maxEvals}, Cache: core.NewEvalCache(),
		}
		var out core.SearchResult
		d := r.timed("core", "Search("+job.strategy+")", func() { out, err = s.Search(context.Background(), spec) })
		if err != nil {
			return res, fmt.Errorf("search %s on %s: %w", job.strategy, p, err)
		}
		res.search[ji] = d
		res.time[job.strategy] += d
		res.evals[job.strategy] += out.Evaluations
		res.hits += out.CacheHits
		if verify {
			r.check(out.BestSeconds > 0 && out.BestSeconds <= out.DefaultSeconds && out.Evaluations <= maxEvals,
				"search %s on %s: best %v, default %v, %d evaluations", job.strategy, p, out.BestSeconds, out.DefaultSeconds, out.Evaluations)
			res.fracs = append(res.fracs, p.sweepBest/out.BestSeconds)
		}
	}
	res.allocs = r.mallocs() - before
	return res, nil
}

func (p passResult) totalEvals() int {
	n := 0
	for _, e := range p.evals {
		n += e
	}
	return n
}

func searchTune(r *run) (int, error) {
	// Searches are sequential single-threaded code, timed on one P like
	// the pipeline.
	runtime.GOMAXPROCS(1)
	setup := r.rec.begin("benchmark", "setup")
	r.samplePair()
	probs, err := searchProblems()
	if err != nil {
		return 1, err
	}
	strategies := core.SearchStrategies()

	// Reference for the quality metric and the BestSeconds check: the
	// exhaustive sweep's best mean runtime on each problem.
	for i := range probs {
		best := 0.0
		for _, cfg := range env.Space(probs[i].m) {
			if sec := meanRuntime(probs[i], cfg); best == 0 || sec < best {
				best = sec
			}
		}
		probs[i].sweepBest = best
	}

	// Pins: what each strategy finds on three problems at a fixed seed.
	if pins := r.sz.pins; pins != nil {
		for _, pin := range pins.searchBest {
			p := probs[pin.problem]
			s, err := core.NewSearcher(pin.strategy)
			if err != nil {
				return 1, err
			}
			out, err := s.Search(context.Background(), core.SearchSpec{
				Machine: p.m, App: p.app, Setting: p.set, Seed: pinnedSearchSeed,
				Budget: core.SearchBudget{MaxEvals: r.sz.maxEvals},
			})
			r.check(err == nil && relClose(out.BestSeconds, pin.bestSeconds, 1e-9),
				"pin: %s on %s found %.12g, pinned %.12g (err %v)", pin.strategy, p, out.BestSeconds, pin.bestSeconds, err)
		}
	}

	// Seeds are derived per (problem, strategy) and are the same in every
	// pass, so the passes repeat one cell; the seed also permutes the order
	// of the searches within each pass.
	var jobs []searchJob
	for pi := range probs {
		for _, s := range strategies {
			jobs = append(jobs, searchJob{prob: pi, strategy: s, seed: r.rng.next()})
		}
	}
	// Warm-up pass at two thirds of the budget.
	if _, err := searchPass(r, probs, jobs, r.rng.perm(len(jobs)), 2*r.sz.maxEvals/3, false); err != nil {
		return 1, fmt.Errorf("warm-up: %w", err)
	}
	r.rec.end(setup)
	runtime.GC()
	r.endSetup()

	var passes []passResult
	for i := 0; i < r.sz.searchPasses; i++ {
		span := r.rec.begin("benchmark", "pass")
		res, err := searchPass(r, probs, jobs, r.rng.perm(len(jobs)), r.sz.maxEvals, true)
		r.rec.end(span)
		if err != nil {
			return 1, err
		}
		passes = append(passes, res)
	}
	r.samplePair()

	// The 45 searches are the cells, the passes the rounds. The primary
	// phase is the four strategies whose cost is the search loop, the cache
	// and point-wise model evaluation: everything but the surrogate.
	first := passes[0]
	var all, plain [][]time.Duration
	var walls, allocs, fracs []float64
	for _, p := range passes {
		var pl []time.Duration
		wall := 0.0
		for ji, d := range p.search {
			wall += d.Seconds()
			if jobs[ji].strategy != "surrogate" {
				pl = append(pl, d)
			}
		}
		all, plain = append(all, p.search), append(plain, pl)
		walls = append(walls, wall)
		allocs = append(allocs, float64(p.allocs)/float64(p.totalEvals()))
		fracs = append(fracs, p.fracs...)
	}
	plainEvals := first.totalEvals() - first.evals["surrogate"]
	for i, p := range passes {
		r.check(p.totalEvals() == first.totalEvals() && p.hits == first.hits,
			"pass %d made %d evaluations (%d hits), pass 0 made %d (%d)", i, p.totalEvals(), p.hits, first.totalEvals(), first.hits)
	}
	fmt.Fprintf(r.out, "note evaluations_per_pass=%d cache_hits_per_pass=%d searches_per_pass=%d\n", first.totalEvals(), first.hits, len(jobs))
	r.set("wall_s", sumOfCellMedians(all), walls)
	r.set("work_per_s", float64(plainEvals)/sumOfCellMedians(plain), nil)
	r.set("allocs_per_work", median(allocs), allocs)

	if r.opt.trace {
		for _, s := range strategies {
			var us []float64
			for _, p := range passes {
				us = append(us, float64(p.time[s].Nanoseconds())/1e3/float64(p.evals[s]))
			}
			r.set("core.search_us_per_eval."+s, median(us), us)
		}
		r.set("core.evalcache_hit_share", float64(first.hits)/float64(first.totalEvals()), nil)
		r.set("core.search_allocs_per_eval", median(allocs), allocs)
		r.set("core.search_best_frac_geomean", geomean(fracs), nil)
		span := r.rec.begin("benchmark", "pass:probes")
		probeForest(r, probs[0])
		probeEvalCache(r, probs[0])
		probeSimEvaluate(r)
		r.rec.end(span)
	}
	return 1, nil
}

// probeForest times the surrogate's model at the size it reaches at the
// end of a 300-evaluation search: 12 trees on 300 rows of the 7 features.
func probeForest(r *run, p problem) {
	prepare := r.rec.begin("benchmark", "prepare")
	g := newRNG(r.opt.seed ^ 0x666f72)
	space := env.Space(p.m)
	names := env.Names()
	var x [][]float64
	var y []float64
	def := meanRuntime(p, env.Default(p.m))
	for i := 0; i < 300; i++ {
		cfg := space[g.intn(len(space))]
		row := make([]float64, len(names))
		for k, v := range names {
			row[k] = cfg.Feature(v)
		}
		x = append(x, row)
		y = append(y, meanRuntime(p, cfg)/def)
	}
	r.rec.end(prepare)
	var fit, predict []float64
	for i := 0; i < max(9/r.sz.probeDiv, 3); i++ {
		var forest *ml.RegForest
		var err error
		d := r.timed("ml", "FitRegForest", func() {
			forest, err = ml.FitRegForest(x, y, 12, ml.TreeOptions{MaxDepth: 6, MinLeaf: 2, Seed: uint64(i)})
		})
		r.check(err == nil, "ml.FitRegForest: %v", err)
		if err != nil {
			return
		}
		fit = append(fit, d.Seconds()*1e3)
		sum := 0.0
		d = r.timed("ml", "PredictStd x300", func() {
			for _, row := range x {
				mu, sd := forest.PredictStd(row)
				sum += mu + sd
			}
		})
		r.check(sum > 0, "ml.PredictStd: predictions sum to %v", sum)
		predict = append(predict, float64(d.Nanoseconds())/1e3/float64(len(x)))
	}
	r.set("ml.forest_fit_ms", median(fit), fit)
	r.set("ml.forest_predict_us", median(predict), predict)
}

// probeEvalCache times the hit path of the string-keyed evaluation cache:
// 1,024 seeded configurations stored once, then looked up 100k times.
func probeEvalCache(r *run, p problem) {
	prepare := r.rec.begin("benchmark", "prepare")
	g := newRNG(r.opt.seed ^ 0x6361636865)
	space := env.Space(p.m)
	cfgs := make([]env.Config, 1024)
	for i := range cfgs {
		cfgs[i] = space[g.intn(len(space))]
	}
	cache := core.NewEvalCache()
	for _, c := range cfgs {
		cache.Mean(core.ModelEvaluator{}, p.m, p.app, c, p.set)
	}
	r.rec.end(prepare)
	lookups := 100_000 / r.sz.probeDiv
	var ns []float64
	for b := 0; b < 5; b++ {
		before := cache.Hits()
		d := r.timed("core", "EvalCache.Mean hit x100k", func() {
			for i := 0; i < lookups; i++ {
				cache.Mean(core.ModelEvaluator{}, p.m, p.app, cfgs[i%len(cfgs)], p.set)
			}
		})
		r.check(cache.Hits()-before == int64(lookups), "EvalCache: %d hits in %d lookups", cache.Hits()-before, lookups)
		ns = append(ns, float64(d.Nanoseconds())/float64(lookups))
	}
	r.set("core.evalcache_hit_ns", median(ns), ns)
}
