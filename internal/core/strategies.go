package core

// The five built-in search strategies behind the Searcher seam. Two replay
// the pre-seam tuners move for move (greedy coordinate descent, uniform
// random sampling — the compatibility wrappers in tune.go and extensions.go
// depend on byte-identical results under the analytic backend), three are
// the budgeted additions: random-restart greedy, simulated annealing over
// lattice neighbor moves, and surrogate-guided search proposing
// expected-improvement candidates from a regression forest fitted on the
// samples gathered so far.

import (
	"context"
	"math"

	"omptune/internal/env"
	"omptune/internal/ml"
)

// lcgRand is the deterministic PRNG every strategy draws from: the
// splitmix-style seeding and LCG advance used throughout the repo. The
// random strategy's stream reproduces the pre-seam RandomSearch exactly.
type lcgRand uint64

func newLCG(seed uint64) *lcgRand {
	s := lcgRand(seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	return &s
}

// next advances the generator and returns 31 uniform bits.
func (r *lcgRand) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 33
}

func (r *lcgRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *lcgRand) float() float64 { return float64(r.next()) / (1 << 31) }

// greedyPasses is the pass cap of one coordinate descent, from the pre-seam
// Tune loop.
const greedyPasses = 4

// coordinate is one variable the descents move along: its name, the
// spellings of its swept domain on the search's machine and its stride in
// the study space. A move assigns the k-th value by index
// (env.Config.SetIndex); the spelling only labels the step.
type coordinate struct {
	v      env.VarName
	vals   []string
	stride int
}

// coordinates returns s.order's coordinates, resolved on first use (after
// init): a search spells each domain once.
func (s *searchState) coordinates() []coordinate {
	if s.coords == nil {
		s.coords = make([]coordinate, len(s.order))
		for i, v := range s.order {
			s.coords[i] = coordinate{v, env.Values(s.spec.Machine, v), s.prob.blk.space.stride(v)}
		}
	}
	return s.coords
}

// moved returns the study-space position of cand, the configuration at
// position pos with coordinate c moved from index at to k: carried from pos
// by c's stride, so a descent probe scans no domain, or looked up when the
// configuration moved from lies outside the space (pos -1), which cand may
// not.
func (s *searchState) moved(pos int, c coordinate, at, k int, cand *env.Config) int {
	if pos < 0 {
		return s.prob.pos(cand)
	}
	return pos + (k-at)*c.stride
}

// movesFrom decides once which moves from start give a configuration
// Validate accepts, since every swept value is valid: all of them when start
// is valid; otherwise only the moves of the coordinate only, the one field
// Validate rejects ("" when it rejects two, or one no coordinate moves).
// A descent that accepts a move stands on a valid configuration from then on.
func (s *searchState) movesFrom(start env.Config) (all bool, only env.VarName) {
	m := s.spec.Machine
	if start.Validate(m) == nil {
		return true, ""
	}
	for _, c := range s.coordinates() {
		if len(c.vals) > 0 && start.SetIndex(m, c.v, 0).Validate(m) == nil {
			return false, c.v
		}
	}
	return false, ""
}

// descend runs coordinate descent from (cur, curSec): vary one variable at a
// time in s.order, keep the best value before moving on, stop after a full
// pass without improvement, a spent budget, or greedyPasses passes. Global
// best-so-far tracking rides inside probe; cur tracks the local incumbent,
// which for a descent started at the global best makes the two identical —
// the pre-seam Tune semantics. The descent derives cur's position once and
// carries it from move to move.
func (s *searchState) descend(cur env.Config, curSec float64) (env.Config, float64) {
	m := s.spec.Machine
	all, only := s.movesFrom(cur)
	pos := s.prob.pos(&cur)
	for pass := 0; pass < greedyPasses; pass++ {
		improved := false
		for _, c := range s.coordinates() {
			if !all && c.v != only {
				continue
			}
			at := cur.Index(m, c.v)
			for k, val := range c.vals {
				if k == at {
					continue
				}
				if s.exhausted() {
					return cur, curSec
				}
				cand := cur.SetIndex(m, c.v, k)
				candPos := s.moved(pos, c, at, k, &cand)
				if t := s.probe(cand, candPos, string(c.v), val); t < curSec {
					cur, pos, curSec, at = cand, candPos, t, k
					improved, all = true, true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur, curSec
}

// greedySearcher is the paper's §VI pruned coordinate descent.
type greedySearcher struct{}

func (greedySearcher) Name() string { return "greedy" }

func (greedySearcher) Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	return runSearch(ctx, "greedy", spec, func(s *searchState) {
		s.descend(s.res.Best, s.res.BestSeconds)
	})
}

// randomSearcher is the uniform-sampling baseline.
type randomSearcher struct{}

func (randomSearcher) Name() string { return "random" }

func (randomSearcher) Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	return runSearch(ctx, "random", spec, func(s *searchState) {
		rng := newLCG(spec.Seed)
		n := len(s.table().space)
		for !s.exhausted() {
			s.probeAt(rng.intn(n), "random")
		}
	})
}

// restartSearcher escapes coordinate descent's local optima by rerunning the
// descent from random starting configurations until the budget runs out,
// keeping the best end point across restarts.
type restartSearcher struct{}

func (restartSearcher) Name() string { return "restart" }

func (restartSearcher) Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	return runSearch(ctx, "restart", spec, func(s *searchState) {
		s.descend(s.res.Best, s.res.BestSeconds)
		rng := newLCG(spec.Seed ^ hash64("restart"))
		t := s.table()
		for !s.exhausted() {
			i := rng.intn(len(t.space))
			sec := s.probeAt(i, "restart")
			if s.exhausted() {
				return
			}
			s.descend(t.space[i], sec)
		}
	})
}

// Annealing temperature schedule: geometric decay from a 10% relative
// worsening being readily accepted down to 0.1% by the end of the budget.
const (
	annealT0 = 0.10
	annealT1 = 0.001
)

// annealSearcher is simulated annealing over single-variable neighbor moves
// in the configuration lattice: a worse candidate is accepted with
// probability exp(-relative-worsening / T), with T cooling on the budget
// clock, so early exploration hands over to late exploitation.
type annealSearcher struct{}

func (annealSearcher) Name() string { return "anneal" }

func (annealSearcher) Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	return runSearch(ctx, "anneal", spec, func(s *searchState) {
		rng := newLCG(spec.Seed ^ hash64("anneal"))
		m := spec.Machine
		coords := s.coordinates()
		cur, curSec := s.res.Best, s.res.BestSeconds
		pos := s.prob.pos(&cur)
		all, only := s.movesFrom(cur)
		misses := 0
		for !s.exhausted() {
			c := coords[rng.intn(len(coords))]
			k := rng.intn(len(c.vals))
			at := cur.Index(m, c.v)
			if at == k || !all && c.v != only {
				// Degenerate corner guard: a lattice point with no drawable
				// valid neighbor would otherwise spin without spending budget.
				if misses++; misses > 64 {
					return
				}
				continue
			}
			misses = 0
			cand := cur.SetIndex(m, c.v, k)
			candPos := s.moved(pos, c, at, k, &cand)
			t := s.probe(cand, candPos, string(c.v), c.vals[k])
			if t < curSec {
				cur, pos, curSec, all = cand, candPos, t, true
				continue
			}
			temp := annealT0 * math.Pow(annealT1/annealT0, s.progress())
			if rel := (t - curSec) / curSec; rng.float() < math.Exp(-rel/temp) {
				cur, pos, curSec, all = cand, candPos, t, true
			}
		}
	})
}

// Surrogate-search shape: a short random warm-up, then rounds of fitting a
// regression forest on all samples so far and probing the top
// expected-improvement candidates from a random pool.
const (
	surrogateWarmup = 16
	surrogateTrees  = 12
	surrogatePool   = 256
	surrogateBatch  = 8
)

// surrogateSearcher is model-guided search: fit internal/ml regression trees
// on (configuration features → normalized runtime) samples gathered so far
// and evaluate the configurations with the highest expected improvement,
// using the forest's ensemble spread as the uncertainty estimate.
type surrogateSearcher struct{}

func (surrogateSearcher) Name() string { return "surrogate" }

func (surrogateSearcher) Search(ctx context.Context, spec SearchSpec) (SearchResult, error) {
	return runSearch(ctx, "surrogate", spec, func(s *searchState) {
		surrogateSearch(s)
	})
}

// indexSet is a set of positions in a configuration table.
type indexSet []uint64

func newIndexSet(n int) indexSet { return make(indexSet, (n+63)/64) }

func (s indexSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s indexSet) add(i int) { s[i/64] |= 1 << (i % 64) }

// surrogateSearch runs the surrogate strategy on s, whose default
// configuration has been measured, and returns the table positions it
// probed (the default's included when the pool holds it) and the forest's
// training rows: the default's and those of the probes that returned a
// runtime. A position stands for the first one holding its configuration.
func surrogateSearch(s *searchState) (seen indexSet, x [][]float64, y []float64) {
	rng := newLCG(s.spec.Seed ^ hash64("surrogate"))
	t := s.table()
	n := len(t.space)
	seen = newIndexSet(n)
	// add records a probe of position i. A failed one (NaN seconds) is
	// seen, so it is never proposed again, but train makes it no training
	// row: a NaN target would make every tree whose bootstrap draws it a
	// NaN leaf, and every prediction NaN.
	train := func(row []float64, sec float64) {
		if norm := sec / s.res.DefaultSeconds; !math.IsNaN(norm) {
			x = append(x, row)
			y = append(y, norm)
		}
	}
	add := func(i int, sec float64) {
		seen.add(i)
		train(t.row(i), sec)
	}
	if t.defIdx >= 0 {
		add(t.defIdx, s.res.DefaultSeconds)
	} else { // a pool without the default still trains on it
		train(featureRow(t.defCfg, make([]float64, len(tableFeatures))), s.res.DefaultSeconds)
	}
	// drawUnseen probes one fresh random configuration — the warm-up move
	// and the fallback when the model round has nothing new to propose.
	drawUnseen := func() {
		if i := t.canon(rng.intn(n)); !seen.has(i) {
			add(i, s.probeAt(i, "explore"))
		}
	}
	for i := 0; i < surrogateWarmup && !s.exhausted(); i++ {
		drawUnseen()
	}
	type scored struct {
		i  int
		ei float64
	}
	inPool := newIndexSet(n)
	top := make([]scored, 0, surrogateBatch)
	idle := 0
	for !s.exhausted() {
		before := s.res.Evaluations
		forest, err := ml.FitRegForest(x, y, surrogateTrees,
			ml.TreeOptions{MaxDepth: 6, MinLeaf: 2, Seed: s.spec.Seed + uint64(len(y))})
		if err != nil {
			drawUnseen()
		} else {
			bestNorm := s.res.BestSeconds / s.res.DefaultSeconds
			clear(inPool)
			top = top[:0]
			for range surrogatePool {
				i := t.canon(rng.intn(n))
				if seen.has(i) || inPool.has(i) {
					continue
				}
				inPool.add(i)
				mu, sd := forest.PredictStd(t.row(i))
				// Keep the surrogateBatch best by EI, ties in draw order:
				// exactly the prefix a stable sort of the pool would give.
				c := scored{i, expectedImprovement(bestNorm, mu, sd)}
				p := len(top)
				for p > 0 && top[p-1].ei < c.ei {
					p--
				}
				if p < surrogateBatch {
					top = append(top[:min(len(top), surrogateBatch-1)], scored{})
					copy(top[p+1:], top[p:])
					top[p] = c
				}
			}
			if len(top) == 0 {
				drawUnseen()
			}
			for _, p := range top {
				if s.exhausted() {
					return seen, x, y
				}
				add(p.i, s.probeAt(p.i, "surrogate"))
			}
		}
		// A space smaller than the budget eventually leaves nothing
		// unseen; stop instead of spinning on empty rounds.
		if s.res.Evaluations == before {
			if idle++; idle > 32 {
				return seen, x, y
			}
		} else {
			idle = 0
		}
	}
	return seen, x, y
}

// expectedImprovement is the standard EI acquisition for minimization: how
// much below the incumbent best the surrogate expects a candidate to land,
// integrating over its predictive uncertainty. With zero spread it
// degenerates to the plain predicted improvement.
func expectedImprovement(best, mu, sd float64) float64 {
	if sd <= 0 {
		if d := best - mu; d > 0 {
			return d
		}
		return 0
	}
	z := (best - mu) / sd
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	pdf := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	return float64((best-mu)*cdf) + float64(sd*pdf)
}
