package core

// The Searcher seam: every way of exploring the configuration space — the
// paper's §VI coordinate descent, the random baseline, and the budgeted
// strategies this repo adds (random-restart greedy, simulated annealing,
// surrogate-guided search) — implements one interface over one spec. The
// seam mirrors the Evaluator seam of the measurement layer: strategies are
// interchangeable, share the memoizing evaluation cache, and report every
// evaluation through one campaign ledger (progress.go) to the same telemetry
// stream and live Monitor a sweep uses, so "which search finds the sweep's
// best speedup on the smallest budget" is a fair, instrumented comparison
// instead of five ad-hoc loops.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// Searcher is one budgeted search strategy over the configuration space.
type Searcher interface {
	// Name identifies the strategy ("greedy", "restart", "anneal",
	// "surrogate", "random"); it is stamped on results and telemetry.
	Name() string
	// Search explores spec's space within spec's budget and returns the best
	// configuration found. A canceled ctx stops the search at the next
	// evaluation boundary; the partial result is returned alongside ctx's
	// error.
	Search(ctx context.Context, spec SearchSpec) (SearchResult, error)
}

// SearchBudget bounds a search. Zero values mean "no bound of that kind";
// when both are zero the search gets the legacy default of 200 evaluations,
// matching the pre-seam Tune and RandomSearch budgets.
type SearchBudget struct {
	// MaxEvals caps the number of evaluations (cache hits included — a probe
	// is a probe, so budget accounting is identical across cache states and
	// backends).
	MaxEvals int
	// MaxTime caps the wall-clock duration; the search stops at the first
	// evaluation boundary past the deadline.
	MaxTime time.Duration
}

// SearchSpec carries everything a strategy needs: the problem (machine, app,
// setting, space), the measurement backend, the budget, and the observability
// sinks.
type SearchSpec struct {
	Machine *topology.Machine
	App     *apps.App
	Setting sim.Setting
	// Space is the candidate pool of the space-sampling strategies (random
	// draws, restart starts, surrogate proposals); nil means
	// env.Space(Machine). The descents (greedy, anneal) move along the
	// lattice and never read it.
	Space []env.Config
	// Order is the coordinate order of the greedy descents (most influential
	// first, e.g. a heatmap's features by mean influence); nil means the
	// canonical env.Names() order.
	Order []env.VarName
	// Seed drives every stochastic choice; same seed + deterministic backend
	// means an identical SearchResult.
	Seed uint64
	// Evaluator is the measurement backend; nil means the analytic model.
	Evaluator Evaluator
	Budget    SearchBudget
	// Cache memoizes the evaluation objective across probes (and across
	// searches when shared); nil means a private cache per search.
	Cache *EvalCache
	// TelemetryLog, when non-empty, appends a JSONL stream to this file: one
	// search_plan record, one search_step per evaluation, one terminal
	// search_done (or error) record.
	TelemetryLog string
	// Monitor, when non-nil, receives live gauges (best-so-far speedup,
	// evaluations done, cache hits) and the evaluation-latency histogram;
	// serve it over HTTP with obs.Server.
	Monitor *Monitor
}

// SearchStep records one improvement of the best-so-far configuration.
type SearchStep struct {
	// Eval is the 1-based evaluation index at which the improvement landed.
	Eval int
	// Variable names the move that produced it: a coordinate name for the
	// descent strategies, or the strategy's move kind ("random", "restart",
	// "explore", "surrogate") for space-sampling moves.
	Variable string
	Value    string
	Config   env.Config
	Seconds  float64
	// Speedup is DefaultSeconds / Seconds for this step's configuration.
	Speedup float64
}

// SearchResult is the outcome of one budgeted search.
type SearchResult struct {
	Strategy    string
	Best        env.Config
	BestSeconds float64
	// DefaultSeconds is the default configuration's objective — the
	// denominator of Speedup, comparable to the study's tables.
	DefaultSeconds float64
	// Evaluations counts every probe, including ones answered by the cache;
	// it is the budget the search consumed.
	Evaluations int
	// CacheHits is how many of those probes cost a lookup instead of a
	// backend evaluation.
	CacheHits int
	// Trajectory lists each improvement of the best-so-far configuration in
	// evaluation order.
	Trajectory []SearchStep
}

// Speedup returns the improvement of the best found configuration over the
// default, 0 while no best has a runtime (a default that failed).
func (r SearchResult) Speedup() float64 {
	if !(r.BestSeconds > 0) {
		return 0
	}
	return r.DefaultSeconds / r.BestSeconds
}

// SearchStrategies lists the registered strategy names in presentation
// order.
func SearchStrategies() []string {
	return []string{"greedy", "restart", "anneal", "surrogate", "random"}
}

// NewSearcher resolves a strategy by name; the error of an unknown name
// lists the valid set.
func NewSearcher(name string) (Searcher, error) {
	switch name {
	case "greedy":
		return greedySearcher{}, nil
	case "restart":
		return restartSearcher{}, nil
	case "anneal":
		return annealSearcher{}, nil
	case "surrogate":
		return surrogateSearcher{}, nil
	case "random":
		return randomSearcher{}, nil
	}
	return nil, fmt.Errorf("core: unknown search strategy %q (valid: %s)",
		name, strings.Join(SearchStrategies(), ", "))
}

// legacyDefaultBudget is the pre-seam evaluation budget of Tune and
// RandomSearch, applied when a spec bounds neither evaluations nor time.
const legacyDefaultBudget = 200

// searchState is the shared machinery under every strategy: resolved spec
// defaults, the budget clock, the cache-routed probe, best-so-far tracking,
// and the campaign ledger every probe is reported to.
type searchState struct {
	ctx   context.Context
	spec  SearchSpec
	ev    Evaluator
	cache *EvalCache
	// prob is the search's problem on cache, resolved by init.
	prob boundProblem
	// tab is the candidate pool's table once table has resolved it.
	tab   *configTable
	order []env.VarName
	// coords is order's coordinates once coordinates has resolved them.
	coords []coordinate

	maxEvals int
	deadline time.Time

	res SearchResult
	led *reporter
}

// newSearchState validates spec, applies defaults, opens the telemetry
// stream and plans the search on its ledger led, which starts the clock the
// time budget counts from.
func newSearchState(ctx context.Context, strategy string, spec SearchSpec, led *reporter) (*searchState, error) {
	if spec.Machine == nil || spec.App == nil {
		return nil, fmt.Errorf("core: search %s: machine and app are required", strategy)
	}
	s := &searchState{ctx: ctx, spec: spec, ev: orModel(spec.Evaluator), led: led}
	s.cache = spec.Cache
	if s.cache == nil {
		s.cache = NewEvalCache()
	}
	s.order = spec.Order
	if len(s.order) == 0 {
		s.order = env.Names()
	}
	s.maxEvals = spec.Budget.MaxEvals
	if s.maxEvals <= 0 && spec.Budget.MaxTime <= 0 {
		s.maxEvals = legacyDefaultBudget
	}
	s.res.Strategy = strategy
	if spec.TelemetryLog != "" {
		if err := led.openTelemetry(spec.TelemetryLog, 0); err != nil {
			return nil, err
		}
	}
	start := led.planSearch(s)
	if spec.Budget.MaxTime > 0 {
		s.deadline = start.Add(spec.Budget.MaxTime)
	}
	return s, nil
}

// table returns the candidate pool of the space-sampling strategies: the
// machine's shared table of env.Space, or a table of spec's Space built for
// this search. It is resolved on first use, because the descents (greedy,
// anneal) never sample the pool. Once the machine's table is there, the
// search's problem reads its seeds from it (restart descends before its
// first table call).
func (s *searchState) table() *configTable {
	if s.tab == nil {
		if len(s.spec.Space) == 0 {
			s.tab = machineTable(s.spec.Machine)
			s.prob.readSeeds(s.spec.Machine)
		} else {
			s.tab = newConfigTable(s.spec.Space, env.Default(s.spec.Machine))
			s.tab.aliasRepeats()
		}
	}
	return s.tab
}

// runSearch wraps a strategy body with state setup and teardown; it is the
// single entry path of every Search implementation. Like RunSweep it opens
// the ledger first and finishes it with the error the search returns, so a
// spec the search rejects, or a default configuration that fails, still
// reaches the monitor as a terminal error. The body runs after init.
func runSearch(ctx context.Context, strategy string, spec SearchSpec, body func(*searchState)) (res SearchResult, err error) {
	led := newReporter(nil, spec.Monitor)
	defer func() { led.finish(err) }()
	s, err := newSearchState(ctx, strategy, spec, led)
	if err != nil {
		return SearchResult{}, err
	}
	if err = s.init(); err != nil {
		return s.res, err
	}
	body(s)
	if ctx != nil {
		err = ctx.Err()
	}
	return s.res, err
}

// init measures the default configuration — the first evaluation of every
// strategy and the denominator of every speedup, exactly as the pre-seam
// tuners did. It resolves the search's problem first: its block of the cache
// and, for the model, its sim.Bound. A default whose series fails leaves no
// speedup to search for: init returns an error wrapping the backend's, and
// the search stops after that one evaluation.
func (s *searchState) init() error {
	s.prob = s.cache.bindProblem(s.ev, s.spec.Machine, s.spec.App, s.spec.Setting)
	def := env.Default(s.spec.Machine)
	t0 := s.clock()
	sec, key, hit, err := s.prob.mean(&def, s.prob.pos(&def), "", 0)
	s.res.Evaluations = 1
	if hit {
		s.res.CacheHits++
	}
	s.res.Best, s.res.BestSeconds, s.res.DefaultSeconds = def, sec, sec
	s.observe(&def, key, sec, hit, true, t0)
	if !math.IsNaN(sec) {
		return nil
	}
	if err == nil { // a shared cache remembers an earlier search's failure
		err = errors.New("its series failed on an earlier probe")
	}
	return fmt.Errorf("core: %s search of %s on %s at %s: default configuration: %w",
		s.res.Strategy, s.spec.App.Name, s.spec.Machine.Arch, s.spec.Setting.Label, err)
}

// mean is the cache-routed objective; pos, key and keyHash are as
// boundProblem.mean takes them, and key as it returns it. A failed series is
// reported on the miss that ran it and reads as NaN then and on every
// revisit, so it is counted against the budget like any probe but never
// becomes the best.
func (s *searchState) mean(cfg *env.Config, pos int, key string, keyHash uint64) (sec float64, _ string, hit bool) {
	sec, key, hit, err := s.prob.mean(cfg, pos, key, keyHash)
	if err != nil {
		reportSkipped(err)
	}
	return sec, key, hit
}

// clock returns the start of a probe an observer will time; an unobserved
// search takes no timestamp.
func (s *searchState) clock() time.Time {
	if s.led.unobserved() {
		return time.Time{}
	}
	return time.Now()
}

// observe reports a probe begun at started, which made cfg the best so far
// when improved, to the ledger, building the configuration's key if the
// probe did not need it. An unobserved search builds nothing.
func (s *searchState) observe(cfg *env.Config, key string, sec float64, hit, improved bool, started time.Time) {
	if s.led.unobserved() {
		return
	}
	if key == "" {
		key = cfg.Key()
	}
	s.led.probed(s, key, sec, hit, improved, started)
}

// probe evaluates one candidate, at position pos of the study space (-1
// for none): it spends one budget unit, consults the cache, folds an
// improvement into the best-so-far trajectory (labelled with the move that
// produced it), and reports the probe to the ledger. The caller must have
// checked exhausted() first. The candidate's key is built only if an
// observer watches or a miss needs it: a model miss at a position reads its
// seed from the machine's table once a use has built it.
func (s *searchState) probe(cfg env.Config, pos int, variable, value string) float64 {
	return s.probeKeyed(&cfg, pos, "", 0, variable, value)
}

// probeAt is probe for a move that draws a whole configuration, position i
// of the candidate table: the step is labelled with the table's key, which
// also serves the backend and the observers, and the table's hash of it
// seeds the model.
func (s *searchState) probeAt(i int, move string) float64 {
	return s.probeKeyed(&s.tab.space[i], s.posAt(i), s.tab.keys[i], s.tab.hashes[i], move, s.tab.keys[i])
}

// posAt returns the study-space position of the candidate table's
// configuration i: i itself in the machine's table, which is the study
// space in position order, and looked up in a caller's pool.
func (s *searchState) posAt(i int) int {
	if len(s.spec.Space) == 0 {
		return i
	}
	return s.prob.pos(&s.tab.space[i])
}

func (s *searchState) probeKeyed(cfg *env.Config, pos int, key string, keyHash uint64, variable, value string) float64 {
	t0 := s.clock()
	sec, key, hit := s.mean(cfg, pos, key, keyHash)
	s.res.Evaluations++
	if hit {
		s.res.CacheHits++
	}
	improved := sec < s.res.BestSeconds
	if improved {
		s.res.Best = *cfg
		s.res.BestSeconds = sec
		s.res.Trajectory = append(s.res.Trajectory, SearchStep{
			Eval: s.res.Evaluations, Variable: variable, Value: value,
			Config: *cfg, Seconds: sec, Speedup: s.res.DefaultSeconds / sec,
		})
	}
	s.observe(cfg, key, sec, hit, improved, t0)
	return sec
}

// exhausted reports whether the search must stop: context canceled,
// evaluation budget spent, or deadline passed. Strategies check it before
// every probe, so a search never overdraws its budget.
func (s *searchState) exhausted() bool {
	if s.ctx != nil && s.ctx.Err() != nil {
		return true
	}
	if s.maxEvals > 0 && s.res.Evaluations >= s.maxEvals {
		return true
	}
	if !s.deadline.IsZero() && !time.Now().Before(s.deadline) {
		return true
	}
	return false
}

// progress estimates the consumed budget fraction in [0, 1] — the annealing
// temperature schedule's clock. With both bounds set, the tighter one
// governs.
func (s *searchState) progress() float64 {
	p := 0.0
	if s.maxEvals > 0 {
		p = float64(s.res.Evaluations) / float64(s.maxEvals)
	}
	if !s.deadline.IsZero() && s.spec.Budget.MaxTime > 0 {
		if tp := 1 - time.Until(s.deadline).Seconds()/s.spec.Budget.MaxTime.Seconds(); tp > p {
			p = tp
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}
