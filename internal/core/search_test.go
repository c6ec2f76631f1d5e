package core

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"omptune/internal/apps"
	"omptune/internal/dataset"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
	"omptune/openmp"
)

// legacyStep and legacyResult are the pre-seam result shape the two
// reference copies below return.
type legacyStep struct {
	Variable env.VarName
	Value    string
	Seconds  float64
}

type legacyResult struct {
	Best           env.Config
	BestSeconds    float64
	DefaultSeconds float64
	Evaluations    int
	Trace          []legacyStep
}

// legacyMean is the objective the legacy copies below measure with, as the
// pre-seam code computed it: one EvaluateSeries of the backend, unbound.
func legacyMean(ev Evaluator, m *topology.Machine, app *apps.App, cfg env.Config, key string, set sim.Setting) (float64, error) {
	series, _, err := ev.EvaluateSeries(m, app, cfg, key, set)
	if err != nil {
		return math.NaN(), err
	}
	return (&dataset.Sample{Runtimes: series}).MeanRuntime(), nil
}

// asLegacy projects a SearchResult onto the pre-seam shape, field for field.
func asLegacy(r SearchResult) legacyResult {
	l := legacyResult{Best: r.Best, BestSeconds: r.BestSeconds, DefaultSeconds: r.DefaultSeconds, Evaluations: r.Evaluations}
	for _, st := range r.Trajectory {
		l.Trace = append(l.Trace, legacyStep{Variable: env.VarName(st.Variable), Value: st.Value, Seconds: st.Seconds})
	}
	return l
}

// legacyTune is a verbatim copy of the pre-seam Tune implementation; the
// golden tests hold the seam's greedy strategy byte-identical to it under
// the analytic backend.
func legacyTune(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, order []env.VarName, budget int) legacyResult {
	if budget <= 0 {
		budget = 200
	}
	if len(order) == 0 {
		for _, v := range env.Names() {
			order = append(order, v)
		}
	}
	ev = orModel(ev)
	measure := func(cfg env.Config) float64 {
		sec, _ := legacyMean(ev, m, app, cfg, cfg.Key(), set)
		return sec
	}
	res := legacyResult{Best: env.Default(m)}
	res.DefaultSeconds = measure(res.Best)
	res.BestSeconds = res.DefaultSeconds
	res.Evaluations = 1
	for pass := 0; pass < 4; pass++ {
		improvedThisPass := false
		for _, v := range order {
			for _, val := range env.Values(m, v) {
				if res.Best.Value(v) == val {
					continue
				}
				cand, err := res.Best.Set(v, val)
				if err != nil || cand.Validate(m) != nil {
					continue
				}
				if res.Evaluations >= budget {
					return res
				}
				t := measure(cand)
				res.Evaluations++
				if t < res.BestSeconds {
					res.Best = cand
					res.BestSeconds = t
					res.Trace = append(res.Trace, legacyStep{Variable: v, Value: val, Seconds: t})
					improvedThisPass = true
				}
			}
		}
		if !improvedThisPass {
			break
		}
	}
	return res
}

// legacyRandomSearch is a verbatim copy of the pre-seam RandomSearch.
func legacyRandomSearch(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, budget int, seedVal uint64) legacyResult {
	if budget <= 0 {
		budget = 200
	}
	ev = orModel(ev)
	measure := func(cfg env.Config) float64 {
		sec, _ := legacyMean(ev, m, app, cfg, cfg.Key(), set)
		return sec
	}
	space := env.Space(m)
	res := legacyResult{Best: env.Default(m)}
	res.DefaultSeconds = measure(res.Best)
	res.BestSeconds = res.DefaultSeconds
	res.Evaluations = 1
	state := seedVal*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for res.Evaluations < budget {
		state = state*6364136223846793005 + 1442695040888963407
		cfg := space[int((state>>33)%uint64(len(space)))]
		t := measure(cfg)
		res.Evaluations++
		if t < res.BestSeconds {
			res.Best = cfg
			res.BestSeconds = t
			res.Trace = append(res.Trace, legacyStep{Variable: "random", Value: cfg.Key(), Seconds: t})
		}
	}
	return res
}

func searchApp(t *testing.T, arch topology.Arch, name string) (*topology.Machine, *apps.App, sim.Setting) {
	t.Helper()
	m := topology.MustGet(arch)
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m, app, app.Settings(m)[0]
}

// randomSearch runs the "random" strategy on the given backend with an
// evaluation budget and a seed, nothing else set.
func randomSearch(t testing.TB, ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting, budget int, seed uint64) SearchResult {
	t.Helper()
	s, err := NewSearcher("random")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Seed: seed,
		Evaluator: ev, Budget: SearchBudget{MaxEvals: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTuneMatchesLegacyGolden is the compatibility-wrapper guarantee of the
// seam refactor: Tune results are byte-identical to the pre-seam
// implementation under the analytic backend, across apps, architectures,
// orders and budgets (including budget exhaustion mid-pass).
func TestTuneMatchesLegacyGolden(t *testing.T) {
	cases := []struct {
		arch   topology.Arch
		app    string
		order  []env.VarName
		budget int
	}{
		{topology.A64FX, "Nqueens", nil, 150},
		{topology.A64FX, "Nqueens", nil, 17}, // exhausts mid-pass
		{topology.Skylake, "XSbench", nil, 0},
		{topology.Milan, "Sort", []env.VarName{env.VarLibrary, env.VarBlocktime}, 25},
		{topology.Milan, "CG", nil, 60},
	}
	for _, c := range cases {
		m, app, set := searchApp(t, c.arch, c.app)
		want := legacyTune(nil, m, app, set, c.order, c.budget)
		got := asLegacy(mustTune(t, nil, m, app, set, c.order, c.budget))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s budget %d: Tune diverged from legacy:\n got %+v\nwant %+v",
				c.arch, c.app, c.budget, got, want)
		}
	}
}

// stringDescend is a frozen copy of the descent as it spelled and parsed
// every candidate and validated each one: the reference descend is held to.
func (s *searchState) stringDescend(cur env.Config, curSec float64) (env.Config, float64) {
	for pass := 0; pass < greedyPasses; pass++ {
		improved := false
		for _, v := range s.order {
			for _, val := range env.Values(s.spec.Machine, v) {
				if cur.Value(v) == val {
					continue
				}
				cand, err := cur.Set(v, val)
				if err != nil || cand.Validate(s.spec.Machine) != nil {
					continue
				}
				if s.exhausted() {
					return cur, curSec
				}
				if t := s.probe(cand, s.prob.pos(&cand), string(v), val); t < curSec {
					cur, curSec = cand, t
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cur, curSec
}

// TestDescendMatchesStringPath holds the index moves to the string path
// from the starts a caller's pool can hand restart: valid values outside the
// swept domain, one field Validate rejects (only moves that overwrite it
// are probed), two (none are), under the full order and a partial one. The
// end point, every probe the backend is asked for, in order, and the whole
// result must agree.
func TestDescendMatchesStringPath(t *testing.T) {
	m, app, set := searchApp(t, topology.Milan, "CG")
	def := env.Default(m)
	var starts []env.Config
	for _, f := range []func(*env.Config){
		func(*env.Config) {},
		func(c *env.Config) {
			c.Places, c.Library, c.BlocktimeMS = topology.PlaceThreads, openmp.LibSerial, 1000
		},
		func(c *env.Config) { c.Places = topology.PlaceKind(99) },
		func(c *env.Config) { c.Schedule = openmp.ScheduleKind(-3) },
		func(c *env.Config) { c.BlocktimeMS = -5 },
		func(c *env.Config) { c.AlignAlloc = 96 },
		func(c *env.Config) { c.AlignAlloc, c.ProcBind = 96, openmp.BindPolicy(42) },
	} {
		c := def
		f(&c)
		starts = append(starts, c)
	}
	for _, order := range [][]env.VarName{nil, {env.VarAlignAlloc, env.VarSchedule, env.VarPlaces}} {
		for i, start := range starts {
			run := func(descend func(*searchState, env.Config, float64) (env.Config, float64)) (env.Config, float64, SearchResult, []askedSeries) {
				ev := &seamBackend{}
				s, err := newSearchState(context.Background(), "greedy", SearchSpec{
					Machine: m, App: app, Setting: set, Order: order, Evaluator: ev,
					Budget: SearchBudget{MaxEvals: 120},
				}, newReporter(nil, nil))
				if err != nil {
					t.Fatal(err)
				}
				if err := s.init(); err != nil {
					t.Fatal(err)
				}
				end, sec := descend(s, start, s.res.DefaultSeconds*1.01)
				return end, sec, s.res, ev.asked
			}
			end, sec, res, asked := run((*searchState).descend)
			wantEnd, wantSec, wantRes, wantAsked := run((*searchState).stringDescend)
			if end != wantEnd || sec != wantSec || !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(asked, wantAsked) {
				t.Errorf("order %v, start %d (%s): descent ends at %s (%v) after %d probes, string path at %s (%v) after %d",
					order, i, start, end, sec, len(asked), wantEnd, wantSec, len(wantAsked))
			}
			if i == len(starts)-1 && res.Evaluations != 1 {
				t.Errorf("order %v: a start with two rejected fields probed %d candidates, want none", order, res.Evaluations-1)
			}
		}
	}
}

// TestRandomSearchMatchesLegacyGolden holds the random strategy (and its
// seeded draw sequence) byte-identical to the pre-seam baseline.
func TestRandomSearchMatchesLegacyGolden(t *testing.T) {
	cases := []struct {
		arch   topology.Arch
		app    string
		budget int
		seed   uint64
	}{
		{topology.A64FX, "Nqueens", 40, 1},
		{topology.Milan, "XSbench", 40, 7},
		{topology.Skylake, "Sort", 0, 42},
	}
	for _, c := range cases {
		m, app, set := searchApp(t, c.arch, c.app)
		want := legacyRandomSearch(nil, m, app, set, c.budget, c.seed)
		got := asLegacy(randomSearch(t, nil, m, app, set, c.budget, c.seed))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s budget %d seed %d: RandomSearch diverged from legacy:\n got %+v\nwant %+v",
				c.arch, c.app, c.budget, c.seed, got, want)
		}
	}
}

// TestSearchSeededDeterminism: every strategy with the same seed and the
// analytic backend returns an identical SearchResult (config, trajectory,
// eval count) across runs.
func TestSearchSeededDeterminism(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	for _, name := range SearchStrategies() {
		s, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("NewSearcher(%q).Name() = %q", name, s.Name())
		}
		spec := SearchSpec{
			Machine: m, App: app, Setting: set, Seed: 11,
			Budget: SearchBudget{MaxEvals: 80},
		}
		r1, err1 := s.Search(context.Background(), spec)
		r2, err2 := s.Search(context.Background(), spec)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: search errors %v / %v", name, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: same seed produced different results:\n%+v\n%+v", name, r1, r2)
		}
		if r1.Strategy != name {
			t.Errorf("%s: result strategy = %q", name, r1.Strategy)
		}
		if r1.Evaluations > 80 {
			t.Errorf("%s: %d evaluations exceed the budget of 80", name, r1.Evaluations)
		}
		if r1.BestSeconds > r1.DefaultSeconds {
			t.Errorf("%s: best %v worse than default %v", name, r1.BestSeconds, r1.DefaultSeconds)
		}
		for i, st := range r1.Trajectory {
			if st.Eval < 1 || st.Eval > r1.Evaluations {
				t.Errorf("%s: step %d eval index %d outside [1, %d]", name, i, st.Eval, r1.Evaluations)
			}
		}
	}
}

func TestNewSearcherUnknownNamesValidSet(t *testing.T) {
	_, err := NewSearcher("gradient")
	if err == nil {
		t.Fatal("NewSearcher accepted an unknown strategy")
	}
	for _, want := range append(SearchStrategies(), "gradient") {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestEvalCacheMemoizes(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Sort")
	fake := &fakeEvaluator{}
	c := NewEvalCache()
	cfg := env.Default(m)
	v1, hit := c.Mean(fake, m, app, cfg, set)
	if hit {
		t.Error("first lookup reported a hit")
	}
	calls := fake.calls.Load()
	if calls != 1 {
		t.Errorf("first lookup cost %d backend series, want 1", calls)
	}
	v2, hit := c.Mean(fake, m, app, cfg, set)
	if !hit || v2 != v1 {
		t.Errorf("second lookup: hit=%v value %v, want cached %v", hit, v2, v1)
	}
	if fake.calls.Load() != calls {
		t.Error("cache hit still called the backend")
	}
	if c.Hits() != 1 || c.Len() != 1 {
		t.Errorf("Hits=%d Len=%d, want 1/1", c.Hits(), c.Len())
	}
}

// TestTuneCacheSavesEvaluations is the memoization fix for the pre-seam
// greedy tuner: the descent's terminating pass re-probes configurations the
// previous pass already measured, and those probes must now cost cache
// lookups, not backend evaluations. Budget accounting is unchanged — only
// backend work is saved.
func TestTuneCacheSavesEvaluations(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	fake := &fakeEvaluator{}
	res, err := greedySearcher{}.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set,
		Evaluator: fake, Budget: SearchBudget{MaxEvals: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits == 0 {
		t.Fatal("greedy descent recorded no cache hits; the terminating pass should re-probe earlier candidates")
	}
	if got, want := fake.calls.Load(), int64(res.Evaluations-res.CacheHits); got != want {
		t.Errorf("backend series = %d, want %d evals - %d hits = %d", got, res.Evaluations, res.CacheHits, want)
	}
}

// TestSharedCacheAcrossSearches: a cache shared by two strategies on the
// same problem lets the second search start warm.
func TestSharedCacheAcrossSearches(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	cache := NewEvalCache()
	spec := SearchSpec{
		Machine: m, App: app, Setting: set, Seed: 3,
		Budget: SearchBudget{MaxEvals: 50}, Cache: cache,
	}
	if _, err := (greedySearcher{}).Search(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	res, err := randomSearcher{}.Search(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The random walk starts from the default configuration the greedy
	// search already measured, so at least that probe must hit.
	if res.CacheHits == 0 {
		t.Error("second search over a shared cache recorded no hits")
	}
}

// TestSharedCacheKeepsProblemsApart: a problem is its machine value, app,
// setting and backend, so one cache shared by two machine values of one arch
// (the registered model and a modified copy) and by two backends answers
// each problem with its own values, on the study space's slots and on an
// extended configuration outside it alike.
func TestSharedCacheKeepsProblemsApart(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	fast := *m
	fast.ClockGHz *= 2
	numa := env.Default(m)
	numa.Places = topology.PlaceNUMA
	cache := NewEvalCache()
	for _, cfg := range []env.Config{env.Default(m), env.Space(m)[7], numa} {
		type asked struct {
			ev Evaluator
			m  *topology.Machine
		}
		fake := &fakeEvaluator{}
		problems := []asked{{ModelEvaluator{}, m}, {ModelEvaluator{}, &fast}, {fake, m}, {fake, &fast}}
		want := make([]float64, len(problems))
		for i, p := range problems {
			want[i], _ = NewEvalCache().Mean(p.ev, p.m, app, cfg, set)
			if got, hit := cache.Mean(p.ev, p.m, app, cfg, set); hit || got != want[i] {
				t.Errorf("%s, problem %d: first probe %v (hit %v), want %v from its own backend", cfg, i, got, hit, want[i])
			}
		}
		if want[0] == want[1] || want[0] == want[2] {
			t.Fatalf("%s: problems evaluate alike (%v), the test cannot tell them apart", cfg, want)
		}
		for i, p := range problems {
			if got, hit := cache.Mean(p.ev, p.m, app, cfg, set); !hit || got != want[i] {
				t.Errorf("%s, problem %d: revisit %v (hit %v), want cached %v", cfg, i, got, hit, want[i])
			}
		}
	}
	if got := cache.Len(); got != 12 {
		t.Errorf("Len = %d, want 3 configurations x 4 problems", got)
	}
}

// TestSharedCacheConcurrentSearches: searches on several goroutines share
// one cache across two problems, creating blocks and filling slots at once
// (run under -race by make race), and each finds what it finds alone.
func TestSharedCacheConcurrentSearches(t *testing.T) {
	cache := NewEvalCache()
	var specs []SearchSpec
	for _, name := range []string{"Nqueens", "CG"} {
		m, app, set := searchApp(t, topology.A64FX, name)
		specs = append(specs, SearchSpec{Machine: m, App: app, Setting: set, Seed: 9, Budget: SearchBudget{MaxEvals: 120}})
	}
	want := make([]SearchResult, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = (annealSearcher{}).Search(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		spec := specs[g%len(specs)]
		spec.Cache = cache
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := (annealSearcher{}).Search(context.Background(), spec)
			if err != nil || got.Best != want[i].Best || got.BestSeconds != want[i].BestSeconds {
				t.Errorf("search %d over the shared cache found %s at %v (err %v), alone %s at %v",
					i, got.Best, got.BestSeconds, err, want[i].Best, want[i].BestSeconds)
			}
		}(g % len(specs))
	}
	wg.Wait()
}

// TestEvalCachePastFirstTable: one problem of a shared cache holds more
// answers than its first position table has room for — four seeded random
// searches' — besides configurations outside the study space and failed
// series. Every replay returns the value first stored, bit for bit, a
// remembered NaN included, without asking the backend again, and Len and
// Hits count exactly.
func TestEvalCachePastFirstTable(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	space := env.Space(m)
	numa := func(i int) env.Config {
		c := space[i]
		c.Places = topology.PlaceNUMA
		return c
	}
	ev := failing(space[5], space[700], space[4000], numa(3))
	cache := NewEvalCache()
	var hits int64
	for seed := uint64(1); seed <= 4; seed++ {
		res, err := randomSearcher{}.Search(context.Background(), SearchSpec{
			Machine: m, App: app, Setting: set, Seed: seed, Evaluator: ev,
			Budget: SearchBudget{MaxEvals: 300}, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		hits += int64(res.CacheHits)
	}
	for _, cfg := range []env.Config{space[5], space[700], space[4000], numa(3), numa(9), numa(5), numa(9)} {
		if _, hit := cache.Mean(ev, m, app, cfg, set); hit {
			hits++
		}
	}
	first := map[env.Config]bool{}
	for _, a := range ev.asked {
		if first[a.cfg] {
			t.Errorf("%s: asked for twice", a.cfg)
		}
		first[a.cfg] = true
	}
	blk := cache.blocks[problemID{m, app, set, ev.Name()}]
	if blk.at.n <= posTableSlots/2-1 || len(blk.off) != 3 {
		t.Fatalf("%d answers by position, %d outside the space: the first table never filled", blk.at.n, len(blk.off))
	}
	if cache.Len() != len(first) || cache.Hits() != hits {
		t.Errorf("Len %d, Hits %d; want %d distinct, %d hits", cache.Len(), cache.Hits(), len(first), hits)
	}
	ps := bindSeries(ModelEvaluator{}, m, app, set)
	asked := len(ev.asked)
	for cfg := range first {
		want := math.NaN()
		if !ev.fail[cfg] {
			want, _ = ps.mean(cfg, cfg.Key(), sim.KeyHash(cfg.Key()))
		}
		got, hit := cache.Mean(ev, m, app, cfg, set)
		if !hit || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("%s: replay %v (hit %v), want %v", cfg, got, hit, want)
		}
	}
	if len(ev.asked) != asked || cache.Len() != len(first) || cache.Hits() != hits+int64(len(first)) {
		t.Errorf("replay asked for %d series, Len %d, Hits %d; want 0, %d, %d",
			len(ev.asked)-asked, cache.Len(), cache.Hits(), len(first), hits+int64(len(first)))
	}
}

func TestSearchMaxTimeBound(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Sort")
	start := time.Now()
	res, err := randomSearcher{}.Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Seed: 1,
		Budget: SearchBudget{MaxTime: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("time-bounded search ran %v", elapsed)
	}
	if res.Evaluations < 1 {
		t.Errorf("Evaluations = %d, want >= 1", res.Evaluations)
	}
}

func TestSearchContextCancel(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Sort")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := annealSearcher{}.Search(ctx, SearchSpec{
		Machine: m, App: app, Setting: set,
		Budget: SearchBudget{MaxEvals: 100},
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The default-config evaluation lands before the first budget check; a
	// canceled context stops the search right after.
	if res.Evaluations != 1 {
		t.Errorf("Evaluations = %d, want 1 (default only)", res.Evaluations)
	}
}

func TestSearchRequiresMachineAndApp(t *testing.T) {
	_, err := (greedySearcher{}).Search(context.Background(), SearchSpec{})
	if err == nil {
		t.Fatal("search accepted a spec without machine and app")
	}
}

// TestSearchTelemetryStream: the JSONL stream carries one search_plan, one
// search_step per evaluation, and a terminal search_done whose counters
// match the result.
func TestSearchTelemetryStream(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	path := filepath.Join(t.TempDir(), "search.jsonl")
	res, err := (greedySearcher{}).Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set,
		Budget: SearchBudget{MaxEvals: 40}, TelemetryLog: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []Event
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec Event
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.TS.IsZero() {
			t.Error("record missing timestamp")
		}
		if rec.Strategy != "greedy" || rec.Arch != "a64fx" || rec.App != "Nqueens" {
			t.Errorf("record identity %s/%s/%s, want greedy/a64fx/Nqueens", rec.Strategy, rec.Arch, rec.App)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("%d records, want plan + steps + done", len(recs))
	}
	if recs[0].Type != "search_plan" || recs[0].Backend != "model" || recs[0].BudgetEvals != 40 {
		t.Errorf("first record %+v, want a search_plan with backend/budget", recs[0])
	}
	steps := 0
	for _, rec := range recs[1 : len(recs)-1] {
		if rec.Type != "search_step" {
			t.Errorf("middle record type %q", rec.Type)
			continue
		}
		steps++
	}
	if steps != res.Evaluations {
		t.Errorf("%d search_step records, want one per evaluation (%d)", steps, res.Evaluations)
	}
	last := recs[len(recs)-1]
	if last.Type != "search_done" || last.Evaluations != res.Evaluations || last.BestConfig != res.Best.Key() {
		t.Errorf("terminal record %+v does not match result (evals %d, best %s)",
			last, res.Evaluations, res.Best.Key())
	}
	if last.BestSpeedup <= 0 {
		t.Errorf("terminal best_speedup = %v", last.BestSpeedup)
	}
}

// TestSearchMonitorGauges: a monitored search drives the obs gauges and the
// status payload end to end.
func TestSearchMonitorGauges(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	mon := NewMonitor()
	if st := mon.Status(); st.State != "waiting" {
		t.Errorf("pre-plan state %q", st.State)
	}
	res, err := (randomSearcher{}).Search(context.Background(), SearchSpec{
		Machine: m, App: app, Setting: set, Seed: 5,
		Budget: SearchBudget{MaxEvals: 30}, Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mon.Status()
	if st.State != "done" {
		t.Errorf("state %q, want done", st.State)
	}
	if st.SamplesDone != res.Evaluations || st.SamplesTotal != 30 {
		t.Errorf("samples %d/%d, want %d/30", st.SamplesDone, st.SamplesTotal, res.Evaluations)
	}
	if len(st.Cells) != 1 || st.Cells[0].Arch != "a64fx" || st.Cells[0].App != "Nqueens" {
		t.Errorf("cells %+v", st.Cells)
	}
	if len(st.Latencies) == 0 || st.Latencies[0].Count != uint64(res.Evaluations) {
		t.Errorf("latencies %+v, want eval histogram with %d observations", st.Latencies, res.Evaluations)
	}
	var buf strings.Builder
	if err := mon.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"omptune_search_best_speedup", "omptune_search_evaluations", "omptune_search_eval_seconds"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics output missing %s", want)
		}
	}
}

// TestSearchProbeNoObserverAllocs holds the hot path of every search the
// benchmark's search_tune runs: with no telemetry log and no monitor a probe
// allocates nothing, cached or not. The cache addresses the configuration by
// its study-space position, the step label comes from the table or the
// search's resolved domains, a miss at a position seeds the model from the
// machine table once a use has built it (the lattice probes below carry
// their positions, as the descents do) and from a key appended into a stack
// buffer before that, and no key string is built that nobody observes.
func TestSearchProbeNoObserverAllocs(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	machineTable(m) // built before the search binds its problem, so misses read its seeds
	s, err := newSearchState(context.Background(), "random", SearchSpec{Machine: m, App: app, Setting: set}, newReporter(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.init(); err != nil {
		t.Fatal(err)
	}
	if s.prob.hashes == nil {
		t.Fatal("the model on a built machine table reads no seeds from it")
	}
	s.table()
	s.probeAt(1, "random")
	if got := testing.AllocsPerRun(200, func() { s.probeAt(1, "random") }); got != 0 {
		t.Errorf("cached table probe with no observers: %v allocations, want 0", got)
	}
	cfg := s.tab.space[1]
	if got := testing.AllocsPerRun(200, func() { s.probe(cfg, 1, "schedule", "dynamic") }); got != 0 {
		t.Errorf("cached lattice probe with no observers: %v allocations, want 0", got)
	}
	// Misses: every run probes a position no probe has asked for, the table
	// probes from 2 up, the lattice probes from the top of the space down.
	next, last := 2, len(s.tab.space)-1
	if got := testing.AllocsPerRun(200, func() { s.probeAt(next, "random"); next++ }); got != 0 {
		t.Errorf("missed table probe with no observers: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { s.probe(s.tab.space[last], last, "schedule", "dynamic"); last-- }); got != 0 {
		t.Errorf("missed lattice probe with no observers: %v allocations, want 0", got)
	}
	// A problem bound before any use built its machine's table seeds a miss
	// from the key appended into a stack buffer, which allocates nothing
	// either.
	seeds := s.prob.hashes
	s.prob.hashes = nil
	if got := testing.AllocsPerRun(200, func() { s.probe(s.tab.space[last], last, "schedule", "dynamic"); last-- }); got != 0 {
		t.Errorf("missed lattice probe seeded from its key with no observers: %v allocations, want 0", got)
	}
	s.prob.hashes = seeds
	if want := 2 + 3*201; s.res.Evaluations-s.res.CacheHits != want {
		t.Errorf("%d misses, want %d: a miss test probed a cached position", s.res.Evaluations-s.res.CacheHits, want)
	}
}

// TestSearchReadsSeedsOfTheTableItBuilds: a search bound before any use
// built its machine's table reads no seeds at bind, and reads the table's
// once its own first table call builds it, so that the misses after it
// (restart's later descents) hash no key.
func TestSearchReadsSeedsOfTheTableItBuilds(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	forgetTables()
	s, err := newSearchState(context.Background(), "restart", SearchSpec{Machine: m, App: app, Setting: set}, newReporter(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.init(); err != nil {
		t.Fatal(err)
	}
	if s.prob.hashes != nil {
		t.Fatal("the problem reads seeds before any use built the machine's table")
	}
	tab := s.table()
	if len(s.prob.hashes) != len(tab.hashes) || &s.prob.hashes[0] != &tab.hashes[0] {
		t.Fatal("the problem reads no seeds from the machine table its search built")
	}
}

// searchFixedAllocs is what a whole search of Nqueens on a64fx on the model
// backend allocates whatever its budget, trajectory growth aside. Random
// makes 10: the eval cache (2), the problem's block (5: the block, its
// position table's keys and means, its space index, and its entry in the
// cache's map), the search state, its ledger and the default variable
// order. A descent makes 11 more to spell its domains once: the
// coordinates, one []string per variable, and the three spellings strconv
// builds ("200", "256", "512").
const searchFixedAllocs = 21

// TestSearchAllocsArePerSearch: on the model backend with a fresh cache, a
// whole search by greedy, anneal, restart or random allocates as much at 100
// evaluations as at 300, apart from the appends that grow its trajectory: no
// probe, hit or miss, allocates.
func TestSearchAllocsArePerSearch(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	runtime.GC() // the first cycle starts the collector's workers, which allocate
	// growth counts the allocations of n single appends to a nil trajectory.
	growth := func(n int) float64 {
		var steps []SearchStep
		allocs := 0
		for range n {
			if len(steps) == cap(steps) {
				allocs++
			}
			steps = append(steps, SearchStep{})
		}
		return float64(allocs)
	}
	for _, name := range []string{"greedy", "anneal", "restart", "random"} {
		searcher, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		perSearch := func(evals int) float64 {
			var res SearchResult
			allocs := testing.AllocsPerRun(5, func() {
				res, err = searcher.Search(context.Background(), SearchSpec{
					Machine: m, App: app, Setting: set, Seed: 3,
					Budget: SearchBudget{MaxEvals: evals}, Cache: NewEvalCache(),
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			return allocs - growth(len(res.Trajectory))
		}
		at100, at300 := perSearch(100), perSearch(300)
		if at100 != at300 || at300 > searchFixedAllocs {
			t.Errorf("%s: %v allocations a search at 100 evaluations, %v at 300 (trajectory growth aside), want equal and at most %d",
				name, at100, at300, searchFixedAllocs)
		}
	}
}

// TestSearchReportJoinsSweep: searches logged to one telemetry file are
// joined against a sweep dataset's per-group best speedup.
func TestSearchReportJoinsSweep(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	path := filepath.Join(t.TempDir(), "search.jsonl")
	for _, name := range []string{"greedy", "random"} {
		s, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Search(context.Background(), SearchSpec{
			Machine: m, App: app, Setting: set, Seed: 2,
			Budget: SearchBudget{MaxEvals: 60}, TelemetryLog: path,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A miniature sweep dataset for the same group: the default config plus
	// one strong sample establishing the sweep best.
	mk := func(cfg env.Config, mean float64) *dataset.Sample {
		s := &dataset.Sample{
			Arch: m.Arch, App: app.Name, Setting: set.Label,
			Threads: set.Threads, Scale: set.Scale, Config: cfg, DefaultRuntime: 10,
		}
		for i := range s.Runtimes {
			s.Runtimes[i] = mean
		}
		return s
	}
	ds := &dataset.Dataset{Samples: []*dataset.Sample{
		mk(env.Default(m), 10), // speedup 1
		mk(env.Space(m)[1], 2), // speedup 5: the sweep best
	}}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := SearchReport(f, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2 (greedy + random)", len(rows))
	}
	if rows[0].Strategy != "greedy" || rows[1].Strategy != "random" {
		t.Errorf("row order %s, %s; want greedy, random", rows[0].Strategy, rows[1].Strategy)
	}
	for _, row := range rows {
		if row.SweepBestSpeedup != 5 {
			t.Errorf("%s: sweep best %v, want 5", row.Strategy, row.SweepBestSpeedup)
		}
		if row.Fraction != row.BestSpeedup/5 {
			t.Errorf("%s: fraction %v, want %v", row.Strategy, row.Fraction, row.BestSpeedup/5)
		}
		if row.SpaceSize != len(env.Space(m)) {
			t.Errorf("%s: space size %d, want %d", row.Strategy, row.SpaceSize, len(env.Space(m)))
		}
		if row.EvalFraction <= 0 || row.EvalFraction > 1 {
			t.Errorf("%s: eval fraction %v", row.Strategy, row.EvalFraction)
		}
	}

	if _, err := SearchReport(strings.NewReader(""), ds); err == nil {
		t.Error("empty telemetry accepted")
	}
	if _, err := SearchReport(strings.NewReader("{bad json"), ds); err == nil {
		t.Error("malformed telemetry accepted")
	}
}

// BenchmarkSearch times each strategy on one problem per machine — Nqueens
// at its first setting, 300 evaluations, a fresh EvalCache per search — so
// an op is three searches; us/eval and allocs/eval divide the time and the
// allocations by their evaluations, KB/search the bytes allocated by the
// searches. A model miss reads its seed from the machine's table only once
// a use has built it, so each strategy runs twice: tables=none forgets the
// tables before every search, as in a process where the search is the first
// use (restart and random then build the table themselves, and pay for it),
// and tables=built builds them first, as in a process that has sampled a
// space, planned a sweep or searched before.
func BenchmarkSearch(b *testing.B) {
	app, err := apps.ByName("Nqueens")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range SearchStrategies() {
		searcher, err := NewSearcher(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, tables := range []string{"none", "built"} {
			b.Run(name+"/tables="+tables, func(b *testing.B) {
				b.ReportAllocs()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs, bytes := ms.Mallocs, ms.TotalAlloc
				evals, searches := 0, 0
				for i := 0; i < b.N; i++ {
					for _, m := range topology.All() {
						if tables == "built" {
							machineTable(m)
						} else {
							forgetTables()
						}
						res, err := searcher.Search(context.Background(), SearchSpec{
							Machine: m, App: app, Setting: app.Settings(m)[0], Seed: 1,
							Budget: SearchBudget{MaxEvals: 300}, Cache: NewEvalCache(),
						})
						if err != nil {
							b.Fatal(err)
						}
						evals += res.Evaluations
						searches++
					}
				}
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(evals), "us/eval")
				b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(evals), "allocs/eval")
				b.ReportMetric(float64(ms.TotalAlloc-bytes)/1024/float64(searches), "KB/search")
			})
		}
	}
}

// forgetTables empties the process's memo of machine tables, as no use had
// built one.
func forgetTables() {
	machineTables.mu.Lock()
	defer machineTables.mu.Unlock()
	machineTables.byMachine = nil
}
