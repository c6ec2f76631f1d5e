package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/ml"
	"omptune/internal/topology"
)

// surrogateGoldenSHA256 pins every field of the surrogate's SearchResult —
// best, seconds, evaluation and cache-hit counts, the full trajectory — on the
// benchmark's nine search problems (each machine × Nqueens, CG, XSbench at
// their first setting) × three seeds at 300 evaluations under the analytic
// backend. A split kernel, pool selection or featurization change that moves
// one probe moves this hash.
const surrogateGoldenSHA256 = "ab2c3b17f71d34a5929fa4b2a11e50923f2aa093dac7d94e7d8c98de568dc659"

func hashFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}

// hashSearchResult writes every field of r to h, floats by their bits.
func hashSearchResult(h hash.Hash, r SearchResult) {
	fmt.Fprintf(h, "%s|%s|%d|%d|%d|", r.Strategy, r.Best.Key(), r.Evaluations, r.CacheHits, len(r.Trajectory))
	hashFloat(h, r.BestSeconds)
	hashFloat(h, r.DefaultSeconds)
	for _, st := range r.Trajectory {
		fmt.Fprintf(h, "%d|%s|%s|%s|", st.Eval, st.Variable, st.Value, st.Config.Key())
		hashFloat(h, st.Seconds)
		hashFloat(h, st.Speedup)
	}
}

// samplingGoldenSHA256 pins restart's and random's SearchResults on the same
// nine problems × three seeds at 300 evaluations: every draw from the
// configuration table and every descent from a drawn start.
const samplingGoldenSHA256 = "360c1863e750be88d6835c5ac510dc65834c7a251cbcf1b7e2c131102e7f78e2"

// descentGoldenSHA256 pins greedy's and anneal's SearchResults on the same
// nine problems × three seeds at 300 evaluations: every candidate the
// lattice descents build, in order, and every step they label.
const descentGoldenSHA256 = "46bb8cea04187a3971e27026fac185dadab6cf7347ed310b0feb8b439aeffd93"

// searchGoldenHash runs each strategy on the benchmark's nine search
// problems × seeds 1–3 at 300 evaluations under the analytic backend and
// returns the sha256 of every result, in that order.
func searchGoldenHash(t *testing.T, strategies ...Searcher) string {
	t.Helper()
	h := sha256.New()
	for _, searcher := range strategies {
		for _, m := range topology.All() {
			for _, name := range []string{"Nqueens", "CG", "XSbench"} {
				app, err := apps.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(1); seed <= 3; seed++ {
					res, err := searcher.Search(context.Background(), SearchSpec{
						Machine: m, App: app, Setting: app.Settings(m)[0], Seed: seed,
						Budget: SearchBudget{MaxEvals: 300},
					})
					if err != nil {
						t.Fatalf("%s %s/%s seed %d: %v", searcher.Name(), m.Arch, name, seed, err)
					}
					hashSearchResult(h, res)
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSurrogateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("27 surrogate searches at 300 evaluations")
	}
	if got := searchGoldenHash(t, surrogateSearcher{}); got != surrogateGoldenSHA256 {
		t.Errorf("surrogate results sha256 %s, want %s", got, surrogateGoldenSHA256)
	}
}

func TestSamplingSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("54 restart and random searches at 300 evaluations")
	}
	if got := searchGoldenHash(t, restartSearcher{}, randomSearcher{}); got != samplingGoldenSHA256 {
		t.Errorf("restart and random results sha256 %s, want %s", got, samplingGoldenSHA256)
	}
}

func TestDescentSearchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("54 greedy and anneal searches at 300 evaluations")
	}
	if got := searchGoldenHash(t, greedySearcher{}, annealSearcher{}); got != descentGoldenSHA256 {
		t.Errorf("greedy and anneal results sha256 %s, want %s", got, descentGoldenSHA256)
	}
}

// TestSurrogateFailedProbeIsNoTrainingRow: a configuration drawn in the
// warm-up fails. It must stay seen (never proposed again) but out of the
// training rows, so every later forest is fitted on finite targets and
// predicts finite values, and the model rounds still find improvements.
func TestSurrogateFailedProbeIsNoTrainingRow(t *testing.T) {
	// At this seed the poisoned forests of a NaN target never found an
	// improvement in 100 evaluations; finite ones do.
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	const seed = 2
	space := env.Space(m)
	badIdx := newLCG(seed ^ hash64("surrogate")).intn(len(space))
	bad := space[badIdx]
	ev := failing(bad)
	s, err := newSearchState(context.Background(), "surrogate", SearchSpec{
		Machine: m, App: app, Setting: set, Seed: seed,
		Evaluator: ev, Budget: SearchBudget{MaxEvals: 100},
	}, newReporter(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	s.init()
	seen, x, y := surrogateSearch(s)
	if n := ev.timesAsked()[askedSeries{app.Name, set.Label, bad, bad.Key()}]; n != 1 {
		t.Fatalf("failing configuration measured %d times, want once, in the warm-up", n)
	}
	if !seen.has(badIdx) {
		t.Error("failed configuration is not seen: a later round may propose it again")
	}
	nSeen := 0
	for i := range space {
		if seen.has(i) {
			nSeen++
		}
	}
	if len(x) != len(y) || len(y) != nSeen-1 {
		t.Errorf("%d training rows, %d targets, %d seen: want every seen configuration but the failed one", len(x), len(y), nSeen)
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("training target %d is %v", i, v)
		}
	}
	// Every round's forest is fitted on a prefix of these rows; the last one
	// stands for them all.
	forest, err := ml.FitRegForest(x, y, surrogateTrees, ml.TreeOptions{MaxDepth: 6, MinLeaf: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	names := env.Names()
	row := make([]float64, len(names))
	for _, cfg := range space[:512] {
		for i, v := range names {
			row[i] = cfg.Feature(v)
		}
		if mu, sd := forest.PredictStd(row); math.IsNaN(mu) || math.IsNaN(sd) {
			t.Fatalf("prediction for %s is %v ± %v", cfg, mu, sd)
		}
	}
	moved := false
	for _, st := range s.res.Trajectory {
		moved = moved || st.Variable == "surrogate"
	}
	if !moved {
		t.Errorf("no surrogate move on the trajectory %+v", s.res.Trajectory)
	}
}

// TestDescentsNeverBuildTheSpace: greedy and anneal move along the lattice
// and never sample the configuration space, so a search by either must not
// pay for building it (4,608 configurations on a64fx).
func TestDescentsNeverBuildTheSpace(t *testing.T) {
	m, app, set := searchApp(t, topology.A64FX, "Nqueens")
	for _, name := range []string{"greedy", "anneal"} {
		searcher, err := NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := searcher.Search(context.Background(), SearchSpec{
			Machine: m, App: app, Setting: set, Seed: 1, Budget: SearchBudget{MaxEvals: 100},
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s search allocated %d bytes: it built the space", name, b)
		}
	}
}
