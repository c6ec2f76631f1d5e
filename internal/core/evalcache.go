package core

import (
	"sync"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// EvalCache memoizes the tuning objective — the mean runtime of one
// (architecture, application, setting, configuration) — and is the one memo in
// the system: backends are stateless, so whoever may ask for a configuration
// twice asks through a cache. Every strategy behind the Searcher seam does
// (the greedy tuner re-probing last pass's values, a random walk drawing a
// duplicate, annealing circling back), and so does Calibrate; a revisit costs
// a map lookup instead of a series. For the measured backend memoization pins
// a configuration to its first measured series, and a series that failed is
// remembered as NaN — it never compares below a best and is not run again.
//
// A cache may be shared across searches (e.g. several strategies on the same
// app/arch/setting) because keys carry the full evaluation identity; it must
// not be shared across backends, since the key does not include the backend
// name.
type EvalCache struct {
	mu   sync.Mutex
	m    map[string]float64
	hits int64
}

// NewEvalCache returns an empty evaluation cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{m: make(map[string]float64)}
}

// Mean returns the mean runtime of app on machine mc under cfg at the given
// setting, computing it via ev on the first request and replaying the stored
// value afterwards. hit reports whether the value came from the cache. A
// failed series reads as NaN.
func (c *EvalCache) Mean(ev Evaluator, mc *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting) (sec float64, hit bool) {
	sec, hit, _ = c.mean(ev, mc, app, cfg, cfg.Key(), set)
	return sec, hit
}

// mean is Mean for a caller that already holds cfgKey = cfg.Key(): a search
// probe builds the key once for the cache, the backend and its step label.
// err is the backend's, returned on the one miss that ran the failed series.
func (c *EvalCache) mean(ev Evaluator, mc *topology.Machine, app *apps.App, cfg env.Config, cfgKey string, set sim.Setting) (sec float64, hit bool, err error) {
	key := string(mc.Arch) + "|" + app.Name + "|" + set.Label + "|" + cfgKey
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.hits++
		c.mu.Unlock()
		return v, true, nil
	}
	c.mu.Unlock()
	// Computed outside the lock: a measured-backend evaluation can take
	// seconds, and holding the lock would serialize unrelated keys. Searches
	// are sequential today, so the benign race (two goroutines computing the
	// same key; first store wins) costs nothing.
	sec, err = meanRuntime(ev, mc, app, cfg, cfgKey, set)
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		sec = v
	} else {
		c.m[key] = sec
	}
	c.mu.Unlock()
	return sec, false, err
}

// Hits returns how many lookups were answered from the cache.
func (c *EvalCache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Len returns how many distinct configurations the cache holds.
func (c *EvalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
