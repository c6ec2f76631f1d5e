package core

import (
	"math/bits"
	"sync"

	"omptune/internal/apps"
	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// EvalCache memoizes the tuning objective — the mean runtime of one
// configuration of one problem — and is the one memo in the system: backends
// are stateless, so whoever may ask for a configuration twice asks through a
// cache. Every strategy behind the Searcher seam does (the greedy tuner
// re-probing last pass's values, a random walk drawing a duplicate, annealing
// circling back), and so do Calibrate and BestNUMAPlacement; a revisit costs
// a multiply, a shift and a compare instead of a series. For the measured
// backend memoization pins a configuration to its first measured series, and
// a series that failed is remembered as NaN — it never compares below a best
// and is not run again.
//
// A problem is a machine value, an application, a setting and the name of
// the backend that measures it. Each problem the cache has seen holds one
// block: an open-addressed table of its answers keyed by position in the
// machine's study space (see spaceIndex and posTable), sized by the answers
// it holds rather than by the space, and a map by value for the
// configurations outside that space. Because the problem names all four
// parts, a cache may be shared across searches, machines and backends
// without one problem answering another's probes.
type EvalCache struct {
	mu     sync.Mutex
	blocks map[problemID]*evalBlock
	// last is the problem block resolved last: a caller probing one problem
	// through Mean finds it without hashing the problem.
	last   *evalBlock
	lastID problemID
	hits   int64
	n      int // distinct configurations held
}

// problemID identifies one problem's block. Machine and application are
// compared by identity: a modified copy of a registered machine is another
// problem.
type problemID struct {
	m       *topology.Machine
	app     *apps.App
	set     sim.Setting
	backend string
}

// evalBlock holds one problem's stored means; the cache's mu guards it.
type evalBlock struct {
	space spaceIndex
	at    posTable               // by study-space position
	off   map[env.Config]float64 // configurations without a position
}

// posTable stores means by study-space position: one open-addressed table,
// probed linearly from a position's home slot (the top bits of its product
// with a Fibonacci constant). A slot's key is its position plus one, so a
// zero key marks a free slot. The table is kept less than half full: it
// starts with room for posTableSlots/2 − 1 answers and doubles past that,
// so a problem's memory follows the answers it holds, not its space's size.
// A Go map pre-sized as large holds them in two more allocations and 6 KB
// more a problem.
type posTable struct {
	keys  []uint32
	secs  []float64 // secs[i] is the mean stored under keys[i]
	shift uint      // 64 − log2(len(keys))
	n     int
}

// posTableSlots is a new table's size: room for 511 answers, which cover a
// 300-evaluation search, in 12 KB.
const posTableSlots = 1024

func newPosTable(slots int) posTable {
	return posTable{keys: make([]uint32, slots), secs: make([]float64, slots),
		shift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

// slot returns pos's slot: the one holding it, or the free slot where it
// belongs.
func (t *posTable) slot(pos int) int {
	key, mask := uint32(pos)+1, len(t.keys)-1
	for i := int(uint64(key) * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		if k := t.keys[i]; k == key || k == 0 {
			return i
		}
	}
}

func (t *posTable) get(pos int) (sec float64, ok bool) {
	i := t.slot(pos)
	return t.secs[i], t.keys[i] != 0
}

// put stores sec at pos, which the table does not hold yet.
func (t *posTable) put(pos int, sec float64) {
	if 2*(t.n+1) >= len(t.keys) {
		old := *t
		*t = newPosTable(2 * len(old.keys))
		t.n = old.n
		for i, k := range old.keys {
			if k != 0 {
				j := t.slot(int(k - 1))
				t.keys[j], t.secs[j] = k, old.secs[i]
			}
		}
	}
	i := t.slot(pos)
	t.keys[i], t.secs[i] = uint32(pos)+1, sec
	t.n++
}

// NewEvalCache returns an empty evaluation cache.
func NewEvalCache() *EvalCache {
	return &EvalCache{blocks: make(map[problemID]*evalBlock)}
}

// Mean returns the mean runtime of app on machine mc under cfg at the given
// setting, computing it via ev on the first request and replaying the stored
// value afterwards. hit reports whether the value came from the cache. A
// failed series reads as NaN.
func (c *EvalCache) Mean(ev Evaluator, mc *topology.Machine, app *apps.App, cfg env.Config, set sim.Setting) (sec float64, hit bool) {
	b := c.block(mc, app, set, ev.Name())
	pos := b.space.pos(&cfg)
	if sec, hit = c.lookup(b, &cfg, pos); hit {
		return sec, true
	}
	ps := bindSeries(ev, mc, app, set)
	key, keyHash := ps.keyed(&cfg)
	sec, _ = c.fill(b, &ps, &cfg, pos, key, keyHash)
	return sec, false
}

// block returns the problem's block, allocating it on the problem's first
// probe. A caller that probes one problem many times resolves it once.
func (c *EvalCache) block(m *topology.Machine, app *apps.App, set sim.Setting, backend string) *evalBlock {
	id := problemID{m, app, set, backend}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last != nil && c.lastID == id {
		return c.last
	}
	b := c.blocks[id]
	if b == nil {
		b = &evalBlock{space: newSpaceIndex(m), at: newPosTable(posTableSlots)}
		c.blocks[id] = b
	}
	c.last, c.lastID = b, id
	return b
}

// lookup returns the stored mean of cfg, at position pos of b's space (-1
// for none), and counts the hit.
func (c *EvalCache) lookup(b *evalBlock, cfg *env.Config, pos int) (sec float64, ok bool) {
	c.mu.Lock()
	if pos >= 0 {
		sec, ok = b.at.get(pos)
	} else {
		sec, ok = b.off[*cfg]
	}
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	return sec, ok
}

// fill runs the series of cfg (key and keyHash as series reads them) on a
// lookup's miss and stores its mean, NaN for a failed series; err is the
// backend's. The series runs outside the lock: a measured-backend evaluation
// can take seconds, and holding the lock would serialize unrelated problems.
// Searches are sequential today, so the benign race (two goroutines
// computing the same configuration; first store wins) costs nothing.
func (c *EvalCache) fill(b *evalBlock, ps *problemSeries, cfg *env.Config, pos int, key string, keyHash uint64) (sec float64, err error) {
	sec, err = ps.mean(*cfg, key, keyHash)
	c.mu.Lock()
	defer c.mu.Unlock()
	if pos >= 0 {
		if v, ok := b.at.get(pos); ok {
			return v, err
		}
		b.at.put(pos, sec)
	} else {
		if v, ok := b.off[*cfg]; ok {
			return v, err
		}
		if b.off == nil {
			b.off = make(map[env.Config]float64)
		}
		b.off[*cfg] = sec
	}
	c.n++
	return sec, err
}

// Hits returns how many lookups were answered from the cache.
func (c *EvalCache) Hits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Len returns how many distinct configurations the cache holds, over all
// its problems.
func (c *EvalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// boundProblem is one problem as a caller that probes it many times holds
// it: its block of a cache and its series, both resolved once.
type boundProblem struct {
	cache *EvalCache
	blk   *evalBlock
	ps    problemSeries
	// hashes holds the model's seed of each study-space position, the
	// machine table's; nil unless the model answers a registered machine
	// whose table a use has built (see tableMemo.built).
	hashes []uint64
}

// bindProblem resolves app on m at set under ev against c.
func (c *EvalCache) bindProblem(ev Evaluator, m *topology.Machine, app *apps.App, set sim.Setting) boundProblem {
	p := boundProblem{cache: c, blk: c.block(m, app, set, ev.Name()), ps: bindSeries(ev, m, app, set)}
	p.readSeeds(m)
	return p
}

// readSeeds has a problem the model answers on m read its seeds from m's
// machine table, if a use has built it: at bind, and again when the holder
// builds the table itself after binding.
func (p *boundProblem) readSeeds(m *topology.Machine) {
	if p.ps.model {
		if t := machineTables.built(m); t != nil {
			p.hashes = t.hashes
		}
	}
}

// pos returns cfg's position in the problem's study space, -1 for none: the
// scan a probe that arrives without a position pays.
func (p *boundProblem) pos(cfg *env.Config) int { return p.blk.space.pos(cfg) }

// mean is the cached objective of cfg, which sits at position pos of the
// study space (-1 for none). key is cfg.Key() and keyHash its sim.KeyHash,
// or key is "" when the caller has not built it: then a miss takes what its
// series reads from keyed, and the key is returned as it stands ("" unless
// a backend other than the model needed it). err is the backend's, returned
// on the one miss that ran the failed series.
func (p *boundProblem) mean(cfg *env.Config, pos int, key string, keyHash uint64) (sec float64, _ string, hit bool, err error) {
	if sec, hit = p.cache.lookup(p.blk, cfg, pos); hit {
		return sec, key, true, nil
	}
	if key == "" {
		key, keyHash = p.keyed(cfg, pos)
	}
	sec, err = p.cache.fill(p.blk, &p.ps, cfg, pos, key, keyHash)
	return sec, key, false, err
}

// keyed is problemSeries.keyed for cfg at position pos, where the machine
// table holds the model's seed: read there, it costs no key and no hash. A
// configuration outside the space, a machine that is not the registered
// one (or whose table is not built yet) and a backend other than the model
// take problemSeries.keyed.
func (p *boundProblem) keyed(cfg *env.Config, pos int) (key string, keyHash uint64) {
	if pos >= 0 && p.hashes != nil {
		return "", p.hashes[pos]
	}
	return p.ps.keyed(cfg)
}
