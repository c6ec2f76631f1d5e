package core

import (
	"sync"

	"omptune/internal/env"
	"omptune/internal/sim"
	"omptune/internal/topology"
)

// configTable is a configuration space with what every consumer needs per
// configuration: keys[i] is space[i].Key(), hashes[i] its series seed
// sim.KeyHash(keys[i]), shared[i] the length of the prefix keys[i] shares
// with keys[i-1] (the sampling walk's restart point), row(i) its
// env.Names() features, defIdx the position of the default configuration
// defCfg (-1 when the space lacks it). newConfigTable, and aliasRepeats for
// a caller's pool, build it; it is read-only from then on.
//
// The study's space on a registered machine has one table per process
// (machineTable), shared by the sweep plan, Calibrate and every
// space-sampling search. Extended sweeps and a caller's search pool build
// their own through newConfigTable.
type configTable struct {
	space  []env.Config
	keys   []string
	hashes []uint64
	shared []int32
	maxKey int // the longest key's length
	// feats holds the feature rows back to back, tableFeatures wide.
	feats  []float64
	defCfg env.Config
	defIdx int
	// first maps each position to the first position holding the same
	// configuration; nil when no configuration repeats (see aliasRepeats).
	first []int32
}

// tableFeatures is the feature order of a table row: the surrogate's
// training and candidate rows.
var tableFeatures = env.Names()

// newConfigTable builds the table of space. Its space is capacity-clipped,
// so a caller that appends to it copies instead of writing into the table.
func newConfigTable(space []env.Config, defCfg env.Config) *configTable {
	nf := len(tableFeatures)
	t := &configTable{
		space: space[:len(space):len(space)], keys: make([]string, len(space)),
		hashes: make([]uint64, len(space)), shared: make([]int32, len(space)),
		feats: make([]float64, len(space)*nf), defCfg: defCfg, defIdx: -1,
	}
	prev := ""
	for i, cfg := range space {
		key := cfg.Key()
		t.keys[i], t.hashes[i] = key, sim.KeyHash(key)
		n := 0
		for n < len(key) && n < len(prev) && key[n] == prev[n] {
			n++
		}
		t.shared[i], t.maxKey, prev = int32(n), max(t.maxKey, len(key)), key
		featureRow(cfg, t.feats[i*nf:(i+1)*nf])
		if t.defIdx < 0 && cfg == defCfg {
			t.defIdx = i
		}
	}
	return t
}

// featureRow writes cfg's tableFeatures into row and returns it.
func featureRow(cfg env.Config, row []float64) []float64 {
	for k, v := range tableFeatures {
		row[k] = cfg.Feature(v)
	}
	return row
}

// row returns configuration i's feature row, capacity-clipped like space.
func (t *configTable) row(i int) []float64 {
	nf := len(tableFeatures)
	return t.feats[i*nf : (i+1)*nf : (i+1)*nf]
}

// aliasRepeats fills first when some configuration occurs twice, so a
// caller's pool with repeats still has each configuration seen once. The
// study's space repeats none and never needs it.
func (t *configTable) aliasRepeats() {
	at := make(map[string]int32, len(t.keys))
	for i, key := range t.keys {
		j, ok := at[key]
		if !ok {
			at[key] = int32(i)
			continue
		}
		if t.first == nil {
			t.first = make([]int32, len(t.keys))
			for k := range t.first {
				t.first[k] = int32(k)
			}
		}
		t.first[i] = j
	}
}

// canon returns the first position holding configuration i.
func (t *configTable) canon(i int) int {
	if t.first != nil {
		return int(t.first[i])
	}
	return i
}

// tableMemo holds the study space's table of every registered machine used
// so far; machineTables is the process's.
type tableMemo struct {
	mu        sync.Mutex
	byMachine map[*topology.Machine]*configTable
}

var machineTables tableMemo

// machineTable returns the table of env.Space(m): built on first use and
// shared from then on when m is the registered model of its arch. A machine
// value that is not the registered one (a modified copy) gets a table of
// its own every call.
func machineTable(m *topology.Machine) *configTable { return machineTables.get(m) }

func (tm *tableMemo) get(m *topology.Machine) *configTable {
	if reg, err := topology.Get(m.Arch); err != nil || reg != m {
		return newConfigTable(env.Space(m), env.Default(m))
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	t := tm.byMachine[m]
	if t == nil {
		t = newConfigTable(env.Space(m), env.Default(m))
		if tm.byMachine == nil {
			tm.byMachine = map[*topology.Machine]*configTable{}
		}
		tm.byMachine[m] = t
	}
	return t
}

// built returns the shared table of m once a use has built it, nil before
// that and for a machine value that is not the registered one: a descent
// reads the model's seeds from a table that is there, and never builds one
// (TestDescentsNeverBuildTheSpace).
func (tm *tableMemo) built(m *topology.Machine) *configTable {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.byMachine[m]
}

// spaceIndex addresses the study space of one machine, env.Space(m). A
// configuration's position there is its mixed-radix number over the seven
// domains in the space's loop order — places, bind, schedule, library,
// blocktime, reduction, align, the last varying fastest — which is also its
// index in the machine's table. pos computes it from the fields, building
// neither the space nor a key.
type spaceIndex struct {
	aligns []int // m.AlignAllocValues(), the innermost domain
}

// The six machine-independent domains of env.Space, in domain order.
var (
	places     = env.PlaceKinds()
	binds      = env.ProcBinds()
	schedules  = env.Schedules()
	libraries  = env.Libraries()
	blocktimes = env.Blocktimes()
	reductions = env.Reductions()
)

func newSpaceIndex(m *topology.Machine) spaceIndex { return spaceIndex{m.AlignAllocValues()} }

// pos returns c's position, or -1 for a configuration outside the space, one
// with a value the sweep does not take. A probe computes it
// on every lookup, of configurations in random order, so no digit branches
// on which value it meets: each scans its whole domain.
func (x spaceIndex) pos(c *env.Config) int {
	place, bind := digit(places, c.Places), digit(binds, c.ProcBind)
	sched, lib := digit(schedules, c.Schedule), digit(libraries, c.Library)
	bt, red := digit(blocktimes, c.BlocktimeMS), digit(reductions, c.ForceReduction)
	align := digit(x.aligns, c.AlignAlloc)
	if place|bind|sched|lib|bt|red|align < 0 {
		return -1
	}
	pos := place
	pos = pos*len(binds) + bind
	pos = pos*len(schedules) + sched
	pos = pos*len(libraries) + lib
	pos = pos*len(blocktimes) + bt
	pos = pos*len(reductions) + red
	return pos*len(x.aligns) + align
}

// stride returns how far apart the positions of two configurations lie
// that differ by one step of variable v's domain alone: the size of the
// space the domains inside v's span, in pos's order. A descent carries its
// position by it instead of scanning the domains (see searchState.moved).
func (x spaceIndex) stride(v env.VarName) int {
	s := 1
	switch v {
	case env.VarPlaces:
		s *= len(binds)
		fallthrough
	case env.VarProcBind:
		s *= len(schedules)
		fallthrough
	case env.VarSchedule:
		s *= len(libraries)
		fallthrough
	case env.VarLibrary:
		s *= len(blocktimes)
		fallthrough
	case env.VarBlocktime:
		s *= len(reductions)
		fallthrough
	case env.VarForceReduction:
		s *= len(x.aligns)
	}
	return s
}

// digit returns v's index in dom, -1 when dom lacks it.
func digit[T ~int](dom []T, v T) int {
	d := -1
	for i, w := range dom {
		if w == v {
			d = i
		}
	}
	return d
}
