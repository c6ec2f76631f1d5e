package sim

import (
	"math"
	"sync"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// Model constants: baseline micro-operation costs in seconds at the 2.4 GHz
// Skylake reference clock (scaled by clockAdj elsewhere).
const (
	chunkDispatchSec = 60e-9  // shared-counter grab per dynamic/guided chunk
	forkBaseSec      = 1.5e-6 // parallel-region fork fixed cost
	forkPerThreadSec = 0.1e-6 // per-thread fork cost
	barrierStageSec  = 0.6e-6 // per log2-stage barrier cost
	taskSpawnSec     = 0.3e-6 // task allocation + enqueue
	spinEventSec     = 0.05e-6
	treeStageSec     = 0.8e-6 // reduction tree combine stage
	critHandoffSec   = 0.35e-6
	atomicOpSec      = 0.08e-6
)

// osScatter is the per-architecture probability-like intensity with which
// the OS scheduler migrates unbound threads away from their data and warm
// caches. Milan's many small L3 domains and NPS4 layout make migrations
// expensive and frequent on the shared cluster; the large-L3 Skylake and the
// single-socket A64FX barely suffer.
var osScatter = map[topology.Arch]float64{
	topology.A64FX:   0.015,
	topology.Skylake: 0.012,
	topology.Milan:   0.700,
}

// cacheTerm is how much of the cache working set a migration forfeits,
// relative to the machine's cache-domain granularity.
var cacheTerm = map[topology.Arch]float64{
	topology.A64FX:   0.15,
	topology.Skylake: 0.25,
	topology.Milan:   1.00,
}

// yieldEventCost is the per-architecture cost of one sched_yield round trip,
// the price a throughput-mode worker pays per idle event while its
// blocktime budget lasts. The slow in-order cores of the A64FX make the
// syscall path disproportionately expensive there — which is why
// KMP_LIBRARY=turnaround helps fine-grained tasking most on A64FX.
var yieldEventCost = map[topology.Arch]float64{
	topology.A64FX:   2.1e-6,
	topology.Skylake: 0.85e-6,
	topology.Milan:   0.4e-6,
}

// alignFactor returns the relative cost multiplier that KMP_ALIGN_ALLOC
// imposes on runtime-internal shared structures (reduction cells, barrier
// flags). At the cache-line size, adjacent structures land on neighbouring
// lines and the x86 adjacent-line ("spatial") prefetcher induces false
// line-pair sharing — Skylake's is the most aggressive. Doubling the
// alignment removes the effect; quadrupling and beyond pays a small
// footprint/TLB cost.
func alignFactor(m *topology.Machine, align int) float64 {
	ratio := float64(align) / float64(m.CacheLineBytes)
	switch {
	case ratio <= 1:
		if m.Arch == topology.Skylake {
			return 1.22
		}
		if m.Arch == topology.Milan {
			return 1.10
		}
		return 1.06 // A64FX's 256 B lines already separate most structures
	case ratio <= 2:
		return 1.0
	case ratio <= 4:
		return 1.01
	default:
		return 1.03
	}
}

// placementInfo describes where a configuration puts the team's threads.
type placementInfo struct {
	unbound bool
	// oversub is max threads-per-core across places (1 = no contention);
	// master binding onto cores drives this to the full team size.
	oversub float64
	// nodesUsed is how many NUMA nodes the team's places span.
	nodesUsed int
	// spanFrac is how large each place is relative to the machine
	// ((coresPerPlace-1)/(cores-1)): 0 for single-core places, ~0.5 for
	// sockets. Bound threads may still wander within their place, so wide
	// places retain a fraction of the unbound cache-affinity penalty.
	spanFrac float64
}

// placementCache memoizes placement over its small key domain
// (arch x place kind x bind x threads); the sweep calls Evaluate millions
// of times, from every worker of a parallel sweep, so hits take only the
// read lock.
var (
	placementMu    sync.RWMutex
	placementCache = make(map[placementKey]placementInfo)
)

type placementKey struct {
	arch    topology.Arch
	places  topology.PlaceKind
	bind    openmp.BindPolicy
	threads int
}

// placement resolves OMP_PLACES/OMP_PROC_BIND into a placementInfo. As in
// the LLVM runtime, setting OMP_PROC_BIND without OMP_PLACES implies
// places=cores, and setting OMP_PLACES without OMP_PROC_BIND implies
// spread (via env.Config.EffectiveBind).
func placement(m *topology.Machine, cfg env.Config, threads int) placementInfo {
	key := placementKey{m.Arch, cfg.Places, cfg.EffectiveBind(), threads}
	placementMu.RLock()
	pi, ok := placementCache[key]
	placementMu.RUnlock()
	if ok {
		return pi
	}
	pi = computePlacement(m, cfg, threads)
	placementMu.Lock()
	placementCache[key] = pi
	placementMu.Unlock()
	return pi
}

func computePlacement(m *topology.Machine, cfg env.Config, threads int) placementInfo {
	bind := cfg.EffectiveBind()
	if bind == openmp.BindNone {
		over := 1.0
		if threads > m.Cores {
			over = float64(threads) / float64(m.Cores)
		}
		nodes := (threads + m.CoresPerNUMA() - 1) / m.CoresPerNUMA()
		if nodes > m.NUMANodes {
			nodes = m.NUMANodes
		}
		return placementInfo{unbound: true, oversub: over, nodesUsed: nodes}
	}
	kind := cfg.Places
	if kind == topology.PlaceUnset {
		kind = topology.PlaceCores
	}
	places, err := m.Partition(kind)
	if err != nil {
		places, _ = m.Partition(topology.PlaceCores)
	}
	asg := openmp.AssignPlaces(len(places), bind, threads, 0)
	counts := make(map[int]int)
	for _, p := range asg {
		counts[p]++
	}
	over := 1.0
	nodes := make(map[int]bool)
	for p, c := range counts {
		cap := len(places[p].Cores)
		if o := float64(c) / float64(cap); o > over {
			over = o
		}
		for _, core := range places[p].Cores {
			nodes[m.NUMANodeOf(core)] = true
		}
	}
	span := 0.0
	if m.Cores > 1 && len(places) > 0 {
		span = float64(len(places[0].Cores)-1) / float64(m.Cores-1)
	}
	return placementInfo{oversub: over, nodesUsed: len(nodes), spanFrac: span}
}

// lookup reads a per-architecture model parameter, falling back to a
// moderate default for a caller-built machine outside the study's three.
func lookup(table map[topology.Arch]float64, arch topology.Arch, def float64) float64 {
	if v, ok := table[arch]; ok {
		return v
	}
	return def
}

// avgDist is the mean SLIT distance (in units of the local distance) from a
// node to a uniformly random node of the machine.
func avgDist(m *topology.Machine) float64 {
	total := 0.0
	for j := 0; j < m.NUMANodes; j++ {
		total += m.NUMADistance(0, j)
	}
	return total / (10 * float64(m.NUMANodes))
}

// Bound is one (machine, application, setting) problem with every term of
// the model that does not read the configuration computed once: the work
// growth, the Amdahl split, the affinity penalty, the schedule overheads,
// the bandwidth and fork/join constants, the tasking costs and the noise
// identity. Series evaluates one configuration of the problem. Evaluate,
// EvaluateSeries and EvaluateExact bind for their one call, so the model
// has one formula. Bind makes a Bound (the zero value is not one); it is
// read-only from then on and safe for concurrent use.
type Bound struct {
	m     *topology.Machine
	p     *Profile
	scale float64 // the setting's input scale

	threads    int
	fthreads   float64 // float64(threads)
	clockAdj   float64
	serialSec  float64
	parCPU     float64 // (1 - SerialFrac) * totalCPU
	scatter    float64
	affUnbound float64 // 1 + affinity
	affBound   float64 // affinity * 0.6

	itersTotal   float64
	schedDynamic float64 // the dynamic schedule's chunk overhead
	schedGuided  float64 // the guided schedule's
	imbDynamic   float64 // 0.08 * Imbalance
	imbGuided    float64 // 0.15 * Imbalance

	traffic    float64
	perCoreBW  float64
	unboundMem float64 // the unbound memory factor when traffic > 0

	stages    float64 // log2(threads + 1)
	forkFixed float64 // forkBaseSec + forkPerThreadSec * threads
	barStages float64 // barrierStageSec * stages
	wakeZero  float64 // wake cascade per run at blocktime 0
	wakeSome  float64 // at a positive blocktime

	task       bool    // the profile spawns explicit tasks
	tasksIdle  float64 // tasks * TaskIdleFactor
	idleDiv    float64 // threads^0.7
	eventSpin  float64 // per idle event at an infinite blocktime
	eventZero  float64 // at blocktime 0
	eventYield float64 // at a finite positive blocktime: the yield cost
	spawn      float64

	nestForks float64 // NestedRegions * grow
	nestCores float64 // max(1, cores / threads): what an inner team can widen into

	redScale    float64 // ReductionsPerRun * grow
	redTree     float64
	redCritical float64
	redAtomic   float64

	// The noise identity: seed(hash(app), hash(arch)) and hash(label), which
	// a configuration's key completes into its series seed.
	prefix uint64
	label  uint64
	drift  []float64 // per-run-index multipliers; nil means none
	repSig float64
}

// Bind computes the configuration-free terms of app p on machine m at the
// given setting, for a caller that evaluates many configurations of that
// problem (a sweep unit, a search).
func Bind(m *topology.Machine, p *Profile, set Setting) Bound {
	var b Bound
	b.bind(m, p, set)
	return b
}

// bind is Bind into the zero b: the one-call evaluations bind a Bound of
// their own stack and never copy it.
func (b *Bound) bind(m *topology.Machine, p *Profile, set Setting) {
	b.bindModel(m, p, set)
	b.bindNoise(set)
}

// bindModel computes the noise-free terms into the zero b, each under the
// same profile conditions the model applies.
func (b *Bound) bindModel(m *topology.Machine, p *Profile, set Setting) {
	threads := set.Threads
	if threads < 1 {
		threads = 1
	}
	ft := float64(threads)
	grow := math.Pow(set.Scale, p.WorkGrowth)
	clockAdj := 2.4 / m.ClockGHz
	b.m, b.p, b.scale = m, p, set.Scale
	b.threads, b.fthreads, b.clockAdj = threads, ft, clockAdj
	b.scatter = lookup(osScatter, m.Arch, 0.10)

	// --- CPU work (Amdahl + affinity). ------------------------------------
	coreRate := m.ClockGHz * 1e9 * p.ipc(m.Arch)
	totalCPU := p.CPUWorkGOps * 1e9 * grow / coreRate
	b.serialSec = p.SerialFrac * totalCPU
	b.parCPU = (1 - p.SerialFrac) * totalCPU
	// Migrations cost warm cache state. For loop-parallel codes they
	// mostly happen while idle cores exist, so the penalty scales with the
	// unused fraction of the machine (a fully loaded machine gives the OS
	// nowhere to go). Task-parallel codes move work through stealing
	// regardless, so a flat fraction always applies. Bound teams keep a
	// residue proportional to their place width: threads still wander
	// within a socket-sized place, but not within a single-core one.
	idleFrac := 0.3
	if p.Class == LoopParallel {
		util := ft / float64(m.Cores)
		idleFrac = math.Max(0.03, 1.03-util)
	}
	affinity := b.scatter * p.CacheSens * lookup(cacheTerm, m.Arch, 0.5) * idleFrac
	b.affUnbound, b.affBound = 1+float64(affinity), affinity*0.6

	// --- Worksharing schedule: chunk overhead. ----------------------------
	b.itersTotal = p.ItersPerRegion * p.Regions * grow
	b.schedDynamic, b.schedGuided = b.dynamicOver(), b.guidedOver()
	b.imbDynamic, b.imbGuided = 0.08*p.Imbalance, 0.15*p.Imbalance

	// --- Memory. -----------------------------------------------------------
	b.traffic = p.MemTrafficGB * grow
	if b.traffic > 0 {
		b.perCoreBW = 2.2 * m.MemBWGBs / float64(m.Cores)
		b.unboundMem = b.unboundMemFactor()
	}

	// --- Fork/join, barriers, and the wait policy. ------------------------
	b.stages = math.Log2(ft + 1)
	b.forkFixed = forkBaseSec + float64(forkPerThreadSec*ft)
	b.barStages = barrierStageSec * b.stages
	// Workers sleep between every region at blocktime 0, so each fork pays
	// a wake cascade; back-to-back regions rarely exceed a positive budget,
	// and only a small fraction of forks still find sleeping workers.
	b.wakeZero = p.Regions * m.WakeupMicros * 1e-6 * (1 + b.stages)
	b.wakeSome = 0.02 * p.Regions * m.WakeupMicros * 1e-6 * (1 + b.stages)

	// --- Explicit tasking: spawn cost and idle-event cost. ----------------
	if b.task = p.Class == TaskParallel && p.Tasks > 0; b.task {
		tasks := p.Tasks * grow
		yield := lookup(yieldEventCost, m.Arch, 1.0e-6)
		b.eventSpin = spinEventSec * clockAdj
		b.eventZero = float64(0.25*m.WakeupMicros*1e-6) + float64(0.75*yield)
		b.eventYield = yield
		// Idle events sit on task critical paths, so they only partially
		// parallelize away (empirically ~threads^0.7); spawn overhead is
		// embarrassingly parallel.
		b.tasksIdle = tasks * p.TaskIdleFactor
		b.idleDiv = math.Pow(ft, 0.7)
		b.spawn = tasks * taskSpawnSec * clockAdj / ft
	}

	// --- Nested parallelism and reductions. --------------------------------
	if p.NestedRegions > 0 {
		b.nestForks = p.NestedRegions * grow
		b.nestCores = math.Max(1, float64(m.Cores)/ft)
	}
	if p.ReductionsPerRun > 0 {
		sockets := float64(m.Sockets)
		b.redScale = p.ReductionsPerRun * grow
		b.redTree = math.Ceil(b.stages) * treeStageSec
		b.redCritical = ft * critHandoffSec * (1 + float64(0.4*(sockets-1)))
		b.redAtomic = ft * atomicOpSec * (1 + float64(0.6*(sockets-1)))
	}
}

// bindNoise computes the noise identity of the bound problem.
func (b *Bound) bindNoise(set Setting) {
	b.prefix = seed(hashString(b.p.Name), hashString(string(b.m.Arch)))
	b.label = hashString(set.Label)
	b.drift = runDrift[string(b.m.Arch)]
	b.repSig = repSigma(string(b.m.Arch))
}

// dynamicOver is the dynamic schedule's chunk overhead: one shared-counter
// grab per iteration, contended by the team.
func (b *Bound) dynamicOver() float64 {
	contention := 1 + float64(b.fthreads/64)
	return b.itersTotal * chunkDispatchSec * b.clockAdj * contention / b.fthreads
}

// guidedOver is the guided schedule's chunk overhead: chunks shrink
// geometrically, so their count grows with the log of the trip count.
func (b *Bound) guidedOver() float64 {
	p, ft := b.p, b.fthreads
	chunks := p.Regions * 2 * ft * math.Log(p.ItersPerRegion/ft+2)
	return chunks * chunkDispatchSec * b.clockAdj / ft
}

// unboundMemFactor is the memory-time factor of an unbound team. Migrated
// threads lose first-touch locality: remote latency plus concentration of
// traffic away from the data's home nodes. The effect grows with the input:
// small problems live in cache, big ones expose the full page-placement
// damage.
func (b *Bound) unboundMemFactor() float64 {
	m, p := b.m, b.p
	firstTouchLoss := float64((1 - 1/float64(m.NUMANodes)) * 0.8)
	sizeFactor := 1.0
	if p.MemSizeExp > 0 {
		sizeFactor = math.Min(1.2, math.Pow(b.scale/2.5, p.MemSizeExp))
	}
	return 1 + float64(b.scatter*sizeFactor*p.MemSens*((avgDist(m)-1)+firstTouchLoss))
}

// series is everything about one configuration of a bound problem that does
// not depend on the repetition: the noise-free runtime, the identity seed
// and the config-persistent noise factor. Every evaluation draws its
// repetitions from it, so there is one noise formula.
type series struct {
	exact   float64
	base    uint64
	persist float64   // 1 + config-persistent noise
	drift   []float64 // per-run-index multipliers; nil means none
	repSig  float64
}

// series does the per-configuration work once. keyHash must be
// hashString(cfg.Key()).
func (b *Bound) series(cfg *env.Config, keyHash uint64) series {
	base := splitmix64(splitmix64(b.prefix^keyHash) ^ b.label)
	return series{
		exact:   b.exact(cfg),
		base:    base,
		persist: 1 + float64(b.m.NoiseSigma*gauss(base)),
		drift:   b.drift,
		repSig:  b.repSig,
	}
}

// at applies measurement noise for one repetition: per-run-index drift plus
// the config-persistent and a per-repetition random component (see
// noise.go), quantized to the harness resolution.
func (s series) at(rep int) float64 {
	drift := 1.0
	if s.drift != nil {
		drift = s.drift[rep%Reps]
	}
	t := quantize(s.exact * (drift * s.persist * (1 + float64(s.repSig*gauss(seed(s.base, uint64(rep)))))))
	if t < 0.001 {
		t = 0.001
	}
	return t
}

// Series returns the Reps runtimes, in seconds, of configuration cfg of the
// bound problem; key must be cfg.Key(). Slot rep is Evaluate's repetition
// rep, bit for bit.
func (b *Bound) Series(cfg env.Config, key string) (out [Reps]float64) {
	s := b.series(&cfg, hashString(key))
	for rep := range out {
		out[rep] = s.at(rep)
	}
	return out
}

// Evaluate returns the simulated runtime, in seconds, of application p on
// machine m under configuration cfg at the given setting, for repetition
// rep in [0, Reps). The result is deterministic in its arguments.
func Evaluate(m *topology.Machine, p *Profile, cfg env.Config, set Setting, rep int) float64 {
	var b Bound
	b.bind(m, p, set)
	var key [192]byte // as in env.Config.Key: the key is hashed, not kept
	return b.series(&cfg, hashString(cfg.AppendKey(key[:0]))).at(rep)
}

// EvaluateSeries returns Evaluate for every repetition, bit for bit, doing
// the repetition-independent work (the model, the key hash, the persistent
// noise) once instead of Reps times. key must be cfg.Key().
func EvaluateSeries(m *topology.Machine, p *Profile, cfg env.Config, key string, set Setting) [Reps]float64 {
	var b Bound
	b.bind(m, p, set)
	return b.Series(cfg, key)
}

// EvaluateExact is Evaluate without measurement noise, drift or
// quantization: the model's "true" runtime, used by tests and the
// autotuning example.
func EvaluateExact(m *topology.Machine, p *Profile, cfg env.Config, set Setting) float64 {
	var b Bound
	b.bindModel(m, p, set)
	return b.exact(&cfg)
}

// exact is the noise-free runtime of configuration cfg of the bound
// problem: the terms that read the configuration, over the bound ones.
func (b *Bound) exact(cfg *env.Config) float64 {
	m, p, threads := b.m, b.p, b.threads
	pl := placement(m, *cfg, threads)

	// --- CPU work: oversubscription and affinity. -------------------------
	effThreads := b.fthreads / pl.oversub
	cpuSec := b.parCPU / effThreads
	if pl.unbound {
		cpuSec *= b.affUnbound
	} else {
		cpuSec *= 1 + float64(b.affBound*pl.spanFrac)
	}

	// --- Worksharing schedule: chunk overhead and residual imbalance. -----
	imbalance, schedOver := 0.0, 0.0
	switch cfg.Schedule {
	case openmp.ScheduleStatic, openmp.ScheduleAuto: // LLVM resolves auto to static
		imbalance = p.Imbalance * cpuSec
	case openmp.ScheduleDynamic:
		schedOver = b.schedDynamic
		imbalance = b.imbDynamic * cpuSec
	case openmp.ScheduleGuided:
		schedOver = b.schedGuided
		imbalance = b.imbGuided * cpuSec
	}

	// --- Memory (bandwidth share, latency locality). ----------------------
	memSec := 0.0
	if b.traffic > 0 {
		bwShare := 1.0
		if !pl.unbound {
			bwShare = float64(pl.nodesUsed) / float64(m.NUMANodes)
		}
		effBW := math.Min(m.MemBWGBs*bwShare, b.perCoreBW*effThreads)
		memSec = b.traffic / effBW
		if pl.unbound {
			memSec *= b.unboundMem
		}
	}

	// --- Fork/join, barriers, and the wait policy. ------------------------
	af := alignFactor(m, cfg.AlignAlloc)
	barrierAdj := 1 + float64((af-1)*0.5) // runtime flags share the same allocator
	forkSec := float64(p.Regions * (b.forkFixed + float64(b.barStages*barrierAdj)) * b.clockAdj)

	bt := cfg.EffectiveBlocktimeMS()
	wakeSec := 0.0
	switch {
	case bt == 0:
		wakeSec = b.wakeZero
	case bt > 0:
		wakeSec = b.wakeSome
	}

	// --- Explicit tasking: spawn cost and idle-event cost. ----------------
	taskSec := 0.0
	if b.task {
		perEvent := b.eventYield
		switch bt {
		case openmp.BlocktimeInfinite:
			perEvent = b.eventSpin
		case 0:
			perEvent = b.eventZero
		}
		idle := b.tasksIdle * perEvent / b.idleDiv
		taskSec = (idle + b.spawn) * pl.oversub
	}

	// --- Nested parallelism. ----------------------------------------------
	// Gated on the profile: flat applications (NestedRegions == 0) skip the
	// term entirely, so pre-nesting sweeps evaluate byte-identically.
	nestSec := 0.0
	if p.NestedRegions > 0 {
		innerW := nestedInnerWidth(*cfg, threads)
		// Each outer thread forks its own inner regions concurrently, so the
		// per-fork cost (base + per-inner-thread + inner join barrier)
		// amortizes across the outer team.
		innerStages := math.Log2(innerW + 1)
		nestSec = b.nestForks * (forkBaseSec + float64(forkPerThreadSec*innerW) +
			float64(barrierStageSec*innerStages*barrierAdj)) * b.clockAdj / b.fthreads
		// The nested share of the parallel work speeds up by the inner width,
		// but only idle cores can carry it: with the outer team already
		// filling the machine, wider inner teams just oversubscribe.
		innerSpeed := math.Min(innerW, b.nestCores)
		nestSec += float64(cpuSec * p.NestedFrac * (1/innerSpeed - 1))
	}

	// --- Reductions. -------------------------------------------------------
	redSec := 0.0
	if p.ReductionsPerRun > 0 {
		var perRed float64
		switch cfg.EffectiveReduction(threads) {
		case openmp.ReductionTree:
			perRed = b.redTree
		case openmp.ReductionCritical:
			perRed = b.redCritical
		case openmp.ReductionAtomic:
			perRed = b.redAtomic
		}
		redSec = b.redScale * perRed * b.clockAdj * af
	}

	return b.serialSec + cpuSec + imbalance + schedOver + memSec + forkSec + wakeSec + taskSec + redSec + nestSec
}

// nestedInnerWidth resolves the inner-team width a configuration grants a
// level-1 fork, mirroring the openmp runtime's rules: the OMP_NUM_THREADS
// list entry for level 1 (last entry extends), serialized to 1 when the
// effective OMP_MAX_ACTIVE_LEVELS is below 2, and clamped by the
// OMP_THREAD_LIMIT budget shared across the outer team's concurrent forks.
func nestedInnerWidth(cfg env.Config, threads int) float64 {
	list, err := openmp.ParseThreadList(cfg.NumThreadsList)
	if cfg.NumThreadsList == "" || err != nil {
		list = nil
	}
	levels := cfg.MaxActiveLevels
	if levels == 0 {
		if len(list) > 1 {
			levels = len(list)
		} else {
			levels = 1
		}
	}
	if levels < 2 {
		return 1
	}
	w := 1.0
	if len(list) > 0 {
		idx := 1
		if idx >= len(list) {
			idx = len(list) - 1
		}
		w = float64(list[idx])
	}
	if cfg.ThreadLimit > 0 {
		// The budget beyond the outer team is split across its threads'
		// concurrent forks; each fork keeps its own thread regardless.
		spare := float64(cfg.ThreadLimit-threads) / float64(threads)
		if spare < 0 {
			spare = 0
		}
		w = math.Min(w, 1+spare)
	}
	if w < 1 {
		w = 1
	}
	return w
}
