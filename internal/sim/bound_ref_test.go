package sim

import (
	"math"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// This file freezes the model as it was before problems were bound: one
// EvaluateExact that recomputed every configuration-free term per call, and
// a newSeries/at pair over it. bound_test.go holds Bind, Series, Evaluate,
// EvaluateSeries and EvaluateExact to it bit for bit. It is a test
// reference only; do not change it to follow the model. Each product that
// meets a sum is written float64(x*y), as in the model, so the arm64
// build's FMADDD check covers this file too; on amd64 the conversion
// changes nothing.

type refSeriesT struct {
	exact   float64
	base    uint64
	persist float64
	drift   []float64
	repSig  float64
}

func refNewSeries(m *topology.Machine, p *Profile, cfg env.Config, key string, set Setting) refSeriesT {
	base := seed(hashString(p.Name), hashString(string(m.Arch)), hashString(key), hashString(set.Label))
	return refSeriesT{
		exact:   refEvaluateExact(m, p, cfg, set),
		base:    base,
		persist: 1 + float64(m.NoiseSigma*gauss(base)),
		drift:   runDrift[string(m.Arch)],
		repSig:  repSigma(string(m.Arch)),
	}
}

func (s refSeriesT) at(rep int) float64 {
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

func refEvaluateExact(m *topology.Machine, p *Profile, cfg env.Config, set Setting) float64 {
	threads := set.Threads
	if threads < 1 {
		threads = 1
	}
	grow := math.Pow(set.Scale, p.WorkGrowth)
	clockAdj := 2.4 / m.ClockGHz
	pl := placement(m, cfg, threads)
	scatter := lookup(osScatter, m.Arch, 0.10)

	coreRate := m.ClockGHz * 1e9 * p.ipc(m.Arch)
	totalCPU := p.CPUWorkGOps * 1e9 * grow / coreRate
	serialSec := float64(p.SerialFrac * totalCPU)
	effThreads := float64(threads) / pl.oversub
	cpuSec := (1 - p.SerialFrac) * totalCPU / effThreads
	idleFrac := 0.3
	if p.Class == LoopParallel {
		util := float64(threads) / float64(m.Cores)
		idleFrac = math.Max(0.03, 1.03-util)
	}
	affinity := scatter * p.CacheSens * lookup(cacheTerm, m.Arch, 0.5) * idleFrac
	if pl.unbound {
		cpuSec *= 1 + float64(affinity)
	} else {
		cpuSec *= 1 + float64(affinity*0.6*pl.spanFrac)
	}

	itersTotal := p.ItersPerRegion * p.Regions * grow
	imbalance, schedOver := 0.0, 0.0
	switch cfg.Schedule {
	case openmp.ScheduleStatic, openmp.ScheduleAuto:
		imbalance = p.Imbalance * cpuSec
	case openmp.ScheduleDynamic:
		contention := 1 + float64(float64(threads)/64)
		schedOver = itersTotal * chunkDispatchSec * clockAdj * contention / float64(threads)
		imbalance = 0.08 * p.Imbalance * cpuSec
	case openmp.ScheduleGuided:
		chunks := p.Regions * 2 * float64(threads) * math.Log(p.ItersPerRegion/float64(threads)+2)
		schedOver = chunks * chunkDispatchSec * clockAdj / float64(threads)
		imbalance = 0.15 * p.Imbalance * cpuSec
	}

	traffic := p.MemTrafficGB * grow
	memSec := 0.0
	if traffic > 0 {
		bwShare := 1.0
		if !pl.unbound {
			bwShare = float64(pl.nodesUsed) / float64(m.NUMANodes)
		}
		perCoreBW := 2.2 * m.MemBWGBs / float64(m.Cores)
		effBW := math.Min(m.MemBWGBs*bwShare, perCoreBW*effThreads)
		memSec = traffic / effBW
		if pl.unbound {
			firstTouchLoss := float64((1 - 1/float64(m.NUMANodes)) * 0.8)
			sizeFactor := 1.0
			if p.MemSizeExp > 0 {
				sizeFactor = math.Min(1.2, math.Pow(set.Scale/2.5, p.MemSizeExp))
			}
			memSec *= 1 + float64(scatter*sizeFactor*p.MemSens*((avgDist(m)-1)+firstTouchLoss))
		}
	}

	stages := math.Log2(float64(threads) + 1)
	af := alignFactor(m, cfg.AlignAlloc)
	barrierAdj := 1 + float64((af-1)*0.5)
	forkSec := float64(p.Regions * (forkBaseSec + float64(forkPerThreadSec*float64(threads)) +
		float64(barrierStageSec*stages*barrierAdj)) * clockAdj)

	wakeSec := 0.0
	switch bt := cfg.EffectiveBlocktimeMS(); {
	case bt == 0:
		wakeSec = p.Regions * m.WakeupMicros * 1e-6 * (1 + stages)
	case bt > 0:
		wakeSec = 0.02 * p.Regions * m.WakeupMicros * 1e-6 * (1 + stages)
	}

	taskSec := 0.0
	if p.Class == TaskParallel && p.Tasks > 0 {
		tasks := p.Tasks * grow
		yield := lookup(yieldEventCost, m.Arch, 1.0e-6)
		var perEvent float64
		switch bt := cfg.EffectiveBlocktimeMS(); {
		case bt == openmp.BlocktimeInfinite:
			perEvent = spinEventSec * clockAdj
		case bt == 0:
			perEvent = float64(0.25*m.WakeupMicros*1e-6) + float64(0.75*yield)
		default:
			perEvent = yield
		}
		idle := tasks * p.TaskIdleFactor * perEvent / math.Pow(float64(threads), 0.7)
		spawn := tasks * taskSpawnSec * clockAdj / float64(threads)
		taskSec = (idle + spawn) * pl.oversub
	}

	redSec := 0.0
	if p.ReductionsPerRun > 0 {
		var perRed float64
		sockets := float64(m.Sockets)
		switch cfg.EffectiveReduction(threads) {
		case openmp.ReductionTree:
			perRed = math.Ceil(math.Log2(float64(threads)+1)) * treeStageSec
		case openmp.ReductionCritical:
			perRed = float64(threads) * critHandoffSec * (1 + float64(0.4*(sockets-1)))
		case openmp.ReductionAtomic:
			perRed = float64(threads) * atomicOpSec * (1 + float64(0.6*(sockets-1)))
		}
		redSec = p.ReductionsPerRun * grow * perRed * clockAdj * af
	}

	return serialSec + cpuSec + imbalance + schedOver + memSec + forkSec + wakeSec + taskSec + redSec
}
