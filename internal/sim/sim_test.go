package sim

import (
	"math"
	"testing"
	"testing/quick"

	"omptune/internal/env"
	"omptune/internal/topology"
	"omptune/openmp"
)

// testProfile is a neutral loop workload for exercising model mechanics.
func testProfile() *Profile {
	return &Profile{
		Name: "probe", Class: LoopParallel,
		SerialFrac: 0.01, CPUWorkGOps: 50, MemTrafficGB: 20, WorkGrowth: 1.0,
		Regions: 100, ItersPerRegion: 10000, Imbalance: 0.05,
		ReductionsPerRun: 100,
		MemSens:          0.5, CacheSens: 0.5,
	}
}

func taskProfile() *Profile {
	return &Profile{
		Name: "taskprobe", Class: TaskParallel,
		SerialFrac: 0.01, CPUWorkGOps: 20, MemTrafficGB: 1, WorkGrowth: 1.0,
		Regions: 1, Tasks: 1e6, AvgTaskUS: 10, TaskIdleFactor: 4,
	}
}

func defSetting(m *topology.Machine) Setting {
	return Setting{Label: "medium", Threads: m.Cores, Scale: 1.0}
}

func TestEvaluateDeterministic(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	cfg := env.Default(m)
	a := Evaluate(m, testProfile(), cfg, defSetting(m), 0)
	b := Evaluate(m, testProfile(), cfg, defSetting(m), 0)
	if a != b {
		t.Errorf("Evaluate not deterministic: %v vs %v", a, b)
	}
	if a <= 0 || math.IsNaN(a) {
		t.Errorf("Evaluate returned %v", a)
	}
}

func TestEvaluateRepsDifferOnX86NotA64FX(t *testing.T) {
	p := testProfile()
	mi := topology.MustGet(topology.Milan)
	cfg := env.Default(mi)
	r0 := Evaluate(mi, p, cfg, defSetting(mi), 0)
	r1 := Evaluate(mi, p, cfg, defSetting(mi), 1)
	if r0 <= r1 {
		t.Errorf("milan R0 %v should exceed R1 %v (warm-up drift)", r0, r1)
	}
	a := topology.MustGet(topology.A64FX)
	cfgA := env.Default(a)
	a0 := Evaluate(a, p, cfgA, defSetting(a), 0)
	a1 := Evaluate(a, p, cfgA, defSetting(a), 1)
	if math.Abs(a0-a1)/a0 > 0.01 {
		t.Errorf("a64fx reps differ by %v%%, want near-identical", 100*math.Abs(a0-a1)/a0)
	}
}

func TestMoreThreadsFasterUpToTheMachine(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	cfg := env.Default(m)
	p := testProfile()
	t10 := EvaluateExact(m, p, cfg, Setting{Label: "a", Threads: 10, Scale: 1})
	t20 := EvaluateExact(m, p, cfg, Setting{Label: "b", Threads: 20, Scale: 1})
	t40 := EvaluateExact(m, p, cfg, Setting{Label: "c", Threads: 40, Scale: 1})
	if !(t10 > t20 && t20 > t40) {
		t.Errorf("scaling broken: t10=%v t20=%v t40=%v", t10, t20, t40)
	}
}

func TestLargerInputSlower(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	cfg := env.Default(m)
	p := testProfile()
	small := EvaluateExact(m, p, cfg, Setting{Label: "s", Threads: 48, Scale: 0.4})
	large := EvaluateExact(m, p, cfg, Setting{Label: "l", Threads: 48, Scale: 2.5})
	if small >= large {
		t.Errorf("scale response broken: small=%v large=%v", small, large)
	}
}

func TestMasterBindingOnCoresIsCatastrophic(t *testing.T) {
	// §V-Q4: master binding with many threads is the worst trend.
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		def := env.Default(m)
		bad := def
		bad.Places = topology.PlaceCores
		bad.ProcBind = openmp.BindMaster
		set := defSetting(m)
		p := testProfile()
		tDef := EvaluateExact(m, p, def, set)
		tBad := EvaluateExact(m, p, bad, set)
		if tBad < 5*tDef {
			t.Errorf("%s: master-on-cores %v not clearly worse than default %v", arch, tBad, tDef)
		}
	}
}

func TestBindingHelpsOnMilanBarelyOnSkylake(t *testing.T) {
	p := testProfile()
	p.CacheSens = 2.0
	bound := func(m *topology.Machine) env.Config {
		c := env.Default(m)
		c.Places = topology.PlaceCores
		c.ProcBind = openmp.BindSpread
		return c
	}
	mi := topology.MustGet(topology.Milan)
	set := Setting{Label: "t", Threads: mi.Cores / 4, Scale: 1}
	gainMilan := EvaluateExact(mi, p, env.Default(mi), set) / EvaluateExact(mi, p, bound(mi), set)
	sk := topology.MustGet(topology.Skylake)
	setS := Setting{Label: "t", Threads: sk.Cores / 4, Scale: 1}
	gainSkylake := EvaluateExact(sk, p, env.Default(sk), setS) / EvaluateExact(sk, p, bound(sk), setS)
	if gainMilan < 1.2 {
		t.Errorf("milan binding gain %v, want substantial", gainMilan)
	}
	if gainSkylake > 1.1 {
		t.Errorf("skylake binding gain %v, want marginal", gainSkylake)
	}
	if gainMilan <= gainSkylake {
		t.Errorf("milan gain %v should exceed skylake gain %v", gainMilan, gainSkylake)
	}
}

func TestTurnaroundHelpsTaskApps(t *testing.T) {
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		def := env.Default(m)
		turn := def
		turn.Library = openmp.LibTurnaround
		set := defSetting(m)
		p := taskProfile()
		gain := EvaluateExact(m, p, def, set) / EvaluateExact(m, p, turn, set)
		if gain < 1.2 {
			t.Errorf("%s: turnaround gain %v for fine tasks, want > 1.2", arch, gain)
		}
	}
	// The gain is largest on A64FX (expensive yield syscalls).
	gains := map[topology.Arch]float64{}
	for _, arch := range topology.Arches() {
		m := topology.MustGet(arch)
		def := env.Default(m)
		turn := def
		turn.Library = openmp.LibTurnaround
		p := taskProfile()
		gains[arch] = EvaluateExact(m, p, def, defSetting(m)) / EvaluateExact(m, p, turn, defSetting(m))
	}
	if gains[topology.A64FX] <= gains[topology.Milan] {
		t.Errorf("a64fx turnaround gain %v should exceed milan %v", gains[topology.A64FX], gains[topology.Milan])
	}
}

func TestBlocktimeZeroHurts(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	def := env.Default(m)
	zero := def
	zero.BlocktimeMS = 0
	p := testProfile()
	p.Regions = 5000
	set := defSetting(m)
	if EvaluateExact(m, p, zero, set) <= EvaluateExact(m, p, def, set) {
		t.Error("blocktime=0 should cost wakeups on a many-region app")
	}
}

func TestDynamicScheduleTradesImbalanceForOverhead(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	def := env.Default(m)
	dyn := def
	dyn.Schedule = openmp.ScheduleDynamic
	set := defSetting(m)

	balanced := testProfile()
	balanced.Imbalance = 0
	balanced.ItersPerRegion = 1e6
	if EvaluateExact(m, balanced, dyn, set) <= EvaluateExact(m, balanced, def, set) {
		t.Error("dynamic should lose on a balanced fine-grained loop")
	}

	skewed := testProfile()
	skewed.Imbalance = 0.3
	skewed.ItersPerRegion = 2000
	if EvaluateExact(m, skewed, dyn, set) >= EvaluateExact(m, skewed, def, set) {
		t.Error("dynamic should win on a skewed coarse loop")
	}
}

func TestReductionMethodCostsOrdered(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	p := testProfile()
	p.ReductionsPerRun = 100000
	set := defSetting(m)
	times := map[openmp.ReductionMethod]float64{}
	for _, red := range []openmp.ReductionMethod{openmp.ReductionTree, openmp.ReductionCritical, openmp.ReductionAtomic} {
		cfg := env.Default(m)
		cfg.ForceReduction = red
		times[red] = EvaluateExact(m, p, cfg, set)
	}
	if times[openmp.ReductionCritical] <= times[openmp.ReductionTree] {
		t.Errorf("critical %v should cost more than tree %v at 40 threads", times[openmp.ReductionCritical], times[openmp.ReductionTree])
	}
	if times[openmp.ReductionAtomic] <= times[openmp.ReductionTree]*0.5 {
		t.Errorf("atomic %v implausibly cheap vs tree %v", times[openmp.ReductionAtomic], times[openmp.ReductionTree])
	}
}

func TestAlignmentEffectSmallButPresent(t *testing.T) {
	m := topology.MustGet(topology.Skylake)
	p := testProfile()
	p.ReductionsPerRun = 50000
	set := defSetting(m)
	c64 := env.Default(m) // align 64 = cache line
	c128 := c64
	c128.AlignAlloc = 128
	t64 := EvaluateExact(m, p, c64, set)
	t128 := EvaluateExact(m, p, c128, set)
	if t128 >= t64 {
		t.Error("128-byte alignment should beat 64 on Skylake's reduction path")
	}
	if (t64-t128)/t64 > 0.10 {
		t.Errorf("alignment effect %v too large — Fig 3 shows low relevance", (t64-t128)/t64)
	}
}

func TestPlacementProperties(t *testing.T) {
	f := func(archIdx, placeIdx, bindIdx, thr uint8) bool {
		arch := topology.Arches()[int(archIdx)%3]
		m := topology.MustGet(arch)
		places := append(env.PlaceKinds(), topology.PlaceNUMA)
		cfg := env.Default(m)
		cfg.Places = places[int(placeIdx)%len(places)]
		cfg.ProcBind = env.ProcBinds()[int(bindIdx)%len(env.ProcBinds())]
		threads := int(thr)%m.Cores + 1
		pi := placement(m, cfg, threads)
		if pi.oversub < 1 {
			return false
		}
		if !pi.unbound && (pi.nodesUsed < 1 || pi.nodesUsed > m.NUMANodes) {
			return false
		}
		if pi.spanFrac < 0 || pi.spanFrac > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatePositiveOverWholeSpace(t *testing.T) {
	m := topology.MustGet(topology.A64FX)
	p := testProfile()
	set := defSetting(m)
	for _, cfg := range env.Space(m) {
		v := EvaluateExact(m, p, cfg, set)
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("EvaluateExact(%s) = %v", cfg, v)
		}
	}
}

func TestQuantize(t *testing.T) {
	if quantize(0.13149) != 0.131 {
		t.Errorf("quantize(0.13149) = %v", quantize(0.13149))
	}
	if quantize(0.1316) != 0.132 {
		t.Errorf("quantize(0.1316) = %v", quantize(0.1316))
	}
}

func TestRNGHelpers(t *testing.T) {
	if hashString("a") == hashString("b") {
		t.Error("hash collision on trivial input")
	}
	if seed(1, 2) == seed(2, 1) {
		t.Error("seed should be order-sensitive")
	}
	// gauss should be roughly standard normal.
	n := 20000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		g := gauss(splitmix64(uint64(i)))
		sum += g
		sum2 += float64(g * g)
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - float64(mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Errorf("gauss mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("gauss variance %v, want ~1", variance)
	}
	for i := 0; i < 1000; i++ {
		u := uniform(splitmix64(uint64(i) * 977))
		if u <= 0 || u >= 1 {
			t.Fatalf("uniform out of range: %v", u)
		}
	}
}

func TestSettingsHelpers(t *testing.T) {
	m := topology.MustGet(topology.Milan)
	in := InputSettings(m)
	if len(in) != 3 || in[0].Label != "small" || in[2].Scale <= in[0].Scale {
		t.Errorf("InputSettings = %+v", in)
	}
	th := ThreadSettings(m)
	if len(th) != 3 || th[0].Threads != 24 || th[2].Threads != 96 {
		t.Errorf("ThreadSettings = %+v", th)
	}
	if th[0].Label != "t24" {
		t.Errorf("label = %s, want t24", th[0].Label)
	}
}
