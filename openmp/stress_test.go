package openmp

// Randomized stress testing: generate small random programs over the
// runtime's constructs and check them against sequential semantics. Every
// construct keeps a commutative account (atomic adds), so the expected
// totals are schedule- and interleaving-independent.

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// stressProgram is a deterministic random program over the construct set.
type stressProgram struct {
	ops []stressOp
}

type stressOp struct {
	kind  int // 0=For 1=ForNowait+Barrier 2=Single 3=Tasks 4=Reduce 5=Critical
	size  int
	extra int
}

func buildProgram(seed uint64, maxOps int) stressProgram {
	var p stressProgram
	state := seed*2862933555777941757 + 3037000493
	n := int(state%uint64(maxOps)) + 1
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		p.ops = append(p.ops, stressOp{
			kind:  int((state >> 33) % 6),
			size:  int((state>>13)%97) + 1,
			extra: int((state >> 3) % 7),
		})
	}
	return p
}

// expected returns the total the program should add to the account.
func (p stressProgram) expected(teamSize int) int64 {
	var total int64
	for _, op := range p.ops {
		switch op.kind {
		case 0, 1: // loops: one increment per iteration
			total += int64(op.size)
		case 2: // single: exactly one
			total++
		case 3: // tasks: one per task
			total += int64(op.size % 20)
		case 4: // reduction: team sum of thread ids = n(n-1)/2, checked live
			total += int64(teamSize * (teamSize - 1) / 2)
		case 5: // critical: one per thread
			total += int64(teamSize)
		}
	}
	return total
}

func (p stressProgram) run(rt *Runtime, account *atomic.Int64, t *testing.T) {
	teamSize := rt.NumThreads()
	rt.Parallel(func(th *Thread) {
		for _, op := range p.ops {
			switch op.kind {
			case 0:
				th.For(op.size, func(i int) { account.Add(1) })
			case 1:
				th.ForNowait(op.size, func(i int) { account.Add(1) })
				th.Barrier()
			case 2:
				th.Single(func() { account.Add(1) })
			case 3:
				if th.ID() == op.extra%teamSize {
					for k := 0; k < op.size%20; k++ {
						th.Task(func(*Thread) { account.Add(1) })
					}
					th.TaskWait()
				}
				th.Barrier()
			case 4:
				got := th.ReduceSum(float64(th.ID()))
				want := float64(teamSize*(teamSize-1)) / 2
				if got != want {
					t.Errorf("stress reduction = %v, want %v", got, want)
				}
				th.Master(func() { account.Add(int64(want)) })
				th.Barrier()
			case 5:
				th.Critical("stress", func() { account.Add(1) })
				th.Barrier()
			}
		}
	})
}

func TestStressRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	configs := []func(*Options){
		nil,
		func(o *Options) { o.Schedule = ScheduleDynamic },
		func(o *Options) { o.Schedule = ScheduleGuided; o.Library = LibTurnaround },
		func(o *Options) { o.NumThreads = 2; o.Reduction = ReductionAtomic },
		func(o *Options) { o.NumThreads = 5; o.Reduction = ReductionCritical; o.ChunkSize = 3 },
	}
	f := func(seed uint16, cfgIdx uint8) bool {
		mutate := configs[int(cfgIdx)%len(configs)]
		o := DefaultOptions()
		o.NumThreads = 3
		o.BlocktimeMS = 0
		if mutate != nil {
			mutate(&o)
		}
		rt, err := New(o)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer rt.Close()
		p := buildProgram(uint64(seed)+1, 12)
		var account atomic.Int64
		p.run(rt, &account, t)
		want := p.expected(rt.NumThreads())
		if got := account.Load(); got != want {
			t.Logf("seed %d cfg %d: account = %d, want %d", seed, cfgIdx, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
