package openmp

import (
	"sync/atomic"
	"testing"
	"time"
)

// testMetricsOpts is DefaultOptions with a fixed team size and an infinite
// blocktime, so AllocsPerRun never races a worker parking mid-measurement.
func testMetricsOpts(n int) Options {
	o := DefaultOptions()
	o.NumThreads = n
	o.BlocktimeMS = BlocktimeInfinite
	return o
}

// countingObserver is an allocation-free DurationObserver for tests.
type countingObserver struct {
	n   atomic.Uint64
	sum atomic.Int64
}

func (o *countingObserver) Observe(d time.Duration) {
	o.n.Add(1)
	o.sum.Add(int64(d))
}

func TestMetricsRegionBarrierTask(t *testing.T) {
	rt := MustNew(testMetricsOpts(4))
	defer rt.Close()

	var region, barrier, taskRun countingObserver
	rt.SetMetrics(&Metrics{Region: &region, BarrierWait: &barrier, TaskRun: &taskRun})

	const regions = 3
	for r := 0; r < regions; r++ {
		rt.Parallel(func(th *Thread) {
			if th.ID() == 0 {
				for i := 0; i < 5; i++ {
					th.Task(func(*Thread) {})
				}
			}
			th.Barrier()
		})
	}

	if got := region.n.Load(); got != regions {
		t.Errorf("region observations = %d, want %d", got, regions)
	}
	// Each region: one explicit Barrier + the implicit end-of-region
	// barrier, each crossed by all 4 threads. Worker-side observations of
	// the last implicit barrier may trail Parallel's return (the primary
	// passes the join before the workers finish their own wait spans), so
	// poll briefly for the final count.
	wantBarrier := uint64(regions * 2 * 4)
	if got := waitCount(&barrier, wantBarrier); got != wantBarrier {
		t.Errorf("barrier-wait observations = %d, want %d", got, wantBarrier)
	}
	if got := taskRun.n.Load(); got != regions*5 {
		t.Errorf("task-run observations = %d, want %d", got, regions*5)
	}
	if region.sum.Load() <= 0 {
		t.Error("region durations did not accumulate")
	}

	// Detach: no further observations.
	rt.SetMetrics(nil)
	rt.Parallel(func(th *Thread) { th.Barrier() })
	if got := region.n.Load(); got != regions {
		t.Errorf("region observations after detach = %d, want %d", got, regions)
	}
}

// TestMetricsDisabledZeroAlloc pins the acceptance criterion that the
// disabled metrics path adds zero allocations to region dispatch, and that
// the enabled path with allocation-free observers stays at zero too.
func TestMetricsDisabledZeroAlloc(t *testing.T) {
	rt := MustNew(testMetricsOpts(2))
	defer rt.Close()
	body := func(th *Thread) {}

	rt.Parallel(body) // warm the hot team
	if avg := testing.AllocsPerRun(50, func() { rt.Parallel(body) }); avg != 0 {
		t.Errorf("disabled metrics: %v allocs/region, want 0", avg)
	}

	var obsv countingObserver
	rt.SetMetrics(&Metrics{Region: &obsv, BarrierWait: &obsv, TaskRun: &obsv})
	rt.Parallel(body)
	if avg := testing.AllocsPerRun(50, func() { rt.Parallel(body) }); avg != 0 {
		t.Errorf("enabled metrics: %v allocs/region, want 0", avg)
	}
	if obsv.n.Load() == 0 {
		t.Error("enabled metrics saw no observations")
	}
}

func TestMetricsNilFieldsSkip(t *testing.T) {
	rt := MustNew(testMetricsOpts(2))
	defer rt.Close()
	var region countingObserver
	rt.SetMetrics(&Metrics{Region: &region}) // BarrierWait and TaskRun nil
	rt.Parallel(func(th *Thread) {
		th.Task(func(*Thread) {})
		th.Barrier()
	})
	if region.n.Load() != 1 {
		t.Errorf("region observations = %d, want 1", region.n.Load())
	}
}
