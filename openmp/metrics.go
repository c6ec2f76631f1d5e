package openmp

import "time"

// DurationObserver receives one duration per observed event. The obs
// package's Histogram satisfies it; the interface lives here so the openmp
// package stays free of monitoring dependencies.
//
// Observe is called from region dispatch, barrier waits and task execution
// concurrently from every team thread — implementations must be safe for
// concurrent use and should not allocate or block.
type DurationObserver interface {
	Observe(d time.Duration)
}

// Metrics is the set of runtime latency sinks a monitor can attach with
// SetMetrics (hooks.go). Any field may be nil to skip that instrument;
// SetMetrics copies the struct, so later writes to it have no effect.
type Metrics struct {
	// Region receives the fork-to-join wall time of each parallel region,
	// measured on the primary thread around the full dispatch (generation
	// bump, wakes, body, end-of-region barrier).
	Region DurationObserver
	// BarrierWait receives the time each thread spends inside a barrier
	// wait — the implicit end-of-region barrier and explicit Thread.Barrier
	// calls alike. With n threads per region, expect n observations per
	// barrier; the spread between a barrier's fastest and slowest waiter is
	// the load imbalance the paper's barrier analysis targets.
	BarrierWait DurationObserver
	// TaskRun receives the body execution time of each explicit task,
	// excluding queue and steal overhead.
	TaskRun DurationObserver
}
