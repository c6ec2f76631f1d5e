package openmp

// EPCC-syncbench-style overhead microbenchmarks. Where bench_test.go
// measures whole operations (a region containing a 4096-iteration loop),
// these isolate the runtime's own per-construct overhead — fork–join
// dispatch, barrier passage, per-schedule loop dispatch with an empty body,
// single, critical, lock and reduction — the quantities KMP_LIBRARY and
// KMP_BLOCKTIME tune. Sub-benchmark names are benchstat-friendly: run with
// `make bench` and compare snapshots with
//
//	benchstat before.txt after.txt
//
// as recorded in EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// waitPolicies are the KMP_LIBRARY variants whose fork–join cost the paper
// contrasts: throughput parks workers after the blocktime budget (here 0, so
// immediately), turnaround spins forever.
var waitPolicies = []struct {
	name   string
	mutate func(*Options)
}{
	{"policy=throughput", nil},
	{"policy=turnaround", func(o *Options) { o.Library = LibTurnaround }},
}

// forWidths runs bench as one sub-benchmark per team width, with mutate's
// options at that width: T = 4 and T = GOMAXPROCS. On a box with fewer than
// four Ps, T = 4 is oversubscribed and every wait yields from its first
// poll; at T = GOMAXPROCS the threads fit and waits poll tight first
// (wait.go).
func forWidths(b *testing.B, mutate func(*Options), bench func(b *testing.B, rt *Runtime)) {
	widths := []int{4}
	if p := runtime.GOMAXPROCS(0); p != 4 {
		widths = append(widths, p)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("threads=%d", w), func(b *testing.B) {
			bench(b, benchRuntime(b, func(o *Options) {
				o.NumThreads = w
				if mutate != nil {
					mutate(o)
				}
			}))
		})
	}
}

// BenchmarkOverheadParallel measures bare region dispatch: an empty body on
// a warm hot team. The steady state must be 0 allocs/op.
func BenchmarkOverheadParallel(b *testing.B) {
	for _, p := range waitPolicies {
		b.Run(p.name, func(b *testing.B) {
			forWidths(b, p.mutate, func(b *testing.B, rt *Runtime) {
				body := func(*Thread) {}
				rt.Parallel(body)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.Parallel(body)
				}
			})
		})
	}
}

// BenchmarkOverheadBarrier measures one barrier passage inside a live
// region, per wait policy.
func BenchmarkOverheadBarrier(b *testing.B) {
	for _, p := range waitPolicies {
		b.Run(p.name, func(b *testing.B) {
			forWidths(b, p.mutate, func(b *testing.B, rt *Runtime) {
				b.ReportAllocs()
				b.ResetTimer()
				rt.Parallel(func(th *Thread) {
					for i := 0; i < b.N; i++ {
						th.Barrier()
					}
				})
			})
		})
	}
}

// BenchmarkOverheadFor measures worksharing-loop dispatch overhead: a
// 128-iteration empty loop inside a single long-lived region, so the number
// isolates schedule dispatch (construct claim, chunk handout, end barrier)
// from fork–join.
func BenchmarkOverheadFor(b *testing.B) {
	schedules := []struct {
		name  string
		sched ScheduleKind
		chunk int
	}{
		{"sched=static", ScheduleStatic, 0},
		{"sched=static_c8", ScheduleStatic, 8},
		{"sched=dynamic_c1", ScheduleDynamic, 1},
		{"sched=dynamic_c8", ScheduleDynamic, 8},
		{"sched=guided", ScheduleGuided, 0},
	}
	for _, s := range schedules {
		b.Run(s.name, func(b *testing.B) {
			forWidths(b, func(o *Options) {
				o.Schedule = s.sched
				o.ChunkSize = s.chunk
				o.Library = LibTurnaround
			}, func(b *testing.B, rt *Runtime) {
				var sink atomic.Int64
				iter := func(j int) {
					if j == 0 {
						sink.Add(1)
					}
				}
				b.ResetTimer()
				rt.Parallel(func(th *Thread) {
					for i := 0; i < b.N; i++ {
						th.For(128, iter)
					}
				})
			})
		})
	}
}

// BenchmarkOverheadSingle measures the single construct: one ring
// claim/release plus a winner CAS per op, nowait, so fast threads run ahead
// and exercise slot recycling.
func BenchmarkOverheadSingle(b *testing.B) {
	rt := benchRuntime(b, func(o *Options) { o.Library = LibTurnaround })
	b.ResetTimer()
	rt.Parallel(func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Single(func() {})
		}
	})
}

// BenchmarkOverheadCritical measures a named critical section under team
// contention: the name→lock resolution is the cached sync.Map fast path.
func BenchmarkOverheadCritical(b *testing.B) {
	rt := benchRuntime(b, func(o *Options) { o.Library = LibTurnaround })
	n := 0
	b.ResetTimer()
	rt.Parallel(func(th *Thread) {
		per := b.N / th.NumThreads()
		for i := 0; i < per; i++ {
			th.Critical("bench", func() { n++ })
		}
	})
	_ = n
}

// BenchmarkOverheadReduce measures one team-wide sum reduction per op, per
// reduction method (KMP_FORCE_REDUCTION).
func BenchmarkOverheadReduce(b *testing.B) {
	methods := []struct {
		name   string
		method ReductionMethod
	}{
		{"red=tree", ReductionTree},
		{"red=atomic", ReductionAtomic},
		{"red=critical", ReductionCritical},
	}
	for _, m := range methods {
		b.Run(m.name, func(b *testing.B) {
			rt := benchRuntime(b, func(o *Options) {
				o.Reduction = m.method
				o.Library = LibTurnaround
			})
			b.ResetTimer()
			rt.Parallel(func(th *Thread) {
				for i := 0; i < b.N; i++ {
					th.ReduceSum(1)
				}
			})
		})
	}
}

// BenchmarkOverheadTracing contrasts the disabled-tracing hot path (one
// nil check of the region's observer snapshot per instrumented site) with
// tracing fully enabled
// (timestamped ring emits at every site) on the two hottest instrumented
// operations: bare region dispatch and a dynamic-schedule loop. With
// tracing on, the per-thread rings fill after the first few thousand
// regions and later emits take the drop path; the drop branch pays the
// same loads as a successful emit minus the event store, so the trace=on
// number is a tight floor for steady-state emit cost. Tracing must not add
// allocations in either mode: region dispatch stays 0 allocs/op, and the
// dynamic loop keeps only its per-For descriptor allocation.
func BenchmarkOverheadTracing(b *testing.B) {
	modes := []struct {
		name   string
		traced bool
	}{
		{"trace=off", false},
		{"trace=on", true},
	}
	ops := []struct {
		name string
		op   func(rt *Runtime, body func(*Thread))
	}{
		{"op=parallel", func(rt *Runtime, body func(*Thread)) { rt.Parallel(body) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			for _, m := range modes {
				b.Run(m.name, func(b *testing.B) {
					rt := benchRuntime(b, func(o *Options) { o.Library = LibTurnaround })
					body := func(*Thread) {}
					rt.Parallel(body)
					if m.traced {
						if err := rt.StartTrace(0); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						op.op(rt, body)
					}
					b.StopTimer()
					if m.traced {
						rt.StopTrace()
					}
				})
			}
		})
	}
	b.Run("op=for_dynamic", func(b *testing.B) {
		for _, m := range modes {
			b.Run(m.name, func(b *testing.B) {
				rt := benchRuntime(b, func(o *Options) {
					o.Schedule = ScheduleDynamic
					o.ChunkSize = 8
					o.Library = LibTurnaround
				})
				iter := func(int) {}
				rt.Parallel(func(th *Thread) { th.For(128, iter) })
				if m.traced {
					if err := rt.StartTrace(0); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				rt.Parallel(func(th *Thread) {
					for i := 0; i < b.N; i++ {
						th.For(128, iter)
					}
				})
				b.StopTimer()
				if m.traced {
					rt.StopTrace()
				}
			})
		}
	})
}

// BenchmarkOverheadProfiling contrasts the disabled-profiler hot path (the
// same nil checks) with profiling fully enabled
// (per-thread shard stamps at start/arrive plus the primary-thread fold into
// the aggregate table at join) on bare region dispatch and a
// dynamic-schedule loop. Both modes must stay allocation-free: only a call
// site's first fold allocates (its table row), so steady state is 0
// allocs/op with profiling on, and region dispatch keeps its usual alloc
// profile with profiling off.
func BenchmarkOverheadProfiling(b *testing.B) {
	modes := []struct {
		name     string
		profiled bool
	}{
		{"profile=off", false},
		{"profile=on", true},
	}
	b.Run("op=parallel", func(b *testing.B) {
		for _, m := range modes {
			b.Run(m.name, func(b *testing.B) {
				rt := benchRuntime(b, func(o *Options) { o.Library = LibTurnaround })
				body := func(*Thread) {}
				rt.Parallel(body)
				if m.profiled {
					if err := rt.StartProfile(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.Parallel(body)
				}
				b.StopTimer()
				if m.profiled {
					rt.StopProfile()
				}
			})
		}
	})
	b.Run("op=for_dynamic", func(b *testing.B) {
		for _, m := range modes {
			b.Run(m.name, func(b *testing.B) {
				rt := benchRuntime(b, func(o *Options) {
					o.Schedule = ScheduleDynamic
					o.ChunkSize = 8
					o.Library = LibTurnaround
				})
				iter := func(int) {}
				rt.Parallel(func(th *Thread) { th.For(128, iter) })
				if m.profiled {
					if err := rt.StartProfile(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				rt.Parallel(func(th *Thread) {
					for i := 0; i < b.N; i++ {
						th.For(128, iter)
					}
				})
				b.StopTimer()
				if m.profiled {
					rt.StopProfile()
				}
			})
		}
	})
}

// BenchmarkNestedForkJoin measures a full depth-2 fork–join: a 2-thread
// outer region in which each thread forks a 2-thread inner region through
// its cached hot team. Steady state must be 0 allocs/op — the nested
// headline criterion. Turnaround keeps all waits on the spin path.
func BenchmarkNestedForkJoin(b *testing.B) {
	rt := benchRuntime(b, func(o *Options) {
		o.NumThreads = 2
		o.ThreadsPerLevel = []int{2, 2}
		o.MaxActiveLevels = 2
		o.Library = LibTurnaround
	})
	innerBody := func(*Thread) {}
	body := func(th *Thread) { th.Parallel(innerBody) }
	for i := 0; i < 10; i++ {
		rt.Parallel(body) // warm the outer and per-thread inner hot teams
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(body)
	}
}

// BenchmarkOuterOnlyRegression guards the outer-region fast path: nesting
// is fully configured (width list, active levels, thread limit) but never
// used, and the bare outer dispatch must cost the same as
// BenchmarkOverheadParallel — the nesting machinery may not tax flat code.
func BenchmarkOuterOnlyRegression(b *testing.B) {
	rt := benchRuntime(b, func(o *Options) {
		o.ThreadsPerLevel = []int{4, 2}
		o.MaxActiveLevels = 2
		o.ThreadLimit = 16
		o.Library = LibTurnaround
	})
	body := func(*Thread) {}
	rt.Parallel(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Parallel(body)
	}
}

// BenchmarkOverheadStats measures the Stats() snapshot itself, which now
// walks the per-thread shards.
func BenchmarkOverheadStats(b *testing.B) {
	rt := benchRuntime(b, nil)
	rt.Parallel(func(*Thread) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Stats()
	}
}
