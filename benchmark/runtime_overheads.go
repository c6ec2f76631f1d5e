package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"omptune/openmp"
)

// slot is a per-thread counter on its own cache lines: the side effect an
// "empty" construct body leaves so the block can be checked.
type slot struct {
	n int64
	_ [120]byte
}

func sumSlots(s []slot) int64 {
	var t int64
	for i := range s {
		t += s[i].n
	}
	return t
}

// construct is one EPCC-style overhead cell: run executes n instances of
// the construct on rt and returns the side-effect count, which must equal
// want(n, team size).
type construct struct {
	name string
	// ops is the fixed operation count of one block per wait policy
	// (turnaround, throughput with KMP_BLOCKTIME=0), sized to about 80 ms
	// at the costs of the commit that added the benchmark.
	ops  [2]int
	opts func(o *openmp.Options, threads int)
	run  func(rt *openmp.Runtime, n int) int64
	want func(n, threads int) int64
}

const fibN = 16

// fibTasks is the number of tasks the recursive fib(n) below spawns.
func fibTasks(n int) int64 {
	if n < 2 {
		return 0
	}
	return 1 + fibTasks(n-1) + fibTasks(n-2)
}

func fibValue(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func perThread(n, threads int) int64 { return int64(n) * int64(threads) }
func once(n, _ int) int64            { return int64(n) }

// inRegion runs body(th, slot) on every thread of one region and returns
// the slots' sum.
func inRegion(rt *openmp.Runtime, body func(th *openmp.Thread, s *slot)) int64 {
	slots := make([]slot, rt.NumThreads())
	rt.Parallel(func(th *openmp.Thread) { body(th, &slots[th.ID()]) })
	return sumSlots(slots)
}

func forLoop(rt *openmp.Runtime, n int) int64 {
	return inRegion(rt, func(th *openmp.Thread, s *slot) {
		iter := func(int) { s.n++ }
		for i := 0; i < n; i++ {
			th.For(128, iter)
		}
	})
}

func forWant(n, _ int) int64 { return int64(n) * 128 }

func schedule(kind openmp.ScheduleKind, chunk int) func(*openmp.Options, int) {
	return func(o *openmp.Options, _ int) { o.Schedule, o.ChunkSize = kind, chunk }
}

func reduction(method openmp.ReductionMethod) func(*openmp.Options, int) {
	return func(o *openmp.Options, _ int) { o.Reduction = method }
}

func reduceSum(rt *openmp.Runtime, n int) int64 {
	var total float64
	rt.Parallel(func(th *openmp.Thread) {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += th.ReduceSum(1)
		}
		if th.ID() == 0 {
			total = sum
		}
	})
	return int64(total)
}

var constructs = []construct{
	{name: "parallel", ops: [2]int{60_000, 70_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			slots := make([]slot, rt.NumThreads())
			body := func(th *openmp.Thread) { slots[th.ID()].n++ }
			for i := 0; i < n; i++ {
				rt.Parallel(body)
			}
			return sumSlots(slots)
		}, want: perThread},
	{name: "barrier", ops: [2]int{120_000, 120_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			return inRegion(rt, func(th *openmp.Thread, s *slot) {
				for i := 0; i < n; i++ {
					th.Barrier()
					s.n++
				}
			})
		}, want: perThread},
	{name: "for_static", ops: [2]int{115_000, 65_000}, opts: schedule(openmp.ScheduleStatic, 0), run: forLoop, want: forWant},
	{name: "for_dynamic1", ops: [2]int{13_000, 20_000}, opts: schedule(openmp.ScheduleDynamic, 1), run: forLoop, want: forWant},
	{name: "for_guided", ops: [2]int{40_000, 50_000}, opts: schedule(openmp.ScheduleGuided, 0), run: forLoop, want: forWant},
	{name: "single", ops: [2]int{170_000, 170_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			var ran atomic.Int64
			fn := func() { ran.Add(1) }
			rt.Parallel(func(th *openmp.Thread) {
				for i := 0; i < n; i++ {
					th.Single(fn)
				}
			})
			return ran.Load()
		}, want: once},
	{name: "critical", ops: [2]int{1_400_000, 1_400_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			var guarded int64
			fn := func() { guarded++ }
			rt.Parallel(func(th *openmp.Thread) {
				for i := 0; i < n/th.NumThreads(); i++ {
					th.Critical("bench", fn)
				}
			})
			return guarded
		}, want: evenShare},
	{name: "lock_contended", ops: [2]int{1_400_000, 1_400_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			l := rt.NewLock()
			var guarded int64
			rt.Parallel(func(th *openmp.Thread) {
				for i := 0; i < n/th.NumThreads(); i++ {
					l.Lock()
					guarded++
					l.Unlock()
				}
			})
			return guarded
		}, want: evenShare},
	{name: "reduce_tree", ops: [2]int{32_000, 32_000}, opts: reduction(openmp.ReductionTree), run: reduceSum, want: perThread},
	{name: "reduce_atomic", ops: [2]int{52_000, 52_000}, opts: reduction(openmp.ReductionAtomic), run: reduceSum, want: perThread},
	{name: "task_spawn", ops: [2]int{280_000, 250_000},
		run: func(rt *openmp.Runtime, n int) int64 {
			before := rt.Stats().TasksRun
			rt.Parallel(func(th *openmp.Thread) {
				th.Single(func() {
					for i := 0; i < n; i++ {
						th.Task(func(*openmp.Thread) {})
					}
					th.TaskWait()
				})
			})
			return int64(rt.Stats().TasksRun - before)
		}, want: once},
	{name: "task_fib", ops: [2]int{190 * 1596, 190 * 1596}, // whole fib(16) trees: fibTasks(16) = 1596 tasks each
		run: func(rt *openmp.Runtime, n int) int64 {
			var fib func(th *openmp.Thread, k int) int64
			fib = func(th *openmp.Thread, k int) int64 {
				if k < 2 {
					return int64(k)
				}
				var x int64
				th.Task(func(inner *openmp.Thread) { x = fib(inner, k-1) })
				y := fib(th, k-2)
				th.TaskWait()
				return x + y
			}
			before := rt.Stats().TasksRun
			wrong := false
			for i := int64(0); i < int64(n)/fibTasks(fibN); i++ {
				rt.Parallel(func(th *openmp.Thread) {
					th.Single(func() { wrong = wrong || fib(th, fibN) != fibValue(fibN) })
				})
			}
			if wrong {
				return -1
			}
			return int64(rt.Stats().TasksRun - before)
		}, want: func(n, _ int) int64 { return int64(n) / fibTasks(fibN) * fibTasks(fibN) }},
	{name: "nested_forkjoin", ops: [2]int{58_000, 68_000},
		// A one-thread outer region forking a T-wide inner team from the
		// thread's hot-team cache: real nested dispatch without putting more
		// runnable threads on the box than it has vCPUs.
		opts: func(o *openmp.Options, threads int) {
			o.NumThreads = 1
			o.ThreadsPerLevel = []int{1, threads}
			o.MaxActiveLevels = 2
		},
		run: func(rt *openmp.Runtime, n int) int64 {
			var slots []slot
			inner := func(th *openmp.Thread) { slots[th.ID()].n++ }
			rt.Parallel(func(th *openmp.Thread) {
				th.Parallel(func(in *openmp.Thread) {
					in.Master(func() { slots = make([]slot, in.NumThreads()) })
				})
				for i := 0; i < n; i++ {
					th.Parallel(inner)
				}
			})
			return sumSlots(slots)
		}, want: perThread},
}

// evenShare is what n/T operations on each of T threads add up to.
func evenShare(n, threads int) int64 { return int64(n/threads) * int64(threads) }

var policyNames = [2]string{"turnaround", "throughput"}

// cell is one (construct, wait policy) pair.
type cell struct {
	c      *construct
	policy int
	blocks []time.Duration
	allocs uint64
}

func (c *cell) String() string { return c.c.name + "/" + policyNames[c.policy] }

// newRuntime builds the runtime a cell runs on. Schedule, reduction method
// and nesting are fixed when a runtime is built, so every block gets its
// own; it is warmed before the clock starts and closed after it stops, and
// only one runtime is alive at a time, because an idle turnaround team
// spins on the vCPUs the next cell needs.
func newRuntime(c *construct, policy, threads int) (*openmp.Runtime, error) {
	o := openmp.DefaultOptions()
	o.NumThreads = threads
	if policy == 0 {
		o.Library = openmp.LibTurnaround
	} else {
		o.Library, o.BlocktimeMS = openmp.LibThroughput, 0
	}
	if c.opts != nil {
		c.opts(&o, threads)
	}
	return openmp.New(o)
}

// sensor switches one of the runtime's three instrumentation seams on and
// off around a block.
type sensor struct {
	name string
	on   func(rt *openmp.Runtime) error
	off  func(rt *openmp.Runtime) (dropped uint64)
}

type countObserver struct{ n atomic.Int64 }

func (o *countObserver) Observe(time.Duration) { o.n.Add(1) }

var sensors = []sensor{
	// Rings of 2^21 events a thread hold a whole block, so what is timed
	// is the emit path and trace.dropped shows when that stops being true.
	{"trace", func(rt *openmp.Runtime) error { return rt.StartTrace(1 << 21) },
		func(rt *openmp.Runtime) uint64 { return rt.StopTrace().Dropped }},
	{"profile", func(rt *openmp.Runtime) error { return rt.StartProfile() },
		func(rt *openmp.Runtime) uint64 { rt.StopProfile(); return 0 }},
	{"metrics", func(rt *openmp.Runtime) error {
		obs := &countObserver{}
		rt.SetMetrics(&openmp.Metrics{Region: obs, BarrierWait: obs, TaskRun: obs})
		return nil
	}, func(rt *openmp.Runtime) uint64 { rt.SetMetrics(nil); return 0 }},
}

// runBlock builds a runtime, warms it with a fiftieth of the count, times
// one block of n operations and checks its side-effect count.
func runBlock(r *run, c *construct, policy, n int, s *sensor) (time.Duration, uint64, uint64, error) {
	var rt *openmp.Runtime
	var err error
	r.timed("openmp", "New+warm", func() {
		if rt, err = newRuntime(c, policy, r.threads); err == nil {
			c.run(rt, max(n/50, int(fibTasks(fibN))))
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer r.timed("openmp", "Close", rt.Close)
	if s != nil {
		r.timed("openmp", s.name+" on", func() { err = s.on(rt) })
		if err != nil {
			return 0, 0, 0, err
		}
	}
	name := c.name + "/" + policyNames[policy]
	if s != nil {
		name += "+" + s.name
	}
	var got int64
	before := r.mallocs()
	d := r.timed("openmp", name, func() { got = c.run(rt, n) })
	allocs := r.mallocs() - before
	var dropped uint64
	if s != nil {
		r.timed("openmp", s.name+" off", func() { dropped = s.off(rt) })
	}
	r.check(got == c.want(n, r.threads), "%s: side-effect count %d, want %d for %d operations on %d threads",
		name, got, c.want(n, r.threads), n, r.threads)
	return d, allocs, dropped, nil
}

func runtimeOverheads(r *run) (int, error) {
	runtime.GOMAXPROCS(r.threads)
	setup := r.rec.begin("benchmark", "setup")
	r.samplePair()
	var cells []*cell
	for i := range constructs {
		for p := range policyNames {
			cells = append(cells, &cell{c: &constructs[i], policy: p})
		}
	}
	ops := func(c *cell) int { return max(c.c.ops[c.policy]/r.sz.opsDiv, int(fibTasks(fibN))) }

	// References: every construct on a one-thread team, where the
	// side-effect count follows from the operation count alone. Then a
	// warm-up pass over the 26 cells at half size.
	for _, c := range cells {
		rt, err := newRuntime(c.c, c.policy, 1)
		if err != nil {
			return r.threads, err
		}
		n := ops(c)
		got := c.c.run(rt, n)
		rt.Close()
		r.check(got == c.c.want(n, 1), "%s on one thread: side-effect count %d, want %d", c, got, c.c.want(n, 1))
	}
	for _, i := range r.rng.perm(len(cells)) {
		if _, _, _, err := runBlock(r, cells[i].c, cells[i].policy, ops(cells[i])/2, nil); err != nil {
			return r.threads, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.rec.end(setup)
	runtime.GC()
	r.endSetup()

	// Rounds are interleaved: each visits every cell once, in a seeded
	// order of its own.
	for round := 0; round < r.sz.rounds; round++ {
		pass := r.rec.begin("benchmark", "pass")
		for _, i := range r.rng.perm(len(cells)) {
			c := cells[i]
			d, allocs, _, err := runBlock(r, c.c, c.policy, ops(c), nil)
			if err != nil {
				return r.threads, err
			}
			c.blocks = append(c.blocks, d)
			c.allocs += allocs
		}
		r.rec.end(pass)
		r.samplePair()
	}

	wall, totalOps, totalAllocs := 0.0, 0.0, 0.0
	var nsPerOp, medians []float64
	perConstruct := map[string][]float64{}
	var parkRatios []float64
	for i, c := range cells {
		med := median(seconds(c.blocks))
		ns := med * 1e9 / float64(ops(c))
		wall += med
		medians = append(medians, med)
		nsPerOp = append(nsPerOp, ns)
		perConstruct[c.c.name] = append(perConstruct[c.c.name], ns)
		totalOps += float64(ops(c)) * float64(len(c.blocks))
		totalAllocs += float64(c.allocs)
		if c.policy == 1 {
			parkRatios = append(parkRatios, ns/nsPerOp[i-1])
		}
	}
	r.set("wall_s", wall, medians)
	r.set("work_per_s", 1e9/geomean(nsPerOp), nil)
	r.set("allocs_per_work", totalAllocs/totalOps, nil)

	if r.opt.trace {
		for _, c := range constructs {
			r.set("openmp."+c.name+"_ns", geomean(perConstruct[c.name]), perConstruct[c.name])
		}
		r.set("openmp.park_ratio", geomean(parkRatios), parkRatios)
		for _, c := range cells {
			perOp := float64(c.allocs) / (float64(ops(c)) * float64(len(c.blocks)))
			switch c.String() {
			case "parallel/throughput":
				r.set("openmp.allocs_per_op.parallel_park", perOp, nil)
			case "barrier/throughput":
				r.set("openmp.allocs_per_op.barrier_park", perOp, nil)
			case "reduce_tree/turnaround":
				r.set("openmp.allocs_per_op.reduce_tree", perOp, nil)
			case "task_spawn/turnaround":
				r.set("openmp.allocs_per_op.task_spawn", perOp, nil)
			}
		}
		if err := sensorProbes(r, cells); err != nil {
			return r.threads, err
		}
	}
	return r.threads, nil
}

// sensorProbes measures what each instrumentation seam costs when on:
// parallel, for_dynamic1 and task_spawn under turnaround with the sensor on
// ÷ off, as a geometric mean over the three constructs of the median ratio
// of three on/off pairs.
func sensorProbes(r *run, cells []*cell) error {
	pass := r.rec.begin("benchmark", "pass:probes")
	defer r.rec.end(pass)
	var dropped uint64
	for si := range sensors {
		s := &sensors[si]
		var ratios []float64
		for _, c := range cells {
			if c.policy != 0 || (c.c.name != "parallel" && c.c.name != "for_dynamic1" && c.c.name != "task_spawn") {
				continue
			}
			n := max(c.c.ops[0]/r.sz.opsDiv, int(fibTasks(fibN)))
			var pairs []float64
			for i := 0; i < 3; i++ {
				off, _, _, err := runBlock(r, c.c, 0, n, nil)
				if err != nil {
					return err
				}
				on, _, d, err := runBlock(r, c.c, 0, n, s)
				if err != nil {
					return err
				}
				dropped += d
				pairs = append(pairs, on.Seconds()/off.Seconds())
			}
			ratios = append(ratios, median(pairs))
		}
		r.set("openmp."+s.name+"_on_ratio", geomean(ratios), ratios)
	}
	r.set("trace.dropped", float64(dropped), nil)
	return nil
}
