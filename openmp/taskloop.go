package openmp

import "sync/atomic"

// TaskGroup waits for ALL tasks spawned inside body (by any thread, at any
// nesting depth) to complete before returning — the OpenMP taskgroup
// construct, which is deeper than TaskWait's direct-children semantics.
//
// Implementation: tasks created while a group is active carry a group
// counter that descendant spawns inherit; the encountering thread waits for
// it to drain the way TaskWait waits for children.
func (th *Thread) TaskGroup(body func(*Thread)) {
	g := &taskGroup{}
	prev := th.curGroup
	th.curGroup = g
	body(th)
	th.curGroup = prev
	th.taskWaitLoop(func() bool { return g.pending.Load() <= 0 })
}

type taskGroup struct {
	pending atomic.Int64
}

// TaskLoop divides the iteration range [0, n) into roughly numTasks explicit
// tasks (the OpenMP taskloop construct with num_tasks). numTasks <= 0 picks
// 4 tasks per team thread, LLVM's default heuristic shape. TaskLoop returns
// when every iteration has executed (it carries an implicit taskgroup).
func (th *Thread) TaskLoop(n int, numTasks int, body func(i int)) {
	if n <= 0 {
		return
	}
	if numTasks <= 0 {
		numTasks = 4 * th.NumThreads()
	}
	if numTasks > n {
		numTasks = n
	}
	th.TaskGroup(func(inner *Thread) {
		for t := 0; t < numTasks; t++ {
			lo := t * n / numTasks
			hi := (t + 1) * n / numTasks
			inner.Task(func(*Thread) {
				for i := lo; i < hi; i++ {
					body(i)
				}
			})
		}
	})
}

// For2D is a convenience for collapse(2)-style worksharing: the n*m
// iteration space is flattened and divided by the configured schedule.
func (th *Thread) For2D(n, m int, body func(i, j int)) {
	th.For(n*m, func(k int) { body(k/m, k%m) })
}
