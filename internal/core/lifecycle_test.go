package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
)

// TestTaskIDTravels: a lifecycle ID stamped by the creator is visible in
// the executing callback wherever the task runs — across remote adds,
// steals, and deferred launches.
func TestTaskIDTravels(t *testing.T) {
	const n = 4
	const tasksPerRank = 24
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 512, MaxDeferred: 8})
		var bad atomic.Int64
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			// The body repeats the ID; they must agree after any transfer.
			if t.ID() != pgas.GetU64(t.Body()) {
				bad.Add(1)
			}
		})
		task := core.NewTask(h, 8)
		for i := 0; i < tasksPerRank; i++ {
			id := uint64(p.Rank())<<32 | uint64(i+1)
			task.SetID(id)
			pgas.PutU64(task.Body(), id)
			if err := tc.Add((p.Rank()+i)%n, core.AffinityLow, task); err != nil {
				panic(err)
			}
		}
		// One deferred task per rank: the ID must survive the pending pool
		// and the Satisfy-driven launch too.
		id := uint64(p.Rank())<<32 | uint64(1<<20)
		task.SetID(id)
		pgas.PutU64(task.Body(), id)
		dep, err := tc.AddDeferred(core.AffinityHigh, task, 1)
		if err != nil {
			panic(err)
		}
		tc.Satisfy(dep)
		tc.Process()
		if bad.Load() != 0 {
			panic(fmt.Sprintf("%d tasks executed with a wrong lifecycle ID", bad.Load()))
		}
		g := tc.GlobalStats()
		if want := int64(n*tasksPerRank + n); g.TasksExecuted != want {
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, want))
		}
	})
}

// TestExecHookSeesEveryCompletion: the completion hook fires exactly once
// per executed task, on the executing rank, with the callback's body
// scribbles visible, and the global hook count matches TasksExecuted.
func TestExecHookSeesEveryCompletion(t *testing.T) {
	const n = 3
	const tasks = 60
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 256})
		seg := p.AllocWords(1) // rank 0 accumulates hook firings
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			pgas.PutU64(t.Body(), t.ID()+1) // result written in place
		})
		var hookElapsedNeg bool
		tc.SetExecHook(func(tc *core.TC, t *core.Task, elapsed time.Duration) {
			if elapsed < 0 {
				hookElapsedNeg = true
			}
			if pgas.GetU64(t.Body()) != t.ID()+1 {
				panic(fmt.Sprintf("hook saw body %d for task %d: callback scribbles lost", pgas.GetU64(t.Body()), t.ID()))
			}
			p.FetchAdd64(0, seg, 0, 1)
		})
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < tasks; i++ {
				task.SetID(uint64(i + 1))
				if err := tc.Add(i%n, core.AffinityLow, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		if hookElapsedNeg {
			panic("hook saw negative elapsed time")
		}
		if got := p.Load64(0, seg, 0); got != tasks {
			panic(fmt.Sprintf("hook fired %d times, want %d", got, tasks))
		}
	})
}

// TestExecHookFiresOnInlineExec: the full-queue inline-execution fallback
// also notifies the hook (the serve gateway counts completions through it,
// so a silent inline path would leak submissions).
func TestExecHookFiresOnInlineExec(t *testing.T) {
	forBothTransports(t, 1, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		// MaxTasks 4 forces inline execution quickly.
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 4})
		fired := 0
		tc.SetExecHook(func(tc *core.TC, t *core.Task, elapsed time.Duration) { fired++ })
		var h core.Handle
		spawned := false
		h = tc.Register(func(tc *core.TC, t *core.Task) {
			if spawned {
				return
			}
			spawned = true
			child := core.NewTask(h, 8)
			for i := 0; i < 8; i++ { // overflows the 4-slot queue inline
				if err := tc.Add(0, core.AffinityHigh, child); err != nil {
					panic(err)
				}
			}
		})
		if err := tc.Add(0, core.AffinityHigh, core.NewTask(h, 8)); err != nil {
			panic(err)
		}
		tc.Process()
		if int64(fired) != tc.Stats().TasksExecuted {
			panic(fmt.Sprintf("hook fired %d times, executed %d", fired, tc.Stats().TasksExecuted))
		}
		if fired != 9 {
			panic(fmt.Sprintf("fired %d, want 9", fired))
		}
	})
}

// TestDescriptorSurvivesNestedInlineExecs: the descriptor a callback
// receives is the runtime's reusable one, valid until the callback and the
// exec hook return — also when the callback adds past the queue's capacity
// and its children (and theirs) run inline inside it. Every task arrives
// with its own body, finds it intact after the nested executions return,
// and the hook sees each task's own scribbled result.
func TestDescriptorSurvivesNestedInlineExecs(t *testing.T) {
	const fanout = 8
	const total = 1 + fanout + fanout*fanout
	forBothTransports(t, 1, func(tr pgas.Transport, p pgas.Proc) {
		tc := core.NewTC(core.Attach(p), core.Config{MaxBodySize: 8, MaxTasks: 4})
		hooked, depth, deepest := 0, 0, 0
		tc.SetExecHook(func(tc *core.TC, t *core.Task, _ time.Duration) {
			if got := pgas.GetU64(t.Body()); got != t.ID()+1000 {
				panic(fmt.Sprintf("hook saw body %d for task %d", got, t.ID()))
			}
			hooked++
		})
		var h core.Handle
		h = tc.Register(func(tc *core.TC, t *core.Task) {
			id := t.ID()
			if got := pgas.GetU64(t.Body()); got != id {
				panic(fmt.Sprintf("task %d arrived with body %d", id, got))
			}
			if depth++; depth > deepest {
				deepest = depth
			}
			if id < 100 { // the root (1) and its children (10..17) fan out
				child := core.NewTask(h, 8)
				for i := uint64(0); i < fanout; i++ {
					child.SetID(id*10 + i)
					pgas.PutU64(child.Body(), id*10+i)
					if err := tc.Add(0, core.AffinityHigh, child); err != nil {
						panic(err)
					}
				}
			}
			if t.ID() != id || pgas.GetU64(t.Body()) != id {
				panic(fmt.Sprintf("task %d: descriptor reads task %d, body %d after its nested executions", id, t.ID(), pgas.GetU64(t.Body())))
			}
			pgas.PutU64(t.Body(), id+1000)
			depth--
		})
		root := core.NewTask(h, 8)
		root.SetID(1)
		pgas.PutU64(root.Body(), 1)
		if err := tc.Add(0, core.AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
		if st := tc.Stats(); hooked != total || st.TasksExecuted != total || st.InlineExecs == 0 || deepest < 3 {
			panic(fmt.Sprintf("hook fired %d times, %d executed (%d inline, nesting %d), want %d with inline executions nested 3 deep",
				hooked, st.TasksExecuted, st.InlineExecs, deepest, total))
		}
	})
}
