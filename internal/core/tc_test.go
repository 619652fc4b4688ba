package core_test

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// forBothTransports runs the body in a fresh world of each transport. The
// body receives the transport name: timing- and scheduling-sensitive
// assertions (e.g. "steals happened") are only meaningful on dsim, whose
// concurrency is virtual and deterministic; on a single-core host the shm
// transport may legitimately run one goroutine to completion first.
func forBothTransports(t *testing.T, n int, body func(tr pgas.Transport, p pgas.Proc)) {
	t.Helper()
	for _, tr := range []struct {
		name pgas.Transport
		mk   func() pgas.World
	}{
		{pgas.TransportSHM, func() pgas.World { return shm.NewWorld(shm.Config{NProcs: n, Seed: 3}) }},
		{pgas.TransportDSim, func() pgas.World { return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3}) }},
	} {
		t.Run(string(tr.name), func(t *testing.T) {
			name := tr.name
			if err := tr.mk().Run(func(p pgas.Proc) { body(name, p) }); err != nil {
				t.Fatalf("world failed: %v", err)
			}
		})
	}
}

// execCounter is the common-local-object used by tests to count executions
// per process.
type execCounter struct{ n int64 }

// noopTask registers a callback that bumps the process-local counter and
// models a little work.
func noopTask(rt *core.Runtime, tc *core.TC) core.Handle {
	h := rt.RegisterCLO(&execCounter{})
	return tc.Register(func(tc *core.TC, t *core.Task) {
		tc.Runtime().CLO(h).(*execCounter).n++
		tc.Proc().Compute(500 * time.Nanosecond)
	})
}

// TestProcessExecutesEverySeededTask: every seeded task is executed exactly
// once, no matter which rank seeded it or where it ran.
func TestProcessExecutesEverySeededTask(t *testing.T) {
	const n = 4
	const perRank = 200
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 4, MaxTasks: 4096})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		for i := 0; i < perRank; i++ {
			if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if g.TasksExecuted != n*perRank {
			panic(fmt.Sprintf("executed %d tasks, want %d", g.TasksExecuted, n*perRank))
		}
		if g.TasksAdded != n*perRank {
			panic(fmt.Sprintf("added %d tasks, want %d", g.TasksAdded, n*perRank))
		}
	})
}

// TestImbalancedSeedIsBalanced: all work seeded on rank 0 must still be
// fully executed, and stealing must spread it to other ranks.
func TestImbalancedSeedIsBalanced(t *testing.T) {
	const n = 4
	const total = 400
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 4, MaxTasks: 4096})
		cloH := rt.RegisterCLO(&execCounter{})
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			tc.Runtime().CLO(cloH).(*execCounter).n++
			tc.Proc().Compute(20 * time.Microsecond)
		})
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < total; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if g.TasksExecuted != total {
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, total))
		}
		// Distribution assertions are only deterministic on the virtual-time
		// transport; on a one-core host, shm may legitimately let rank 0
		// drain the whole queue within a scheduling quantum.
		if tr == pgas.TransportDSim {
			if g.StealsOK == 0 {
				panic("no successful steals despite a fully imbalanced seed")
			}
			mine := tc.Runtime().CLO(cloH).(*execCounter).n
			if p.Rank() != 0 && mine == 0 {
				panic(fmt.Sprintf("rank %d executed nothing", p.Rank()))
			}
		}
	})
}

// TestDynamicSpawning: tasks spawn subtasks forming a complete k-ary tree;
// the executed count must equal the tree size.
func TestDynamicSpawning(t *testing.T) {
	const n = 4
	const branch = 3
	const depth = 5 // (3^6-1)/2 = 364 nodes
	want := int64(0)
	for d, c := 0, int64(1); d <= depth; d++ {
		want += c
		c *= branch
	}
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 8192})
		var h core.Handle
		h = tc.Register(func(tc *core.TC, t *core.Task) {
			d := pgas.GetI64(t.Body())
			tc.Proc().Compute(time.Microsecond)
			if d >= depth {
				return
			}
			child := core.NewTask(h, 8)
			pgas.PutI64(child.Body(), d+1)
			for i := 0; i < branch; i++ {
				if err := tc.Add(tc.Runtime().Rank(), core.AffinityHigh, child); err != nil {
					panic(err)
				}
			}
		})
		if p.Rank() == 0 {
			root := core.NewTask(h, 8)
			pgas.PutI64(root.Body(), 0)
			if err := tc.Add(0, core.AffinityHigh, root); err != nil {
				panic(err)
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if g.TasksExecuted != want {
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, want))
		}
	})
}

// TestRemoteAdds: seeding into other ranks' patches via one-sided adds.
func TestRemoteAdds(t *testing.T) {
	const n = 5
	const perRank = 50
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		dst := (p.Rank() + 1) % n
		for i := 0; i < perRank; i++ {
			if err := tc.Add(dst, core.AffinityLow, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if g.TasksExecuted != n*perRank {
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, n*perRank))
		}
		if g.RemoteInserts != n*perRank {
			panic(fmt.Sprintf("remote inserts %d, want %d", g.RemoteInserts, n*perRank))
		}
	})
}

// TestStealingDisabled: with load balancing off, every task runs where it
// was placed.
func TestStealingDisabled(t *testing.T) {
	const n = 4
	const perRank = 100
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024, DisableStealing: true})
		cloH := rt.RegisterCLO(&execCounter{})
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			tc.Runtime().CLO(cloH).(*execCounter).n++
		})
		task := core.NewTask(h, 8)
		for i := 0; i < perRank; i++ {
			if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		if mine := rt.CLO(cloH).(*execCounter).n; mine != perRank {
			panic(fmt.Sprintf("rank %d executed %d, want exactly its own %d", p.Rank(), mine, perRank))
		}
		g := tc.GlobalStats()
		if g.StealAttempts != 0 {
			panic("steal attempts recorded with stealing disabled")
		}
	})
}

// TestLockedQueueMode: the no-split ablation must still be correct.
func TestLockedQueueMode(t *testing.T) {
	const n = 4
	const total = 300
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{
			MaxBodySize: 8, ChunkSize: 4, MaxTasks: 2048, QueueMode: core.ModeLocked,
		})
		h := noopTask(rt, tc)
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < total; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if g.TasksExecuted != total {
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, total))
		}
	})
}

// TestColoringAblation: disabling the §5.3 optimization must not change
// the executed-task count, and must eliminate elisions.
func TestColoringAblation(t *testing.T) {
	const n = 6
	const total = 200
	for _, disable := range []bool{false, true} {
		name := "optimized"
		if disable {
			name = "always-mark"
		}
		t.Run(name, func(t *testing.T) {
			forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
				rt := core.Attach(p)
				tc := core.NewTC(rt, core.Config{
					MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048, DisableColoringOpt: disable,
				})
				h := noopTask(rt, tc)
				if p.Rank() == 0 {
					task := core.NewTask(h, 8)
					for i := 0; i < total; i++ {
						if err := tc.Add(0, core.AffinityHigh, task); err != nil {
							panic(err)
						}
					}
				}
				tc.Process()
				g := tc.GlobalStats()
				if g.TasksExecuted != total {
					panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, total))
				}
				if disable && g.DirtyMarksElided != 0 {
					panic("elisions recorded with the optimization disabled")
				}
			})
		})
	}
}

// TestEmptyCollection: processing an empty collection terminates promptly.
func TestEmptyCollection(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
			rt := core.Attach(p)
			tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 64})
			noopTask(rt, tc)
			tc.Process()
			if g := tc.GlobalStats(); g.TasksExecuted != 0 {
				panic("executed tasks in an empty collection")
			}
		})
	}
}

// TestSingleProcess: the degenerate world still works end to end.
func TestSingleProcess(t *testing.T) {
	forBothTransports(t, 1, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 256})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		for i := 0; i < 100; i++ {
			if err := tc.Add(0, core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		if g := tc.Stats(); g.TasksExecuted != 100 {
			panic(fmt.Sprintf("executed %d, want 100", g.TasksExecuted))
		}
	})
}

// TestResetAndReuse: a collection can be reset and processed repeatedly
// (phase-based task parallelism).
func TestResetAndReuse(t *testing.T) {
	const n = 3
	const phases = 4
	const perPhase = 60
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 512})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		for ph := 0; ph < phases; ph++ {
			for i := 0; i < perPhase; i++ {
				if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			tc.Process()
			tc.Reset()
		}
		g := tc.GlobalStats()
		if g.TasksExecuted != n*phases*perPhase {
			panic(fmt.Sprintf("executed %d across phases, want %d", g.TasksExecuted, n*phases*perPhase))
		}
	})
}

// TestAffinityExecutionOrder: on a single process, high-affinity tasks are
// executed before low-affinity ones (head vs. tail placement).
func TestAffinityExecutionOrder(t *testing.T) {
	forBothTransports(t, 1, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 256})
		var order []int64
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			order = append(order, pgas.GetI64(t.Body()))
		})
		task := core.NewTask(h, 8)
		// Interleave: even ids high affinity, odd ids low affinity.
		for i := int64(0); i < 20; i++ {
			aff := core.AffinityHigh
			if i%2 == 1 {
				aff = core.AffinityLow
			}
			pgas.PutI64(task.Body(), i)
			if err := tc.Add(0, aff, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		if len(order) != 20 {
			panic(fmt.Sprintf("executed %d, want 20", len(order)))
		}
		// All high-affinity (even) ids must appear before any low-affinity
		// (odd) id: highs live in the private portion processed first.
		lastHigh, firstLow := -1, len(order)
		for i, id := range order {
			if id%2 == 0 && i > lastHigh {
				lastHigh = i
			}
			if id%2 == 1 && i < firstLow {
				firstLow = i
			}
		}
		if lastHigh > firstLow {
			panic(fmt.Sprintf("low-affinity task ran before a high-affinity one: order %v", order))
		}
	})
}

// TestInlineExecutionOnFullQueue: a tiny queue forces the work-first
// fallback, which must still execute everything exactly once.
func TestInlineExecutionOnFullQueue(t *testing.T) {
	const n = 2
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 4, ChunkSize: 1})
		var h core.Handle
		h = tc.Register(func(tc *core.TC, t *core.Task) {
			d := pgas.GetI64(t.Body())
			if d >= 6 {
				return
			}
			child := core.NewTask(h, 8)
			pgas.PutI64(child.Body(), d+1)
			for i := 0; i < 2; i++ {
				if err := tc.Add(tc.Runtime().Rank(), core.AffinityHigh, child); err != nil {
					panic(err)
				}
			}
		})
		if p.Rank() == 0 {
			root := core.NewTask(h, 8)
			if err := tc.Add(0, core.AffinityHigh, root); err != nil {
				panic(err)
			}
		}
		tc.Process()
		g := tc.GlobalStats()
		if want := int64(1<<7 - 1); g.TasksExecuted != want { // binary tree of depth 6
			panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, want))
		}
		if g.InlineExecs == 0 {
			panic("expected inline executions with a 4-slot queue")
		}
	})
}

// TestErrFullOutsideProcessing: seeding beyond capacity reports ErrFull.
func TestErrFullOutsideProcessing(t *testing.T) {
	forBothTransports(t, 1, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 8})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		var sawFull bool
		for i := 0; i < 20; i++ {
			if err := tc.Add(0, core.AffinityHigh, task); err != nil {
				if err != core.ErrFull {
					panic(err)
				}
				sawFull = true
			}
		}
		if !sawFull {
			panic("overfilling a seeded queue did not report ErrFull")
		}
		tc.Process()
	})
}

// TestAddValidation: bad handles, oversized bodies, and bad ranks error.
func TestAddValidation(t *testing.T) {
	forBothTransports(t, 2, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 16})
		h := noopTask(rt, tc)
		if err := tc.Add(0, 0, core.NewTask(core.Handle(99), 4)); err == nil {
			panic("unregistered handle accepted")
		}
		if err := tc.Add(0, 0, core.NewTask(h, 64)); err == nil {
			panic("oversized body accepted")
		}
		if err := tc.Add(7, 0, core.NewTask(h, 4)); err == nil {
			panic("invalid rank accepted")
		}
		tc.Process()
	})
}

// TestChunkSizeSweep: correctness is chunk-size independent.
func TestChunkSizeSweep(t *testing.T) {
	const n = 4
	const total = 240
	for _, chunk := range []int{1, 3, 10, 64} {
		t.Run(fmt.Sprintf("chunk%d", chunk), func(t *testing.T) {
			forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
				rt := core.Attach(p)
				tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: chunk, MaxTasks: 1024})
				h := noopTask(rt, tc)
				if p.Rank() == 0 {
					task := core.NewTask(h, 8)
					for i := 0; i < total; i++ {
						if err := tc.Add(0, core.AffinityHigh, task); err != nil {
							panic(err)
						}
					}
				}
				tc.Process()
				if g := tc.GlobalStats(); g.TasksExecuted != total {
					panic(fmt.Sprintf("executed %d, want %d", g.TasksExecuted, total))
				}
			})
		})
	}
}

// TestTaskBodyIntegrity: task bodies survive remote adds and steals intact.
func TestTaskBodyIntegrity(t *testing.T) {
	const n = 4
	const perRank = 100
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 64, ChunkSize: 3, MaxTasks: 1024})
		sumH := rt.RegisterCLO(&execCounter{})
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			// Body: id int64 followed by a checksum pattern.
			id := pgas.GetI64(t.Body())
			for i := 8; i < 64; i++ {
				if t.Body()[i] != byte((id+int64(i))%251) {
					panic(fmt.Sprintf("task %d body corrupted at byte %d", id, i))
				}
			}
			tc.Runtime().CLO(sumH).(*execCounter).n += id
		})
		task := core.NewTask(h, 64)
		base := int64(p.Rank()) * perRank
		for i := int64(0); i < perRank; i++ {
			id := base + i
			pgas.PutI64(task.Body(), id)
			for j := 8; j < 64; j++ {
				task.Body()[j] = byte((id + int64(j)) % 251)
			}
			if err := tc.Add((p.Rank()+int(i))%n, core.AffinityLow, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		// Sum of all ids must match n*perRank*(n*perRank-1)/2 globally.
		seg := p.AllocWords(1)
		p.FetchAdd64(0, seg, 0, rt.CLO(sumH).(*execCounter).n)
		p.Barrier()
		if p.Rank() == 0 {
			total := int64(n * perRank)
			want := total * (total - 1) / 2
			if got := p.Load64(0, seg, 0); got != want {
				panic(fmt.Sprintf("id sum %d, want %d", got, want))
			}
		}
	})
}

// TestDeterministicOnDsim: identical seeds give identical global stats.
func TestDeterministicOnDsim(t *testing.T) {
	runOnce := func() core.Stats {
		var out core.Stats
		w := dsim.NewWorld(dsim.Config{NProcs: 6, Seed: 11})
		if err := w.Run(func(p pgas.Proc) {
			rt := core.Attach(p)
			tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
			var h core.Handle
			h = tc.Register(func(tc *core.TC, t *core.Task) {
				d := pgas.GetI64(t.Body())
				tc.Proc().Compute(time.Duration(1+d) * time.Microsecond)
				if d < 6 {
					c := core.NewTask(h, 8)
					pgas.PutI64(c.Body(), d+1)
					tc.Add(tc.Runtime().Rank(), core.AffinityHigh, c)
					tc.Add(tc.Runtime().Rank(), core.AffinityHigh, c)
				}
			})
			if p.Rank() == 0 {
				root := core.NewTask(h, 8)
				tc.Add(0, core.AffinityHigh, root)
			}
			tc.Process()
			if g := tc.GlobalStats(); p.Rank() == 0 {
				out = g
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("dsim task processing not deterministic:\n%v\nvs\n%v", a.String(), b.String())
	}
}
