package core_test

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// TestMultipleCollectionsPhased reproduces the paper's phase-based pattern:
// "multiple task collections may be added to while one is being processed."
// Tasks executing in collection A spawn follow-up tasks into collection B
// (on random remote ranks); B is processed in a second phase.
func TestMultipleCollectionsPhased(t *testing.T) {
	const n = 4
	const seedTasks = 120
	forBothTransports(t, n, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tcA := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024, ChunkSize: 3})
		tcB := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024, ChunkSize: 3})

		hB := tcB.Register(func(tc *core.TC, t *core.Task) {
			tc.Proc().Compute(time.Microsecond)
		})
		// A-tasks spawn two B-tasks each, one local and one on a random rank.
		hA := tcA.Register(func(tc *core.TC, t *core.Task) {
			child := core.NewTask(hB, 8)
			me := tc.Runtime().Rank()
			if err := tcB.Add(me, core.AffinityHigh, child); err != nil {
				panic(err)
			}
			dst := tc.Proc().Rand().Intn(tc.Runtime().NProcs())
			if err := tcB.Add(dst, core.AffinityLow, child); err != nil {
				panic(err)
			}
		})

		task := core.NewTask(hA, 8)
		for i := 0; i < seedTasks; i++ {
			if err := tcA.Add(p.Rank(), core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tcA.Process()
		gA := tcA.GlobalStats()
		if gA.TasksExecuted != n*seedTasks {
			panic(fmt.Sprintf("phase A executed %d, want %d", gA.TasksExecuted, n*seedTasks))
		}

		tcB.Process()
		gB := tcB.GlobalStats()
		if gB.TasksExecuted != 2*n*seedTasks {
			panic(fmt.Sprintf("phase B executed %d, want %d", gB.TasksExecuted, 2*n*seedTasks))
		}
	})
}

// TestTerminationAdversarial hunts for premature termination: tasks spawn
// remotely with random fan-out and random targets across many seeds, so
// passive/active churn exercises every token-coloring path. Any lost task
// shows up as an executed-count mismatch; premature termination would also
// typically hang the final barrier (caught by dsim's deadlock detector).
func TestTerminationAdversarial(t *testing.T) {
	const n = 7
	for seed := int64(0); seed < 12; seed++ {
		for _, disableOpt := range []bool{false, true} {
			w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed})
			var executed, expected int64
			if err := w.Run(func(p pgas.Proc) {
				rt := core.Attach(p)
				tc := core.NewTC(rt, core.Config{
					MaxBodySize:        16,
					MaxTasks:           1 << 12,
					ChunkSize:          2,
					DisableColoringOpt: disableOpt,
				})
				var h core.Handle
				h = tc.Register(func(tc *core.TC, t *core.Task) {
					depth := pgas.GetI64(t.Body())
					tc.Proc().Compute(time.Duration(tc.Proc().Rand().Intn(3000)) * time.Nanosecond)
					if depth >= 5 {
						return
					}
					// Spawn 0-3 children on random ranks: remote adds into
					// possibly-passive victims are the dangerous case.
					kids := tc.Proc().Rand().Intn(4)
					child := core.NewTask(h, 16)
					pgas.PutI64(child.Body(), depth+1)
					for i := 0; i < kids; i++ {
						dst := tc.Proc().Rand().Intn(tc.Runtime().NProcs())
						if err := tc.Add(dst, int32(i%3), child); err != nil {
							panic(err)
						}
					}
				})
				if p.Rank() == 0 {
					root := core.NewTask(h, 16)
					for i := 0; i < 8; i++ {
						if err := tc.Add(i%p.NProcs(), core.AffinityHigh, root); err != nil {
							panic(err)
						}
					}
				}
				tc.Process()
				g := tc.GlobalStats()
				if p.Rank() == 0 {
					executed = g.TasksExecuted
					expected = g.TasksAdded
				}
			}); err != nil {
				t.Fatalf("seed %d opt=%v: %v", seed, !disableOpt, err)
			}
			if executed != expected || executed < 8 {
				t.Fatalf("seed %d opt=%v: executed %d of %d added tasks", seed, !disableOpt, executed, expected)
			}
		}
	}
}

// TestProcessTwiceWithoutReset: a second Process on an already-drained
// collection must terminate immediately rather than hang.
func TestProcessTwiceWithoutReset(t *testing.T) {
	forBothTransports(t, 3, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 64})
		h := noopTask(rt, tc)
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			if err := tc.Add(0, core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		tc.Process()
		tc.Process() // drained: must detect termination again
		if g := tc.GlobalStats(); g.TasksExecuted != 1 {
			panic(fmt.Sprintf("executed %d, want 1", g.TasksExecuted))
		}
	})
}

// TestPendingLocal: the local size probe tracks seeding and processing.
func TestPendingLocal(t *testing.T) {
	forBothTransports(t, 2, func(tr pgas.Transport, p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 64})
		h := noopTask(rt, tc)
		task := core.NewTask(h, 8)
		for i := 0; i < 5; i++ {
			if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
				panic(err)
			}
		}
		if got := tc.PendingLocal(); got != 5 {
			panic(fmt.Sprintf("pending %d, want 5", got))
		}
		tc.Process()
		if got := tc.PendingLocal(); got != 0 {
			panic(fmt.Sprintf("pending after process %d, want 0", got))
		}
	})
}

// barrierClock is a proc that notes the clock on either side of every
// barrier. It unwraps to the kernel, so the queue finds dsim's virtual
// clock behind it and charges its owner costs.
type barrierClock struct {
	pgas.Proc
	enter, leave []time.Duration
}

func (b *barrierClock) Unwrap() pgas.Kernel { return b.Proc }

func (b *barrierClock) Barrier() {
	b.enter = append(b.enter, b.Proc.Now())
	b.Proc.Barrier()
	b.leave = append(b.leave, b.Proc.Now())
}

// TestWorkPlusIdleIsThePhaseLoop: Stats.WorkTime and Stats.IdleTime
// partition the phase loop — on every rank their sum is, to the
// nanosecond of virtual time, what passed between the barrier that opens
// the loop and the one that closes it, over two phases of an imbalanced
// workload that is stolen, released and reacquired.
func TestWorkPlusIdleIsThePhaseLoop(t *testing.T) {
	const n = 4
	if err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 17}).Run(func(p pgas.Proc) {
		clock := &barrierClock{Proc: p}
		tc := core.NewTC(core.Attach(clock), core.Config{MaxBodySize: 8, MaxTasks: 1024, ChunkSize: 4})
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			tc.Proc().Compute(15 * time.Microsecond)
		})
		var loops time.Duration
		for phase := 0; phase < 2; phase++ {
			if p.Rank() == phase {
				task := core.NewTask(h, 8)
				for i := 0; i < 200; i++ {
					if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
						panic(err)
					}
				}
			}
			tc.Process()
			// Process is barrier, detector reset, barrier, loop, barrier.
			last := len(clock.enter) - 1
			loops += clock.enter[last] - clock.leave[last-1]
			tc.Reset()
		}
		st := tc.Stats()
		if st.WorkTime+st.IdleTime != loops || st.WorkTime <= 0 || st.IdleTime <= 0 {
			panic(fmt.Sprintf("work %v + idle %v, the two phase loops took %v", st.WorkTime, st.IdleTime, loops))
		}
		if g := tc.GlobalStats(); g.TasksStolen == 0 || g.Releases == 0 {
			panic("vacuous: nothing was stolen")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
