package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// ownerCycle is one steady-state trip down the owner path: a local add,
// the pop that brings the task back, and its execution.
func ownerCycle(tc *TC, task *Task) {
	if err := tc.Add(tc.rt.Rank(), AffinityHigh, task); err != nil {
		panic(err)
	}
	t, ok := tc.popLocal()
	if !ok {
		panic("core: the task just added is not there to pop")
	}
	tc.execute(t)
}

// BenchmarkOwnerPath times what the runtime adds to a task that never
// leaves its rank — Add, pop, execute of an empty callback — on shm with
// one rank, for both queue disciplines. split-probed adds a second rank
// that spins empty steal probes on the owner's packed word throughout: the
// cost of whatever the owner path writes to the cache line the probes
// read. split-spawn runs phases of a 4-ary tree of empty callbacks, each
// task added by its parent's callback, and reports ns/task: the bypass,
// the spawn buffer and its pushes, the pops and the phase loop. The
// steady state allocates nothing (TestOwnerPathZeroAllocs is the hard
// assertion).
func BenchmarkOwnerPath(b *testing.B) {
	for _, c := range []struct {
		name          string
		mode          QueueMode
		probed, spawn bool
	}{
		{"split", ModeSplit, false, false},
		{"locked", ModeLocked, false, false},
		{"split-probed", ModeSplit, true, false},
		{"split-spawn", ModeSplit, false, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 1
			if c.probed {
				n = 2
			}
			if err := shm.NewWorld(shm.Config{NProcs: n, Seed: 5}).Run(func(p pgas.Proc) {
				tc := NewTC(Attach(p), Config{MaxBodySize: 24, QueueMode: c.mode})
				task := NewTask(tc.Register(func(*TC, *Task) {}), 24)
				done := p.AllocWords(1)
				p.Barrier()
				if p.Rank() == 1 {
					for p.Load64(1, done, 0) == 0 {
						tc.q.steal(0, 1, false, &tc.stats)
					}
					return
				}
				if c.spawn {
					spawnPhases(b, tc)
					return
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ownerCycle(tc, task)
				}
				b.StopTimer()
				if c.probed {
					p.Store64(1, done, 0, 1)
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// spawnPhases runs phases of a depth-6 4-ary spawning tree (5,461 tasks)
// until b.N tasks have run, and reports the time per task.
func spawnPhases(b *testing.B, tc *TC) {
	root := NewTask(tc.Register(spawner(4)), 24)
	b.ResetTimer()
	for tc.stats.TasksExecuted < int64(b.N) {
		root.Body()[0] = 6
		if err := tc.Add(0, AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tc.stats.TasksExecuted), "ns/task")
}

// spawnBranch is the children per callback of the spawning benchmark and
// allocation gate: more than the spawn buffer holds.
const spawnBranch = releaseInterval + 2

// TestOwnerPathZeroAllocs is the allocation gate on the owner path: a
// steady-state Add, pop and execute allocates nothing in either queue
// mode, with observability off and with an observer recording into a
// retaining recorder, and neither does taking in a steal's tasks, a whole
// phase through the loop, with an idle hook installed or without, or a
// phase of spawning callbacks (the bypass, the spawn buffer's pushes and
// the mid-spawn release). The
// same holds armed, with recovery on a survivable world: the journal
// record, the execution record and done-mark, and the collectives' look
// at the membership. Every world's journal is small enough to wrap, so its
// scans reclaim done slots and credit their executors.
func TestOwnerPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	const chunk = 4
	for _, mode := range []QueueMode{ModeSplit, ModeLocked} {
		for _, c := range []struct{ observed, armed bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			observed := c.observed
			name := fmt.Sprintf("%v/observed=%v/armed=%v", mode, observed, c.armed)
			if err := shm.NewWorld(shm.Config{NProcs: 1, Seed: 6, Survivable: c.armed}).Run(func(p pgas.Proc) {
				rt := Attach(p)
				if c.armed {
					rt.EnableRecovery()
				}
				if observed {
					rt.SetObserver(NewObserver(p, nil, trace.NewRecorder(0, 1<<10, nil)))
				}
				tc := NewTC(rt, Config{MaxBodySize: 24, QueueMode: mode, MaxTasks: 64})
				if (tc.rec != nil) != c.armed {
					panic("recovery is not armed as asked")
				}
				ran := 0
				task := NewTask(tc.Register(func(*TC, *Task) { ran++ }), 24)
				tree := NewTask(tc.Register(spawner(spawnBranch)), 24)
				if a := testing.AllocsPerRun(200, func() { ownerCycle(tc, task) }); a != 0 {
					panic(fmt.Sprintf("Add + pop + execute allocates %.2f objects per task, want 0", a))
				}
				// A steal: chunk tasks put on the queue's own steal end and
				// stolen back by this rank — landed at its top on a split
				// queue, taken in the batch and pushed back on a locked one
				// — then popped and run.
				ran = 0
				a := testing.AllocsPerRun(50, func() {
					for i := 0; i < chunk; i++ {
						if !tc.q.addRemote(0, task.wire(), &tc.stats) {
							panic("the steal end is full")
						}
					}
					k, _ := tc.q.steal(0, chunk, false, &tc.stats)
					for i := int64(0); i < k && mode == ModeLocked; i++ {
						tc.requeue(tc.q.stolen(i))
					}
					for ; k > 0; k-- {
						t, _ := tc.popLocal()
						tc.execute(t)
					}
				})
				if a != 0 || ran != 51*chunk {
					panic(fmt.Sprintf("a steal of %d allocates %.2f objects (%d executions), want 0 (%d)", chunk, a, ran, 51*chunk))
				}
				// A whole phase — seed, Process to termination — with no idle
				// hook and with one that holds the phase open for a round.
				for _, hooked := range []bool{false, true} {
					rounds := 0
					tc.SetIdleHook(nil)
					if hooked {
						tc.SetIdleHook(func(*TC) bool { rounds++; return rounds%2 == 1 })
					}
					a := testing.AllocsPerRun(50, func() {
						for i := 0; i < chunk; i++ {
							if err := tc.Add(0, AffinityHigh, task); err != nil {
								panic(err)
							}
						}
						tc.Process()
					})
					if a != 0 || hooked != (rounds == 2*51) {
						panic(fmt.Sprintf("a phase of %d tasks (idle hook: %v, called %d times) allocates %.2f objects, want 0", chunk, hooked, rounds, a))
					}
				}
				tc.SetIdleHook(nil)
				// A phase of callbacks that spawn more than releaseInterval
				// children each: the bypass, then the spawn buffer's pushes,
				// mid-spawn with its release check and as the callback returns.
				const treeNodes = 1 + spawnBranch + spawnBranch*spawnBranch
				before := tc.Stats().TasksExecuted
				a = testing.AllocsPerRun(50, func() {
					tree.Body()[0] = 2
					if err := tc.Add(0, AffinityHigh, tree); err != nil {
						panic(err)
					}
					tc.Process()
				})
				if executed := tc.Stats().TasksExecuted - before; a != 0 || executed != 51*treeNodes {
					panic(fmt.Sprintf("a phase of spawning callbacks allocates %.2f objects (%d executions), want 0 (%d)", a, executed, 51*treeNodes))
				}
			}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestStealPhaseZeroAllocs is the allocation gate on a phase's idle
// rounds: three shm ranks run phases of a spawning tree seeded on rank 0,
// so ranks 1 and 2 steal through TC.steal — two victims probed per round,
// the claim, the landing and its read-ahead — and no rank allocates. GC
// is off, as in TestStealPathZeroAllocs, and the phases must have stolen.
// The count is the whole process's, in whole objects per phase as
// testing.AllocsPerRun reports it (which cannot be used here: it runs its
// function on one thread, and rank 0 then runs its tree before any thief
// does): the runtime's wait queues and shm's mailboxes, which the
// barriers block on, grow by a few objects over hundreds of phases, while
// an allocation per round or per steal is many per phase.
func TestStealPhaseZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, phases = 3, 20
	var allocs [n]uint64
	var steals int64
	var mu sync.Mutex
	if err := shm.NewWorld(shm.Config{NProcs: n, Seed: 8}).Run(func(p pgas.Proc) {
		tc := NewTC(Attach(p), Config{MaxBodySize: 24, ChunkSize: 2})
		tree := NewTask(tc.Register(spawner(4)), 24)
		phase := func() {
			if p.Rank() == 0 {
				tree.Body()[0] = 6
				if err := tc.Add(0, AffinityHigh, tree); err != nil {
					panic(err)
				}
			}
			tc.Process()
		}
		phase() // a rank's first steal seeds its random stream
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < phases; i++ {
			phase()
		}
		runtime.ReadMemStats(&m1)
		p.Barrier() // every rank has read the count
		mu.Lock()
		defer mu.Unlock()
		allocs[p.Rank()] = (m1.Mallocs - m0.Mallocs) / phases
		steals += tc.Stats().StealsOK
	}); err != nil {
		t.Fatal(err)
	}
	for r, a := range allocs {
		if a != 0 {
			t.Errorf("rank %d: a phase allocates %d objects, want 0", r, a)
		}
	}
	if steals == 0 {
		t.Error("the phases stole nothing")
	}
	t.Logf("%d steals", steals)
}

// BenchmarkRemoteSteal times the pipelined steal path end to end on the
// shm transport: rank 1 keeps its queue topped up while rank 0 performs
// the measured steals and pops what landed. Allocations are reported per
// steal; after pool warm-up the steady state should be zero (see
// TestStealPathZeroAllocs for the hard assertion).
func BenchmarkRemoteSteal(b *testing.B) {
	const chunk = 4
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 3})
	b.ReportAllocs()
	if err := w.Run(func(p pgas.Proc) {
		q := newTaskQueue(p, ModeSplit, HeaderBytes+64, 256)
		done := p.AllocWords(1)
		p.Barrier()
		var s Stats
		wire := NewTask(0, 64).wire()
		if p.Rank() == 1 {
			// Keep the shared end stocked until rank 0 finishes.
			for p.RelaxedLoad64(done, 0) == 0 {
				q.addRemote(1, wire, &s)
			}
			return
		}
		stealOne := func() {
			for {
				if k, _ := q.steal(1, chunk, false, &s); k > 0 {
					popLanded(q, k, &s)
					return
				}
			}
		}
		for i := 0; i < 32; i++ {
			stealOne() // warm the pools before the timed region
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stealOne()
		}
		b.StopTimer()
		p.Store64(1, done, 0, 1)
	}); err != nil {
		b.Fatal(err)
	}
}

// TestStealPathZeroAllocs is the allocation gate on the steal hot path:
// after the transport's pools are warm, a steady-state steal must not
// allocate. GC is disabled for the measurement so sync.Pool eviction
// between samples cannot fake an allocation.
func TestStealPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs in normal builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 4})
	var allocs float64
	if err := w.Run(func(p pgas.Proc) {
		a := MeasureStealAllocs(p, 64, 4, 200)
		if p.Rank() == 0 {
			allocs = a
		}
	}); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steal path allocates %.2f objects/steal in steady state, want 0", allocs)
	}
}
