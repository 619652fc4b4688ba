package core_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
)

// recoveryOutcome is what a recovery run reports for cross-run comparison.
type recoveryOutcome struct {
	executed  int64
	salvaged  int64
	recovered int64
	epochs    int64
}

// crashPin is where a one-shot crash lands: the rank's ops-th checked
// operation, which must be one of the operations op names ("|"-separated),
// or, for "!Send", anything but a Send — a barrier is its Sends, and
// nothing else in these phases sends.
type crashPin struct {
	ops int64
	op  string
}

// observe returns the faulty.Config.Observe hook that checks the crash
// against the pin, failing t when it interrupted another operation. Call
// after Run: the hook runs on the crashing rank's goroutine.
func (c crashPin) observe(t *testing.T) (hook func(time.Duration, int, string, string, int), check func()) {
	var got string
	hook = func(_ time.Duration, _ int, kind, op string, _ int) {
		if kind == "crash" {
			got = op
		}
	}
	check = func() {
		t.Helper()
		ok := slices.Contains(strings.Split(c.op, "|"), got)
		if not, isNot := strings.CutPrefix(c.op, "!"); isNot {
			ok = got != not
		}
		if got != "" && !ok {
			t.Errorf("the pin at op %d interrupted a %s, want a %s (re-pin CrashAfterOps)", c.ops, got, c.op)
		}
	}
	return hook, check
}

// runRecoveryTree runs the spawning-tree workload on a survivable world
// wrapped with a deterministic one-shot crash of crashRank at pin, with
// work-replay recovery armed. Every rank seeds one root task; each task
// of depth > 0 spawns `branch` children locally. Reports rank 0's global
// stats. The callbacks only perform local adds; an execution a fault cuts
// short in an add's release check is resumed past the adds that landed,
// so the replay accounting must be exact.
func runRecoveryTree(t *testing.T, mk func() pgas.World, n, crashRank int, pin crashPin, seed int64) (recoveryOutcome, error) {
	t.Helper()
	hook, check := pin.observe(t)
	defer check()
	w := faulty.Wrap(mk(), faulty.Config{
		Seed:          seed,
		CrashRank:     crashRank,
		CrashAfterOps: pin.ops,
		Observe:       hook,
	})
	var mu sync.Mutex
	var out recoveryOutcome
	err := w.Run(func(p pgas.Proc) {
		rt := core.Attach(p)
		rt.EnableRecovery()
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
		var h core.Handle
		h = tc.Register(func(tc *core.TC, task *core.Task) {
			depth := int(task.Body()[0])
			if depth == 0 {
				return
			}
			child := core.NewTask(h, 8)
			child.Body()[0] = byte(depth - 1)
			for i := 0; i < 3; i++ {
				if err := tc.Add(tc.Runtime().Rank(), core.AffinityHigh, child); err != nil {
					panic(err)
				}
			}
		})
		root := core.NewTask(h, 8)
		root.Body()[0] = 4 // depth-4 ternary tree: 121 nodes per rank
		if err := tc.Add(p.Rank(), core.AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
		g := tc.GlobalStats()
		if p.Rank() == 0 {
			mu.Lock()
			out = recoveryOutcome{
				executed:  g.TasksExecuted,
				salvaged:  g.SalvagedExecs,
				recovered: g.TasksRecovered,
				epochs:    g.Recoveries,
			}
			mu.Unlock()
		}
	})
	return out, err
}

// treeNodes is the uncrashed task count of the runRecoveryTree workload.
func treeNodes(n int) int64 {
	perRank := int64(1 + 3 + 9 + 27 + 81) // depth-4 ternary tree
	return int64(n) * perRank
}

// TestRecoveryExactReplaySHM: a worker rank dies mid-phase on the shm
// transport; the survivors heal and the durable completion accounting is
// bit-identical to the uncrashed run.
func TestRecoveryExactReplaySHM(t *testing.T) {
	const n = 4
	// Crash points pinned (with the seeds below) inside the processing
	// phase, after its two barriers of two Sends each and the detector
	// reset's one Store64: ops 6 to ~30 are what rank 2 issues while it
	// works through its own tree — the ordered release checks, the
	// fetch-adds that release and the CASes that reacquire — on most runs,
	// though a thief that empties its queue early leaves it probing (how
	// long it then probes for work before the phase terminates is the host
	// scheduler's choice, and the phase has ended by op 43 on a fast run). Faults landing in setup or teardown
	// collectives are outside the recoverable window by design (see
	// DESIGN.md "Recovery").
	for _, crashAfter := range []int64{13, 21, 29} {
		crashAfter := crashAfter
		t.Run(fmt.Sprintf("crashAfter=%d", crashAfter), func(t *testing.T) {
			out, err := runRecoveryTree(t, func() pgas.World {
				return shm.NewWorld(shm.Config{NProcs: n, Seed: 3, Survivable: true})
			}, n, 2, crashPin{crashAfter, "!Send"}, 42)
			if err != nil {
				t.Fatalf("survivable world failed: %v", err)
			}
			if got, want := out.executed+out.salvaged, treeNodes(n); got != want {
				t.Fatalf("executed %d + salvaged %d = %d durable completions, want %d",
					out.executed, out.salvaged, got, want)
			}
			if out.epochs == 0 {
				t.Fatalf("crash of rank 2 after %d ops triggered no recovery epoch", crashAfter)
			}
		})
	}
}

// TestRecoveryExactReplayDSim: the same healing on the deterministic
// transport, at crash points in rank 2's release checks (13, a Load64 of
// its own packed word), between a release and the reacquire that follows
// (20, the release check after the second FetchAdd64, a callback's first
// child held), and at its first probe once it has run out of work (31,
// of rank 0's packed word; the phase is 47 ops). No callback of this tree
// communicates: its two later children wait in the spawn buffer, so no
// death cuts an execution short here (TestRecoveryReplaysSpawnBuffer
// sweeps callbacks that do).
func TestRecoveryExactReplayDSim(t *testing.T) {
	const n = 4
	for _, pin := range []crashPin{{13, "Load64"}, {20, "Load64"}, {31, "NbLoad64"}} {
		pin := pin
		t.Run(fmt.Sprintf("crashAfter=%d", pin.ops), func(t *testing.T) {
			out, err := runRecoveryTree(t, func() pgas.World {
				return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true})
			}, n, 2, pin, 42)
			if err != nil {
				t.Fatalf("survivable world failed: %v", err)
			}
			if got, want := out.executed+out.salvaged, treeNodes(n); got != want {
				t.Fatalf("executed %d + salvaged %d = %d durable completions, want %d",
					out.executed, out.salvaged, got, want)
			}
			if out.epochs == 0 {
				t.Fatalf("crash of rank 2 after %d ops triggered no recovery epoch", pin.ops)
			}
		})
	}
}

// lockWitness is a proc over the transport's that notices a fault
// unwinding its rank out of a ModeLocked steal: after the TryLock that took
// another rank's queue lock, before the Unlock that drops it has returned.
// It overrides the lock methods its own Front derives (so their CAS64s pass
// through its Issue like every other operation of the critical section).
type lockWitness struct {
	pgas.Front
	pgas.Kernel
	held    bool // inside a steal's critical section
	unwound *int // steals a fault unwound, over all ranks (dsim runs one rank at a time)
}

func (f *lockWitness) Unwrap() pgas.Kernel { return f.Kernel }

func (f *lockWitness) TryLock(proc int, id pgas.LockID) bool {
	f.held = f.Front.TryLock(proc, id)
	return f.held
}

// leaving runs as an operation returns or unwinds.
func (f *lockWitness) leaving() {
	if rec := recover(); rec != nil {
		if f.held {
			f.held = false
			*f.unwound++
		}
		panic(rec)
	}
}

func (f *lockWitness) Issue(op *pgas.Op) pgas.Nb { defer f.leaving(); return f.Kernel.Issue(op) }
func (f *lockWitness) Flush()                    { defer f.leaving(); f.Kernel.Flush() }
func (f *lockWitness) Unlock(proc int, id pgas.LockID) {
	defer f.leaving()
	f.Front.Unlock(proc, id)
	f.held = false
}

// TestRecoveryLockedQueueDSim is the ModeLocked row of the matrix: rank 2
// dies once it has run its first task, and again at a point where the fault
// unwinds a survivor inside a steal, the victim's queue lock held (recovery
// must drop it: taskQueue.releaseHeldLock). Tasks add nothing, so the pins
// fall in the queue's own operations.
func TestRecoveryLockedQueueDSim(t *testing.T) {
	const n, seeded = 4, 60
	for _, c := range []struct {
		name       string
		crashAfter int64
		ranBefore  int // tasks rank 2 ran before it died, -1 = any
		unwinds    bool
	}{
		// Every attempt of a contended Lock is an op of the fault stream (the
		// lock is CAS64s issued by pgas.Front), and so is each of a
		// barrier's two Sends; rank 2's phase is ops 306 to 637. Both pins
		// land on a Load64 of its own queue's words.
		{"after first task", 314, 1, false}, // its first callback starts after op 310, its second after op 317
		{"survivor unwound inside a steal", 379, -1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The run ends near 2 ms of virtual time. A queue lock that
			// recovery fails to drop leaves its next acquirer backing off
			// through virtual time forever; the bound turns that into an
			// error instead of go test's timeout.
			hook, check := crashPin{c.crashAfter, "Load64"}.observe(t)
			defer check()
			w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true, Latency: 2 * time.Microsecond,
				MaxVirtualTime: 100 * time.Millisecond}),
				faulty.Config{Seed: 42, CrashRank: 2, CrashAfterOps: c.crashAfter, Observe: hook})
			var ran, unwound int
			var out recoveryOutcome
			err := w.Run(func(p pgas.Proc) {
				f := &lockWitness{Kernel: p, unwound: &unwound}
				f.Bind(f)
				rt := core.Attach(f)
				rt.EnableRecovery()
				tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 256, QueueMode: core.ModeLocked})
				task := core.NewTask(tc.Register(func(tc *core.TC, _ *core.Task) {
					if p.Rank() == 2 {
						ran++
					}
					p.Compute(5 * time.Microsecond)
				}), 8)
				// Rank 1 starts empty: it steals from the first moment.
				for i := 0; i < seeded && p.Rank() != 1; i++ {
					if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
						panic(err)
					}
				}
				tc.Process()
				if g := tc.GlobalStats(); p.Rank() == 0 {
					out = recoveryOutcome{g.TasksExecuted, g.SalvagedExecs, g.TasksRecovered, g.Recoveries}
				}
			})
			if err != nil {
				t.Fatalf("survivable world failed: %v", err)
			}
			if got, want := out.executed+out.salvaged, int64((n-1)*seeded); got != want {
				t.Fatalf("executed %d + salvaged %d = %d durable completions, want %d", out.executed, out.salvaged, got, want)
			}
			if out.epochs == 0 {
				t.Fatalf("crash of rank 2 after %d ops triggered no recovery epoch", c.crashAfter)
			}
			if c.ranBefore >= 0 && ran != c.ranBefore {
				t.Fatalf("rank 2 ran %d tasks before op %d, want %d: re-pin", ran, c.crashAfter, c.ranBefore)
			}
			if c.unwinds != (unwound > 0) {
				t.Fatalf("the fault unwound %d steals with the victim's lock held, want some: %v; re-pin", unwound, c.unwinds)
			}
		})
	}
}

// TestRecoveryDeterministicDSim: the same seed yields the same recovery,
// down to the replayed-descriptor and salvaged-completion counts.
func TestRecoveryDeterministicDSim(t *testing.T) {
	const n = 4
	run := func() recoveryOutcome {
		out, err := runRecoveryTree(t, func() pgas.World {
			return dsim.NewWorld(dsim.Config{NProcs: n, Seed: 7, Survivable: true})
		}, n, 1, crashPin{35, "NbLoad64"}, 99) // rank 1's first probe of rank 3's packed word
		if err != nil {
			t.Fatalf("survivable world failed: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("recovery not deterministic under a fixed seed:\n run 1: %+v\n run 2: %+v", a, b)
	}
	if a.epochs == 0 {
		t.Fatalf("no recovery epoch in deterministic run: %+v", a)
	}
}

// TestRecoveryWithDeferredDeps: the dead rank holds registered-but-pending
// deferred tasks; the healer salvages their journal records, re-registers
// them, and remaps outstanding handles so late Satisfy calls still launch
// them.
func TestRecoveryWithDeferredDeps(t *testing.T) {
	const n = 4
	// Op 23 is inside the phase on every schedule: set-up is the NewTC
	// barrier's two Sends and the satisfier's remote add (ops 1-6), and
	// rank 2's shortest phase on shm reaches op 25 before its exit
	// barrier.
	hook, check := crashPin{23, "!Send"}.observe(t)
	defer check()
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: n, Seed: 5, Survivable: true}), faulty.Config{
		Seed:          11,
		CrashRank:     2,
		CrashAfterOps: 23,
		Observe:       hook,
	})
	var mu sync.Mutex
	var got recoveryOutcome
	err := w.Run(func(p pgas.Proc) {
		rt := core.Attach(p)
		rt.EnableRecovery()
		tc := core.NewTC(rt, core.Config{MaxBodySize: 16, ChunkSize: 2, MaxTasks: 1024, MaxDeferred: 8})
		leafH := tc.Register(func(tc *core.TC, task *core.Task) {})
		satisfyH := tc.Register(func(tc *core.TC, task *core.Task) {
			tc.Satisfy(core.DecodeDep(task.Body()))
		})

		// Every rank registers one deferred leaf locally, then hands the
		// handle to the next rank as a satisfier task, so the final
		// Satisfy of the dead rank's deferred task happens on a survivor —
		// through the salvage remap when rank 2 is already gone.
		leaf := core.NewTask(leafH, 16)
		dep, err := tc.AddDeferred(core.AffinityLow, leaf, 1)
		if err != nil {
			panic(err)
		}
		sat := core.NewTask(satisfyH, 16)
		core.EncodeDep(sat.Body(), dep)
		if err := tc.Add((p.Rank()+1)%n, core.AffinityLow, sat); err != nil {
			panic(err)
		}
		tc.Process()
		g := tc.GlobalStats()
		if p.Rank() == 0 {
			mu.Lock()
			got = recoveryOutcome{
				executed:  g.TasksExecuted,
				salvaged:  g.SalvagedExecs,
				recovered: g.TasksRecovered,
				epochs:    g.Recoveries,
			}
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatalf("survivable world failed: %v", err)
	}
	// n satisfiers + n deferred leaves, exactly once each.
	if want := int64(2 * n); got.executed+got.salvaged != want {
		t.Fatalf("executed %d + salvaged %d durable completions, want %d", got.executed, got.salvaged, want)
	}
	if got.epochs == 0 {
		t.Fatal("crash triggered no recovery epoch")
	}
}

// TestRecoveryRankZeroDeathUnrecoverable: the root's death must not be
// healed around — Run surfaces the fault even with recovery armed.
func TestRecoveryRankZeroDeathUnrecoverable(t *testing.T) {
	const n = 4
	_, err := runRecoveryTree(t, func() pgas.World {
		return shm.NewWorld(shm.Config{NProcs: n, Seed: 3, Survivable: true})
	}, n, 0, crashPin{23, "!Send"}, 42) // inside the phase
	if err == nil {
		t.Fatal("rank 0 death was silently recovered; want a fault")
	}
	var fe *pgas.FaultError
	if !errors.As(err, &fe) || fe.Rank != 0 {
		t.Fatalf("want *pgas.FaultError naming rank 0, got %v", err)
	}
}

// TestRecoveryRequiresSurvivableTransport: with recovery armed on a
// non-survivable world, a crash still aborts the run (containment model).
func TestRecoveryRequiresSurvivableTransport(t *testing.T) {
	const n = 4
	_, err := runRecoveryTree(t, func() pgas.World {
		return shm.NewWorld(shm.Config{NProcs: n, Seed: 3})
	}, n, 2, crashPin{23, "!Send"}, 42) // inside the phase
	if err == nil {
		t.Fatal("crash on a non-survivable world returned success")
	}
}
