package core

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
)

// spawner is a callback that re-adds its own descriptor branch times,
// locally at high affinity, with the depth in its first body byte one
// lower, until the depth reaches 0: a full branch-ary tree.
func spawner(branch int) TaskFunc {
	return func(tc *TC, t *Task) {
		d := t.Body()[0]
		if d == 0 {
			return
		}
		t.Body()[0] = d - 1
		for i := 0; i < branch; i++ {
			if err := tc.Add(tc.rt.Rank(), AffinityHigh, t); err != nil {
				panic(err)
			}
		}
	}
}

// TestSpawnBypass: on a split queue a callback's first local child skips
// the ring — it is held, and runs next without a pop — so over a whole
// tree LocalGets is the executed tasks less the parents, while every add
// still counts as a local insert. A locked queue pops every task.
func TestSpawnBypass(t *testing.T) {
	const depth, branch, nodes, parents = 4, 3, 121, 40
	for _, c := range []struct {
		mode     QueueMode
		wantGets int64
	}{{ModeSplit, nodes - parents}, {ModeLocked, nodes}} {
		if err := dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
			tc := NewTC(Attach(p), Config{MaxBodySize: 8, QueueMode: c.mode})
			root := NewTask(tc.Register(spawner(branch)), 8)
			root.Body()[0] = depth
			if err := tc.Add(0, AffinityHigh, root); err != nil {
				panic(err)
			}
			tc.Process()
			s := tc.Stats()
			if s.TasksExecuted != nodes || s.LocalInserts != nodes || s.LocalGets != c.wantGets {
				panic(fmt.Sprintf("executed %d, inserted %d, popped %d; want %d, %d, %d",
					s.TasksExecuted, s.LocalInserts, s.LocalGets, nodes, nodes, c.wantGets))
			}
		}); err != nil {
			t.Errorf("%v: %v", c.mode, err)
		}
	}
}

// TestRootSurplusStolenMidSpawn: a root that spawns a thousand children
// releases its surplus as it adds, so on the cluster model another rank
// runs one of them before the root's callback has returned.
func TestRootSurplusStolenMidSpawn(t *testing.T) {
	const n, children = 64, 1000
	var rootReturned time.Duration
	firstRemote := make([]time.Duration, n) // a rank's first child start, 0 = none
	if err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 1}).Run(func(p pgas.Proc) {
		tc := NewTC(Attach(p), Config{MaxBodySize: 8, MaxTasks: 2 * children})
		me := p.Rank()
		child := NewTask(tc.Register(func(*TC, *Task) {
			if firstRemote[me] == 0 {
				firstRemote[me] = p.Now()
			}
			p.Compute(time.Microsecond)
		}), 8)
		root := NewTask(tc.Register(func(tc *TC, _ *Task) {
			for i := 0; i < children; i++ {
				if err := tc.Add(me, AffinityHigh, child); err != nil {
					panic(err)
				}
			}
			rootReturned = p.Now()
		}), 8)
		if me == 0 {
			if err := tc.Add(0, AffinityHigh, root); err != nil {
				panic(err)
			}
		}
		tc.Process()
	}); err != nil {
		t.Fatal(err)
	}
	early := 0
	for r := 1; r < n; r++ {
		if firstRemote[r] != 0 && firstRemote[r] < rootReturned {
			early++
		}
	}
	if early == 0 {
		t.Fatalf("no rank ran a child of the root before the root returned at %v", rootReturned)
	}
}

// TestArmedRecoveryKeepsSpawnsSilent: with recovery armed a callback's
// local adds issue no checked operation, while unarmed the same callbacks
// run the release check, whose ordered loads are operations.
func TestArmedRecoveryKeepsSpawnsSilent(t *testing.T) {
	for _, armed := range []bool{true, false} {
		var inCallbacks int64 // over all ranks: dsim runs one rank at a time
		w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: 4, Seed: 3, Survivable: true}),
			faulty.Config{CrashRank: faulty.NoCrash})
		if err := w.Run(func(p pgas.Proc) {
			rt := Attach(p)
			if armed {
				rt.EnableRecovery()
			}
			tc := NewTC(rt, Config{MaxBodySize: 8, MaxTasks: 1024})
			spawn := spawner(16)
			root := NewTask(tc.Register(func(tc *TC, t *Task) {
				ops := faulty.Ops(p)
				spawn(tc, t)
				inCallbacks += faulty.Ops(p) - ops
			}), 8)
			root.Body()[0] = 2
			if err := tc.Add(p.Rank(), AffinityHigh, root); err != nil {
				panic(err)
			}
			tc.Process()
		}); err != nil {
			t.Fatalf("armed=%v: %v", armed, err)
		}
		if armed != (inCallbacks == 0) {
			t.Errorf("armed=%v: the callbacks issued %d operations", armed, inCallbacks)
		}
	}
}

// holdWitness is a proc over the transport's that counts the faults
// unwinding its rank while its collection holds a bypassed task.
type holdWitness struct {
	pgas.Front
	pgas.Kernel
	tc      *TC
	unwound *int // over all ranks: dsim runs one rank at a time
}

func (w *holdWitness) Unwrap() pgas.Kernel { return w.Kernel }

// leaving runs as an operation returns or unwinds.
func (w *holdWitness) leaving() {
	if rec := recover(); rec != nil {
		if w.tc != nil && w.tc.held {
			*w.unwound++
		}
		panic(rec)
	}
}

func (w *holdWitness) Issue(op *pgas.Op) pgas.Nb { defer w.leaving(); return w.Kernel.Issue(op) }
func (w *holdWitness) Flush()                    { defer w.leaving(); w.Kernel.Flush() }

// TestRecoveryRequeuesHeldTask: rank 2 dies at op 20, a Load64 of its own
// packed word, and the fault unwinds survivors in the release check after
// a spawning callback, holding its first child. Recovery puts the held
// task back on the ring before the claims scan, so the replay is exact:
// each rank's depth-4 ternary tree of 121 tasks is durably completed
// once. Without that requeue held tasks run twice (493 of 484).
func TestRecoveryRequeuesHeldTask(t *testing.T) {
	const n, pin, pinOp = 4, 20, "Load64"
	var crashedAt string
	var unwound int
	w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true}), faulty.Config{
		Seed: 42, CrashRank: 2, CrashAfterOps: pin,
		Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
			if kind == "crash" {
				crashedAt = op
			}
		},
	})
	var total int64
	if err := w.Run(func(p pgas.Proc) {
		hw := &holdWitness{Kernel: p, unwound: &unwound}
		hw.Bind(hw)
		rt := Attach(hw)
		rt.EnableRecovery()
		tc := NewTC(rt, Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
		if p.Rank() != 2 {
			hw.tc = tc
		}
		root := NewTask(tc.Register(spawner(3)), 8)
		root.Body()[0] = 4
		if err := tc.Add(p.Rank(), AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
		if g := tc.GlobalStats(); p.Rank() == 0 {
			total = g.TasksExecuted + g.SalvagedExecs
		}
	}); err != nil {
		t.Fatalf("survivable world failed: %v", err)
	}
	if crashedAt != pinOp || unwound == 0 {
		t.Fatalf("the pin interrupted a %q and unwound %d survivors holding a task, want a %s and some (re-pin CrashAfterOps)",
			crashedAt, unwound, pinOp)
	}
	if want := int64(n * 121); total != want {
		t.Fatalf("%d durable completions, want %d", total, want)
	}
}
