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
// the ring — it is held, pays only its bytes, and runs next without a pop
// — so over a whole tree LocalGets is the executed tasks less the parents,
// while every add still counts as a local insert. A locked queue pops
// every task.
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

// TestSpawnBufferPushesOnce pins the owner path's cost rule (localCost):
// a ring operation pays ringOpCost once, a copy into the hold slot or the
// spawn buffer only its bytes. Over a tree whose parents spawn
// releaseInterval+2 children each, dsim's charges between one callback's
// entry and the next are, for a parent, the held child's bytes and then
// ⌈(branch−1)/releaseInterval⌉ pushes — one mid-spawn over
// releaseInterval descriptors, one as the callback returns — and, for a
// leaf, the next task's pop, one localCost. Before the first callback
// come the seed's push and its pop.
func TestSpawnBufferPushesOnce(t *testing.T) {
	const depth, branch = 2, releaseInterval + 2
	const parents, nodes = 1 + branch, 1 + branch + branch*branch
	const pushes = (branch - 1 + releaseInterval - 1) / releaseInterval
	if err := dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
		c := &ownerCounter{Proc: p}
		tc := NewTC(Attach(c), Config{MaxBodySize: 8})
		type entry struct {
			first  int // the callback's first charge
			parent bool
		}
		var entries []entry
		spawn := spawner(branch)
		root := NewTask(tc.Register(func(tc *TC, t *Task) {
			entries = append(entries, entry{len(c.charges), t.Body()[0] > 0})
			spawn(tc, t)
		}), 8)
		root.Body()[0] = depth
		if err := tc.Add(0, AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
		s := tc.Stats()
		if s.TasksExecuted != nodes || s.LocalInserts != nodes || s.LocalGets != nodes-parents {
			panic(fmt.Sprintf("executed %d, inserted %d, popped %d; want %d, %d, %d",
				s.TasksExecuted, s.LocalInserts, s.LocalGets, nodes, nodes, nodes-parents))
		}
		w := len(root.wire())
		one, full := localCost(w), localCost(releaseInterval*w)
		if got := c.charges[:entries[0].first]; len(got) != 2 || got[0] != one || got[1] != one {
			panic(fmt.Sprintf("charges before the first callback %v; want the seed's push and pop, %v each", got, one))
		}
		pops, seen := int64(1), 0
		for i, e := range entries {
			end := len(c.charges)
			if i+1 < len(entries) {
				end = entries[i+1].first
			}
			span := c.charges[e.first:end]
			if !e.parent {
				for _, d := range span {
					if d != one {
						panic(fmt.Sprintf("leaf %d: charge %v between callbacks; want pops of %v", i, d, one))
					}
				}
				pops += int64(len(span))
				continue
			}
			seen++
			if span[0] != byteCost(w) {
				panic(fmt.Sprintf("parent %d: held child charged %v; want its bytes, %v", i, span[0], byteCost(w)))
			}
			if len(span) != 1+pushes || span[1] != full || span[2] != localCost((branch-1-releaseInterval)*w) {
				panic(fmt.Sprintf("parent %d: spawn charges %v; want %v, then %d pushes, the first %v", i, span, byteCost(w), pushes, full))
			}
		}
		if seen != parents || pops != s.LocalGets {
			panic(fmt.Sprintf("%d parents, %d pops charged; want %d and %d", seen, pops, parents, s.LocalGets))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnCopyInFirst: a callback's add is copied in before anything can
// run inline, and what the spawn buffer's push finds no room for runs
// inline from a copy. Every callback reuses one descriptor on a ring of
// four: it spawns three local children (one held, two buffered), fills
// the shared end with three low-affinity adds to its own rank, which do
// not count the buffer, then spawns once more, which finds the ring with
// the buffer full and runs at once; its nested callbacks rewrite the
// descriptor. As the callback returns, its buffer's push finds no room
// for what it buffered, which runs inline, spawning into the buffer
// again. Every task identity runs exactly once.
func TestSpawnCopyInFirst(t *testing.T) {
	const depth, maxTasks = 3, 1 << 10
	if err := dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
		tc := NewTC(Attach(p), Config{MaxBodySize: 16, MaxTasks: 4})
		ran := make([]int, maxTasks)
		created, afterReturn := 0, 0
		child := NewTask(0, 16)
		add := func(aff int32, d int64) {
			pgas.PutI64(child.Body(), int64(created))
			pgas.PutI64(child.Body()[8:], d)
			created++
			if err := tc.Add(0, aff, child); err != nil {
				panic(err)
			}
		}
		h := tc.Register(func(tc *TC, task *Task) {
			id, d := pgas.GetI64(task.Body()), pgas.GetI64(task.Body()[8:])
			ran[id]++
			if !tc.running {
				afterReturn++ // inline from a push as a callback returned
			}
			if d == 0 {
				return
			}
			for _, aff := range []int32{AffinityHigh, AffinityHigh, AffinityHigh, AffinityLow, AffinityLow, AffinityLow, AffinityHigh} {
				add(aff, d-1)
			}
		})
		child.SetHandle(h)
		add(AffinityHigh, depth)
		tc.Process()
		for id := 0; id < created; id++ {
			if ran[id] != 1 {
				panic(fmt.Sprintf("task %d of %d ran %d times", id, created, ran[id]))
			}
		}
		if s := tc.Stats(); s.InlineExecs == 0 || afterReturn == 0 {
			panic(fmt.Sprintf("%d inline executions, %d of them from a push as a callback returned; want some of each", s.InlineExecs, afterReturn))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// announcer is a proc that lets adders announce themselves on its rank's
// packed word once, just as a callback's spawn buffer is pushed mid-spawn
// and reads the word, and withdraws them at the next read: adders that
// came after the callback's last add and left again.
type announcer struct {
	pgas.Proc
	tc      *TC
	adders  int64 // announced, until the next read
	arrived bool
}

func (a *announcer) RelaxedLoad64(seg pgas.Seg, idx int) int64 {
	if tc := a.tc; tc != nil && seg == tc.q.meta && idx == wShared {
		switch {
		case a.adders > 0:
			a.Proc.FetchAdd64(tc.q.me, seg, idx, -a.adders*oneA)
			a.adders = 0
		case !a.arrived && tc.running && tc.spawned == releaseInterval:
			a.arrived, a.adders = true, int64(tc.q.limit)
			a.Proc.FetchAdd64(tc.q.me, seg, idx, a.adders*oneA)
		}
	}
	return a.Proc.RelaxedLoad64(seg, idx)
}

// TestSpawnOverflowRunsFromACopy: adders take a mid-spawn push's room
// between the callback's last add and the push, so the buffered tasks run
// inline — by then the adders have left, and the inline callbacks spawn
// into the buffer the overflow came from. It runs from a copy: every task
// identity, all from one reused descriptor, runs exactly once.
func TestSpawnOverflowRunsFromACopy(t *testing.T) {
	const depth, branch = 2, releaseInterval + 1
	const nodes = 1 + branch + branch*branch
	if err := dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
		a := &announcer{Proc: p}
		tc := NewTC(Attach(a), Config{MaxBodySize: 16, MaxTasks: 2 * branch})
		a.tc = tc
		var ran [nodes]int
		created := 0
		child := NewTask(0, 16)
		add := func(d int64) {
			pgas.PutI64(child.Body(), int64(created))
			pgas.PutI64(child.Body()[8:], d)
			created++
			if err := tc.Add(0, AffinityHigh, child); err != nil {
				panic(err)
			}
		}
		child.SetHandle(tc.Register(func(tc *TC, task *Task) {
			ran[pgas.GetI64(task.Body())]++
			if d := pgas.GetI64(task.Body()[8:]); d > 0 {
				for i := 0; i < branch; i++ {
					add(d - 1)
				}
			}
		}))
		add(depth)
		tc.Process()
		for id, k := range ran {
			if k != 1 {
				panic(fmt.Sprintf("task %d of %d ran %d times", id, created, k))
			}
		}
		if s := tc.Stats(); !a.arrived || s.InlineExecs < releaseInterval {
			panic(fmt.Sprintf("adders arrived: %v; %d inline executions, want at least %d", a.arrived, s.InlineExecs, releaseInterval))
		}
	}); err != nil {
		t.Fatal(err)
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

// holdWitness is a proc over the transport's that counts the faults
// unwinding its rank while its collection holds a bypassed task, and
// those unwinding it while its spawn buffer holds tasks.
type holdWitness struct {
	pgas.Front
	pgas.Kernel
	tc               *TC
	unwound, spawned *int // over all ranks: dsim runs one rank at a time
}

func (w *holdWitness) Unwrap() pgas.Kernel { return w.Kernel }

// leaving runs as an operation returns or unwinds.
func (w *holdWitness) leaving() {
	if rec := recover(); rec != nil {
		if w.tc != nil && w.tc.held {
			*w.unwound++
		}
		if w.tc != nil && w.tc.spawned > 0 {
			*w.spawned++
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
		hw := &holdWitness{Kernel: p, unwound: &unwound, spawned: new(int)}
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

// TestRecoveryReplaysSpawnBuffer sweeps rank 2's death over every
// operation it issues in the phase of a spawning tree on four dsim ranks,
// whose callbacks add four children to their own rank with an add to the
// next rank between the second and the third, so a death can unwind a
// survivor at that remote add while its spawn buffer holds the second
// child. The buffered tasks are records of the survivor's in no queue:
// recovery empties the buffer and replays them, so every healed world
// durably completes each rank's tree once. The sweep must see such an
// unwind.
func TestRecoveryReplaysSpawnBuffer(t *testing.T) {
	const n, depth, branch = 4, 3, 5
	const perRank = 1 + branch + branch*branch + branch*branch*branch
	run := func(crashAt int64) (total, before, after int64, spawned int, err error) {
		var unwound int
		fc := faulty.Config{Seed: 7, CrashRank: 2, CrashAfterOps: crashAt}
		if crashAt == 0 {
			fc.CrashRank = faulty.NoCrash
		}
		w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: n, Seed: 5, Survivable: true, MaxVirtualTime: 50 * time.Millisecond}), fc)
		err = w.Run(func(p pgas.Proc) {
			hw := &holdWitness{Kernel: p, unwound: &unwound, spawned: &spawned}
			hw.Bind(hw)
			rt := Attach(hw)
			rt.EnableRecovery()
			tc := NewTC(rt, Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 1024})
			if p.Rank() != 2 {
				hw.tc = tc
			}
			me := p.Rank()
			var h Handle
			h = tc.Register(func(tc *TC, task *Task) {
				d := task.Body()[0]
				if d == 0 {
					return
				}
				task.Body()[0] = d - 1
				for i := 0; i < branch; i++ {
					dst := me
					if i == 2 {
						dst = (me + 1) % n
					}
					if err := tc.Add(dst, AffinityHigh, task); err != nil {
						panic(err)
					}
				}
			})
			root := NewTask(h, 8)
			root.Body()[0] = depth
			if err := tc.Add(me, AffinityHigh, root); err != nil {
				panic(err)
			}
			if me == 2 {
				before = faulty.Ops(p)
			}
			tc.Process()
			if me == 2 {
				after = faulty.Ops(p)
			}
			if g := tc.GlobalStats(); me == 0 {
				total = g.TasksExecuted + g.SalvagedExecs
			}
		})
		return total, before, after, spawned, err
	}
	total, before, after, _, err := run(0)
	if err != nil || total != n*perRank {
		t.Fatalf("uncrashed run: err %v, %d tasks, want %d", err, total, n*perRank)
	}
	witnessed := 0
	for k := before + 1; k <= after; k++ {
		got, _, _, spawned, err := run(k)
		if err != nil || got != n*perRank {
			t.Fatalf("death at op %d: err %v, %d durable completions, want %d", k, err, got, n*perRank)
		}
		witnessed += spawned
	}
	if witnessed == 0 {
		t.Fatalf("no death in ops %d..%d unwound a survivor with spawns in its buffer", before+1, after)
	}
	t.Logf("%d deaths, %d unwinds with spawns buffered", after-before, witnessed)
}
