package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
)

// sweepPhase is one workload of the crash-ordinal sweep: it seeds a
// collection (recovery armed) and returns the number of tasks an uncrashed
// phase executes.
type sweepPhase struct {
	name      string
	worldSeed int64
	faultSeed int64
	cfg       core.Config
	seed      func(tc *core.TC) int64
	full      bool // its queues fill, so callbacks' adds take the full-queue fallback
}

// deferredPhase is TestRecoveryWithDeferredDeps's phase with a deferred
// count of fanIn: every rank registers one deferred leaf and hands its
// handle to the next fanIn ranks as satisfier tasks.
func deferredPhase(fanIn int) func(tc *core.TC) int64 {
	return func(tc *core.TC) int64 {
		leafH := tc.Register(func(tc *core.TC, task *core.Task) {})
		satH := tc.Register(func(tc *core.TC, task *core.Task) {
			tc.Satisfy(core.DecodeDep(task.Body()))
		})
		p := tc.Proc()
		n := p.NProcs()
		dep, err := tc.AddDeferred(core.AffinityLow, core.NewTask(leafH, 16), fanIn)
		if err != nil {
			panic(err)
		}
		sat := core.NewTask(satH, 16)
		core.EncodeDep(sat.Body(), dep)
		for i := 1; i <= fanIn; i++ {
			if err := tc.Add((p.Rank()+i)%n, core.AffinityLow, sat); err != nil {
				panic(err)
			}
		}
		return int64(n * (1 + fanIn))
	}
}

// treePhase is runRecoveryTree's spawning tree: a depth-4 ternary tree
// seeded on every rank, spawned by local adds.
func treePhase(tc *core.TC) int64 { return spawnTree(tc, 0) }

// remoteTreePhase spawns the tree on the next rank: every add is
// communication, so a death can reach a callback between its adds.
func remoteTreePhase(tc *core.TC) int64 { return spawnTree(tc, 1) }

// spawnTree seeds the tree, whose tasks add their children to the rank
// hop ranks on from the one that runs them.
func spawnTree(tc *core.TC, hop int) int64 {
	var h core.Handle
	h = tc.Register(func(tc *core.TC, task *core.Task) {
		depth := int(task.Body()[0])
		if depth == 0 {
			return
		}
		child := core.NewTask(h, 8)
		child.Body()[0] = byte(depth - 1)
		for i := 0; i < 3; i++ {
			if err := tc.Add((tc.Runtime().Rank()+hop)%tc.Runtime().NProcs(), core.AffinityHigh, child); err != nil {
				panic(err)
			}
		}
	})
	root := core.NewTask(h, 8)
	root.Body()[0] = 4
	if err := tc.Add(tc.Runtime().Rank(), core.AffinityHigh, root); err != nil {
		panic(err)
	}
	return treeNodes(tc.Proc().NProcs())
}

var sweepPhases = []sweepPhase{
	{"deferred", 5, 11, core.Config{MaxBodySize: 16, ChunkSize: 2, MaxTasks: 1024, MaxDeferred: 8}, deferredPhase(1), false},
	{"deferred-fanin2", 5, 11, core.Config{MaxBodySize: 16, ChunkSize: 2, MaxTasks: 1024, MaxDeferred: 8}, deferredPhase(2), false},
	{"tree", 3, 42, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048}, treePhase, false},
	{"tree-full", 3, 42, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 32}, remoteTreePhase, true},
}

// sweepRun is one world of the sweep: rank 2 crashes at its
// crashAt-th checked operation and rank 3 at its thenAt-th (0: never). It
// reports rank 0's global counts and, from rank 2, the operation counts
// at which Process was entered and left and the run's last.
type sweepRun struct {
	err                  error
	op, op3              string // the operations the crashes of ranks 2 and 3 interrupted
	executed, salvaged   int64
	inline               int64 // full-queue fallbacks
	want                 int64
	before, after, total int64
	total3               int64 // rank 3's operation count at the end
}

const sweepCrashRank = 2

// sweepDSim is the sweep's world: a survivor that waits on virtual time
// for something that never comes (a hang) ends it with an error.
func sweepDSim(n int, seed int64) pgas.World {
	return dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed, Survivable: true, MaxVirtualTime: 50 * time.Millisecond})
}

func sweepSHM(n int, seed int64) pgas.World {
	return shm.NewWorld(shm.Config{NProcs: n, Seed: seed, Survivable: true})
}

func runSweep(mk func(n int, seed int64) pgas.World, ph sweepPhase, n int, crashAt, thenAt int64) sweepRun {
	var mu sync.Mutex
	var out sweepRun
	w := mk(n, ph.worldSeed)
	for i, at := range []int64{thenAt, crashAt} {
		fc := faulty.Config{Seed: ph.faultSeed, CrashRank: sweepCrashRank + 1 - i, CrashAfterOps: at}
		if at <= 0 {
			fc.CrashRank = faulty.NoCrash
		}
		fc.Observe = func(_ time.Duration, rank int, kind, op string, _ int) {
			if kind == "crash" && rank == sweepCrashRank {
				out.op = op
			} else if kind == "crash" {
				out.op3 = op
			}
		}
		w = faulty.Wrap(w, fc)
	}
	out.err = w.Run(func(p pgas.Proc) {
		tc := core.NewCheckedTC(p, ph.cfg)
		want := ph.seed(tc)
		if p.Rank() == sweepCrashRank {
			mu.Lock()
			out.before = faulty.Ops(p) // left 0 by a crash in set-up
			mu.Unlock()
		}
		tc.Process()
		after := faulty.Ops(p)
		g := tc.GlobalStats()
		mu.Lock()
		defer mu.Unlock()
		if p.Rank() == 0 {
			out.executed, out.salvaged, out.want, out.inline = g.TasksExecuted, g.SalvagedExecs, want, g.InlineExecs
		}
		if p.Rank() == sweepCrashRank {
			out.after, out.total = after, faulty.Ops(p)
		}
		if p.Rank() == sweepCrashRank+1 {
			out.total3 = faulty.Ops(p)
		}
	})
	return out
}

// TestCrashSweep crashes rank 2 at every checked operation it
// issues in a run, one world per ordinal, for each phase at P = 3, 4 and
// 8 on dsim. The ordinals come from an uncrashed run's operation counts:
// the phase is what rank 2 issues inside Process, its exit barrier
// included. A crash in the phase must be healed exactly — executed +
// salvaged equals the uncrashed task count — and any other must surface
// as a FaultError from Run. A hang fails either way: dsim reports a
// deadlock, and MaxVirtualTime ends a survivor spinning on what never
// comes.
func TestCrashSweep(t *testing.T) {
	for _, ph := range sweepPhases {
		for _, n := range []int{3, 4, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", ph.name, n), func(t *testing.T) {
				t.Parallel()
				clean := runSweep(sweepDSim, ph, n, 0, 0)
				if clean.err != nil || clean.executed != clean.want {
					t.Fatalf("uncrashed run: err %v, executed %d of %d", clean.err, clean.executed, clean.want)
				}
				if ph.full && clean.inline == 0 {
					t.Fatalf("uncrashed run: no queue filled (MaxTasks %d)", ph.cfg.MaxTasks)
				}
				var failed int
				for k := int64(1); k <= clean.total; k++ {
					got := runSweep(sweepDSim, ph, n, k, 0)
					var fe *pgas.FaultError
					switch inPhase := k > clean.before && k <= clean.after; {
					case inPhase && got.err != nil:
						t.Errorf("k=%d %s (in the phase, ops %d..%d): %v", k, got.op, clean.before+1, clean.after, got.err)
					case inPhase && got.executed+got.salvaged != clean.want:
						t.Errorf("k=%d %s (in the phase): executed %d + salvaged %d, want %d",
							k, got.op, got.executed, got.salvaged, clean.want)
					case !inPhase && !errors.As(got.err, &fe):
						t.Errorf("k=%d %s (outside the phase, ops %d..%d): want a FaultError, got %v", k, got.op, clean.before+1, clean.after, got.err)
					default:
						continue
					}
					if failed++; failed > 20 {
						t.Fatal("too many failures")
					}
				}
			})
		}
	}
}

// TestCrashAtPhaseEntrySHM: the phase boundary on shm, where the schedule
// differs run to run. Rank 2 crashes at the op an uncrashed run entered
// Process on and at the one after: a crash before rank 2 entered Process
// must be fatal on every survivor, and one after it healed exactly, though
// a survivor may meet it still seeding, outside Process. Contention can
// lengthen rank 2's remote adds, so each run says which side it fell on;
// some must fall inside.
func TestCrashAtPhaseEntrySHM(t *testing.T) {
	const n, runs = 4, 20
	for _, ph := range sweepPhases {
		clean := runSweep(sweepSHM, ph, n, 0, 0)
		inside := 0
		for i := 0; i < 2*runs; i++ {
			k := clean.before + int64(i%2)
			got := runSweep(sweepSHM, ph, n, k, 0)
			var fe *pgas.FaultError
			switch {
			case got.before == 0 && !errors.As(got.err, &fe):
				t.Errorf("%s: crash at op %d (%s) in set-up: want a FaultError, got %v", ph.name, k, got.op, got.err)
			case got.before > 0 && (got.err != nil || got.executed+got.salvaged != clean.want):
				t.Errorf("%s: crash at op %d (%s), rank 2's first in Process is %d: err %v, executed %d + salvaged %d, want %d",
					ph.name, k, got.op, got.before+1, got.err, got.executed, got.salvaged, clean.want)
			case got.before > 0 && k == got.before+1:
				inside++
			}
		}
		if inside == 0 {
			t.Errorf("%s: no crash landed on rank 2's first op in Process", ph.name)
		}
	}
}

// TestCrashSweepTwoDeaths crashes rank 2 at every operation of the
// deferred phases and the spawning tree at P = 4 and, in each such world,
// rank 3 at every operation it issues, before rank 2's death or after it.
// The second death must be healed exactly too, or surface as a crash's
// FaultError (it came inside a recovery, or outside the phase); never a
// hang, a wrong count or another error. Among these orders rank 3 dies
// while a survivor resumes an execution the first death cut short, past
// the edges it skipped. The tree takes seconds, so -short leaves it out;
// tree-full is left out always: two recoveries overflow its 64-slot
// journals ("work-replay journal full").
func TestCrashSweepTwoDeaths(t *testing.T) {
	for _, ph := range sweepPhases[:3] {
		t.Run(ph.name, func(t *testing.T) {
			if ph.name == "tree" && testing.Short() {
				t.Skip("the spawning tree's two-death sweep takes seconds")
			}
			t.Parallel()
			const n = 4
			clean := runSweep(sweepDSim, ph, n, 0, 0)
			healed, failed := 0, 0
			for k1 := clean.before + 1; k1 <= clean.after && failed < 20; k1++ {
				first := runSweep(sweepDSim, ph, n, k1, 0)
				for k2 := int64(1); k2 <= first.total3 && failed < 20; k2++ {
					got := runSweep(sweepDSim, ph, n, k1, k2)
					var fe *pgas.FaultError
					switch {
					case got.err == nil && got.executed+got.salvaged == clean.want:
						healed++
						continue
					case got.err == nil:
						t.Errorf("k1=%d %s, k2=%d %s: executed %d + salvaged %d, want %d",
							k1, got.op, k2, got.op3, got.executed, got.salvaged, clean.want)
					case !errors.As(got.err, &fe) || fe.Phase != "injected-crash" || fe.Rank < sweepCrashRank || fe.Rank > sweepCrashRank+1:
						t.Errorf("k1=%d %s, k2=%d %s: %v", k1, got.op, k2, got.op3, got.err)
					default:
						continue
					}
					failed++
				}
			}
			if healed == 0 {
				t.Error("no world with two deaths was healed")
			}
		})
	}
}
