package core

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// storeFault is what the ranks of one TestMirrorsFollowPublishedWords run
// share (dsim runs one rank at a time, so plain fields do).
type storeFault struct {
	word int   // wShared or wTop
	dir  int64 // +1: the op raises the word, -1: lowers it
	nth  int   // fault the survivors' nth such op

	seen    int
	die     bool   // the victim crashes in its next operation
	verdict string // what the faulted op left behind: "ok" or the disagreement
	below   string // the first time a survivor's published top was below its mirror
}

// storeFaulter is a proc that delivers a peer's death out of the chosen
// ordered op publishing an owner-moved queue word: the Store64 of a locked
// push or pop, the FetchAdd64 of a release, the CAS64 of a reacquire. It
// tells the victim to die, waits until the transport reports the death,
// and lets that surface in place of the op — which unwinds with a
// FaultError and is never applied.
type storeFaulter struct {
	pgas.Proc
	q *taskQueue // set while the phase runs; nil = disarmed
	*storeFault
}

const mirrorVictim = 2

func (f *storeFaulter) Unwrap() pgas.Kernel { return f.Proc }

// dieIfAsked crashes the victim rank from inside one of its own operations.
func (f *storeFaulter) dieIfAsked() {
	if f.Rank() == mirrorVictim && f.die {
		panic(&pgas.FaultError{Rank: mirrorVictim, Phase: "injected-crash"})
	}
}

func (f *storeFaulter) Load64(proc int, seg pgas.Seg, idx int) int64 {
	f.dieIfAsked()
	return f.Proc.Load64(proc, seg, idx)
}

func (f *storeFaulter) TryLock(proc int, id pgas.LockID) bool {
	f.dieIfAsked()
	return f.Proc.TryLock(proc, id)
}

// publishing is called ahead of an ordered op that moves word idx of rank
// proc's seg by change; the chosen one never returns from here. Ahead of
// every ordered op on a survivor's own queue words it checks that the
// published top is not below the top mirror.
func (f *storeFaulter) publishing(proc int, seg pgas.Seg, idx int, change int64) {
	q := f.q
	if q == nil || f.Rank() == mirrorVictim || proc != f.Rank() || seg != q.meta {
		return
	}
	if top := f.Proc.RelaxedLoad64(seg, wTop); top < q.top && f.below == "" {
		f.below = fmt.Sprintf("rank %d: published top %d below its mirror %d", f.Rank(), top, q.top)
	}
	if idx != f.word || change*f.dir <= 0 {
		return
	}
	if f.seen++; f.seen != f.nth {
		return
	}
	defer func() {
		// The op did not happen; the mirrors must not have moved either, or
		// owner and thieves now disagree. A release and a reacquire
		// republish the exact top beside their op, a locked push or pop
		// stores it: the published top equals the mirror at all four.
		f.verdict = "ok"
		top, w, m := f.Proc.RelaxedLoad64(seg, wTop), q.sharedHint(), 2*int64(q.capacity)
		if q.top != top || emod(q.split, m) != emod(wordB(w)+wordN(w), m) {
			f.verdict = fmt.Sprintf("mirrors (top %d, split %d) left the words (top %d, b %d + n %d) behind", q.top, q.split, top, wordB(w), wordN(w))
		}
	}()
	f.die = true
	for {
		f.Proc.Load64(proc, seg, wDirty) // panics once the death is registered
	}
}

func (f *storeFaulter) Store64(proc int, seg pgas.Seg, idx int, val int64) {
	f.publishing(proc, seg, idx, val-f.Proc.RelaxedLoad64(seg, idx))
	f.Proc.Store64(proc, seg, idx, val)
}

func (f *storeFaulter) FetchAdd64(proc int, seg pgas.Seg, idx int, delta int64) int64 {
	f.publishing(proc, seg, idx, delta)
	return f.Proc.FetchAdd64(proc, seg, idx, delta)
}

func (f *storeFaulter) CAS64(proc int, seg pgas.Seg, idx int, old, new int64) bool {
	f.publishing(proc, seg, idx, new-old)
	return f.Proc.CAS64(proc, seg, idx, old, new)
}

// TestMirrorsFollowPublishedWords: the owner's mirrors — of its top, and
// of the split b+n of the packed word — change only after the op that
// publishes the move has returned. A rank dies such that a survivor learns
// of it inside a release (FetchAdd64), a reacquire (CAS64), a locked-mode
// push and a locked-mode pop (Store64); each time the mirrors still agree
// with the words when the fault leaves the op, and the recovered run
// executes every task exactly once. The published top of a split queue is
// a high-water mark: never below the top mirror, and equal to it at a
// release, a reacquire and the end of the phase.
func TestMirrorsFollowPublishedWords(t *testing.T) {
	const n = 3
	const seeded = 200
	for _, c := range []struct {
		name string
		mode QueueMode
		word int
		dir  int64
	}{
		{"release", ModeSplit, wShared, +1},
		{"reacquire", ModeSplit, wShared, -1},
		{"locked push", ModeLocked, wTop, +1},
		{"locked pop", ModeLocked, wTop, -1},
	} {
		for _, nth := range []int{1, 2, 3} {
			sf := &storeFault{word: c.word, dir: c.dir, nth: nth}
			var durable int64
			err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true}).Run(func(p pgas.Proc) {
				f := &storeFaulter{Proc: p, storeFault: sf}
				rt := Attach(f)
				rt.EnableRecovery()
				tc := NewTC(rt, Config{MaxBodySize: 8, ChunkSize: 8, MaxTasks: 256, QueueMode: c.mode})
				// Callbacks add nothing: the faults are meant for the
				// queue's own operations.
				task := NewTask(tc.Register(func(tc *TC, _ *Task) { tc.Proc().Compute(5 * time.Microsecond) }), 8)
				// Rank 1 starts empty: whatever it runs it stole and pushed
				// first.
				for i := 0; i < seeded && p.Rank() != 1; i++ {
					if err := tc.Add(p.Rank(), AffinityHigh, task); err != nil {
						panic(err)
					}
				}
				f.q = tc.q
				tc.Process()
				f.q = nil
				if top := p.RelaxedLoad64(tc.q.meta, wTop); top != tc.q.top && sf.below == "" {
					sf.below = fmt.Sprintf("rank %d: published top %d after the phase, mirror %d", p.Rank(), top, tc.q.top)
				}
				if g := tc.GlobalStats(); p.Rank() == 0 {
					durable = g.TasksExecuted + g.SalvagedExecs
				}
			})
			if sf.verdict != "ok" {
				t.Fatalf("%s %d: the faulted op: %q (empty: vacuous, no fault left the chosen op)", c.name, nth, sf.verdict)
			}
			if sf.below != "" {
				t.Fatalf("%s %d: %s", c.name, nth, sf.below)
			}
			if err != nil {
				t.Fatalf("%s %d: %v", c.name, nth, err)
			}
			if durable != 2*seeded {
				t.Fatalf("%s %d: %d durable completions after recovery, want %d", c.name, nth, durable, 2*seeded)
			}
		}
	}
}
