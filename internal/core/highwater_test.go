package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
)

// ownerCounter is a proc that counts what the owner path asks of pgas.Proc
// besides ordered ops: relaxed stores, Local calls, and the Charges in
// order with their durations. Like a tracing wrapper that overrides Proc's
// methods, it has no Unwrap: the runtime must still see its clock as the
// transport's.
type ownerCounter struct {
	pgas.Proc
	relaxedStores, locals int
	charges               []time.Duration
}

func (c *ownerCounter) RelaxedStore64(seg pgas.Seg, idx int, val int64) {
	c.relaxedStores++
	c.Proc.RelaxedStore64(seg, idx, val)
}

func (c *ownerCounter) Local(seg pgas.Seg) []byte {
	c.locals++
	return c.Proc.Local(seg)
}

func (c *ownerCounter) Charge(d time.Duration) {
	c.charges = append(c.charges, d)
	c.Proc.Charge(d)
}

// TestOwnerCycleWritesNoSharedMemory is the count gate on the owner path:
// a DFS cycle below the mark — pop a task, push it back — issues no
// relaxed store and no Local call. On dsim it charges what it always has,
// the descriptor's localCost for the pop and again for the push (virtual
// time rests on that sequence); on a wall-clock kernel, where Charge is
// empty, it charges nothing: the cycle calls nothing that does nothing.
func TestOwnerCycleWritesNoSharedMemory(t *testing.T) {
	const seeded, cycles = 4, 100
	for _, w := range []struct {
		name    string
		charged bool
		pgas.World
	}{
		{"shm", false, shm.NewWorld(shm.Config{NProcs: 1, Seed: 2})},
		{"dsim", true, dsim.NewWorld(dsim.Config{NProcs: 1, Seed: 2})},
	} {
		if err := w.Run(func(p pgas.Proc) {
			c := &ownerCounter{Proc: p}
			tc := NewTC(Attach(c), Config{MaxBodySize: 24})
			task := NewTask(tc.Register(func(*TC, *Task) {}), 24)
			for i := 0; i < seeded; i++ {
				if err := tc.Add(0, AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			c.relaxedStores, c.locals, c.charges = 0, 0, nil
			var want []time.Duration
			for i := 0; i < cycles; i++ {
				t, ok := tc.popLocal()
				if !ok {
					panic("the seeded tasks are not there to pop")
				}
				cost := localCost(len(t.wire()))
				if err := tc.Add(0, AffinityHigh, t); err != nil {
					panic(err)
				}
				if w.charged {
					want = append(want, cost, cost)
				}
			}
			if c.relaxedStores != 0 || c.locals != 0 {
				panic(fmt.Sprintf("%d cycles issued %d relaxed stores and %d Local calls, want 0 and 0", cycles, c.relaxedStores, c.locals))
			}
			if !slices.Equal(c.charges, want) {
				panic(fmt.Sprintf("%d cycles charged %v, want %v", cycles, c.charges, want))
			}
			if top := p.RelaxedLoad64(tc.q.meta, wTop); top != seeded || tc.q.top != seeded {
				panic(fmt.Sprintf("published top %d, mirror %d, want both %d", top, tc.q.top, seeded))
			}
		}); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// Control words of TestHighWaterMarkRaceStress, on rank 0.
const (
	hwStretch = iota // rank 0 is in stretch s; -1 once there are no more
	hwQuiet          // rank 1 asks rank 0 to stand still: the number of its refusal
	hwAck            // rank 0 stands still for that refusal
	hwEnd            // rank 1 ends stretch s
	hwWords
)

// TestHighWaterMarkRaceStress drives a split queue's high-water mark on
// shm. Rank 0 runs stretches in which it oscillates below its mark — pops
// k tasks and pushes them back, k up to 16 — while rank 1 steals from it
// and adds to it remotely, mostly adds, so that they are refused often.
// At each refusal rank 1 asks rank 0 to stand still (between any two of
// its operations) and checks, from rank 0's mirrors and a quiet word, that
// the refusal was due: the real occupancy plus the mark's slack, pubTop −
// top, had reached the limit. It also checks that the mark is not below
// top and that the adds never filled more than the limit. Between
// stretches rank 0 consumes, pushes fresh tasks above its mark and
// releases; every task identity must run exactly once.
func TestHighWaterMarkRaceStress(t *testing.T) {
	stretches := 1000
	if testing.Short() {
		stretches = 200
	}
	const limit, body = 32, 8
	var (
		q0        *taskQueue // rank 0's queue; rank 1 reads it only while rank 0 stands still
		mu        sync.Mutex
		ran       = map[int64]int{}
		created   [2]int64
		refusals  [2]int // all, and those with free slots under the mark
		violation string
	)
	consume := func(wire []byte) {
		mu.Lock()
		ran[pgas.GetI64(wire[HeaderBytes:])]++
		mu.Unlock()
	}
	err := shm.NewWorld(shm.Config{NProcs: 2, Seed: 21}).Run(func(p pgas.Proc) {
		q := newTaskQueue(p, ModeSplit, HeaderBytes+body, limit)
		ctl := p.AllocWords(hwWords)
		if p.Rank() == 0 {
			q0 = q
		}
		p.Barrier()
		var s Stats
		rng := p.Rand()
		task := NewTask(0, body)
		fresh := func(id int64) []byte {
			pgas.PutI64(task.Body(), id)
			return task.wire()
		}
		if p.Rank() == 1 {
			next := int64(1) << 40
			for st := int64(1); ; st++ {
				for p.Load64(0, ctl, hwStretch) < st {
					if p.Load64(0, ctl, hwStretch) < 0 {
						return
					}
					runtime.Gosched()
				}
				for op := 0; op < 8*limit && violation == ""; op++ {
					if rng.Intn(4) == 0 {
						k, _ := q.steal(0, 1, false, &s)
						for ; k > 0; k-- {
							tk, _ := q.popPrivate(&s)
							consume(tk.wire())
						}
					}
					if q.addRemote(0, fresh(next), &s) {
						next++
						created[1]++
						continue
					}
					ask := int64(refusals[0] + 1)
					p.Store64(0, ctl, hwQuiet, ask)
					for p.Load64(0, ctl, hwAck) != ask {
						runtime.Gosched()
					}
					w, pub := p.Load64(0, q.meta, wShared), p.Load64(0, q.meta, wTop)
					occ := q0.top - q0.split + wordN(w)
					switch {
					case wordBusy(w):
						violation = fmt.Sprintf("stretch %d: the word is not quiet (x %d, a %d)", st, wordX(w), wordA(w))
					case pub < q0.top:
						violation = fmt.Sprintf("stretch %d: published top %d below the real top %d", st, pub, q0.top)
					case occ > limit:
						violation = fmt.Sprintf("stretch %d: %d tasks in a queue of %d", st, occ, limit)
					case occ+pub-q0.top < limit:
						violation = fmt.Sprintf("stretch %d: refused with %d tasks and %d slots of slack, limit %d", st, occ, pub-q0.top, limit)
					}
					refusals[0]++
					if pub > q0.top {
						refusals[1]++
					}
					p.Store64(0, ctl, hwQuiet, 0)
				}
				p.Store64(0, ctl, hwEnd, st)
				if violation != "" {
					return
				}
			}
		}
		next := int64(0)
		pop := func() ([]byte, bool) {
			tk, ok := q.popPrivate(&s)
			if !ok && q.reacquire(&s) {
				tk, ok = q.popPrivate(&s)
			}
			if !ok {
				return nil, false
			}
			return tk.wire(), true
		}
		for st := int64(1); st <= int64(stretches) && violation == ""; st++ {
			for i := rng.Intn(4); i > 0; i-- {
				if wire, ok := pop(); ok {
					consume(wire)
				}
			}
			for i := 4 + rng.Intn(limit); i > 0 && q.pushPrivate(fresh(next), &s); i-- {
				next++
				created[0]++
			}
			if rng.Intn(2) == 0 {
				q.maybeRelease(true, &s)
			}
			for i := rng.Intn(6); i > 0; i-- {
				if tk, ok := q.popPrivate(&s); ok {
					consume(tk.wire())
				}
			}
			// The stretch: below the mark, standing still between any two
			// operations when asked to.
			standStill := func() {
				if ask := p.Load64(0, ctl, hwQuiet); ask != 0 {
					p.Store64(0, ctl, hwAck, ask)
					for p.Load64(0, ctl, hwQuiet) == ask {
						runtime.Gosched()
					}
				}
			}
			p.Store64(0, ctl, hwStretch, st)
			var held [][]byte
			for p.Load64(0, ctl, hwEnd) != st {
				standStill()
				k := min(int64(1+rng.Intn(16)), q.top-q.split)
				for ; k > 0; k-- {
					tk, _ := q.popPrivate(&s)
					held = append(held, append([]byte(nil), tk.wire()...))
					standStill()
				}
				for ; len(held) > 0; held = held[:len(held)-1] {
					if wire := held[len(held)-1]; !q.pushPrivate(wire, &s) {
						consume(wire) // full: the runtime would run it inline
					}
					standStill()
				}
				runtime.Gosched()
			}
		}
		p.Store64(0, ctl, hwStretch, -1)
		for {
			wire, ok := pop()
			if !ok {
				break
			}
			consume(wire)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if violation != "" {
		t.Fatal(violation)
	}
	for id, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times", id, n)
		}
	}
	if int64(len(ran)) != created[0]+created[1] {
		t.Fatalf("%d tasks ran, %d were created (%d by the owner, %d by the adder)", len(ran), created[0]+created[1], created[0], created[1])
	}
	if refusals[0] < stretches/2 || refusals[1] == 0 {
		t.Fatalf("%d stretches saw %d refusals, %d of them with free slots under the mark: the test exercised too little", stretches, refusals[0], refusals[1])
	}
	t.Logf("%d tasks, %d refusals (%d with free slots under the mark)", len(ran), refusals[0], refusals[1])
}
