package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
)

// lockCounter is a proc that counts queue-lock operations: a split queue
// must issue none.
type lockCounter struct {
	pgas.Proc
	locks *int
}

func (c *lockCounter) Unwrap() pgas.Kernel { return c.Proc }

func (c *lockCounter) Lock(proc int, id pgas.LockID) {
	*c.locks++
	c.Proc.Lock(proc, id)
}

func (c *lockCounter) TryLock(proc int, id pgas.LockID) bool {
	*c.locks++
	return c.Proc.TryLock(proc, id)
}

func (c *lockCounter) Unlock(proc int, id pgas.LockID) {
	*c.locks++
	c.Proc.Unlock(proc, id)
}

// copyChecker is a kernel that checks claim, then copy: every Get of
// another rank's queue slots must sit in the flush that follows a won
// claim CAS on that rank's packed word — learnt when a blocking CAS64
// returns, or at the Flush completing an NbCAS64 — and that one flush
// only; a Get that is not panics. It counts the claims won on an NbCAS64
// that reloads the word it claimed from behind it in the same flush: the
// read-ahead's guesses.
type copyChecker struct {
	pgas.Front
	pgas.Kernel
	q      *taskQueue
	cas    *int64 // an NbCAS64's swapped flag, until the Flush completing it
	casOn  int
	reload bool // a load of casOn's word was issued behind that NbCAS64
	won    int  // the rank whose slots the next flush may Get, -1 = none
	guess  *int
}

func (c *copyChecker) Unwrap() pgas.Kernel { return c.Kernel }

func (c *copyChecker) Issue(op *pgas.Op) pgas.Nb {
	me := c.Rank()
	mine := c.q != nil && op.Target != me
	switch {
	case !mine:
	case op.Kind == pgas.OpGet && op.Seg == c.q.data && op.Target != c.won:
		panic(fmt.Sprintf("rank %d: a Get of rank %d's slots with no claim on it won before the flush", me, op.Target))
	case op.Kind == pgas.OpLoad64 && op.Nb && op.Seg == c.q.meta && op.Off == wShared && c.cas != nil && op.Target == c.casOn:
		c.reload = true
	}
	h := c.Kernel.Issue(op)
	if mine && op.Kind == pgas.OpCAS64 && op.Seg == c.q.meta && op.Off == wShared {
		switch {
		case op.Nb:
			c.cas, c.casOn, c.reload = op.Out, op.Target, false
		case *op.Out != 0:
			c.won = op.Target
		}
	}
	return h
}

func (c *copyChecker) Flush() {
	c.Kernel.Flush()
	c.won = -1
	if c.cas != nil {
		if *c.cas != 0 {
			c.won = c.casOn
			if c.reload {
				*c.guess++
			}
		}
		c.cas = nil
	}
}

// quietWord checks a packed word nobody should be operating on any more.
func quietWord(p pgas.Proc, q *taskQueue) {
	if w := q.sharedHint(); wordN(w) != 0 || wordBusy(w) {
		panic(fmt.Sprintf("rank %d: packed word after the phase: n %d, x %d, a %d", p.Rank(), wordN(w), wordX(w), wordA(w)))
	}
}

// TestClaimExactlyOnceAcrossSeeds: the lock-free claim over many schedules.
// dsim runs one schedule per world seed, so the sweep is over seeds: 200 of
// them at 2, 3 and 8 ranks, each a tree of tasks that spawn children onto
// their own private end, their own shared end and other ranks' shared ends
// (remote adds), on rings of eight tasks that are full much of the time,
// so that steals, releases, reacquires, remote adds and the inline
// fallback all interleave, claims on words read ahead are won and lost,
// and from three ranks up claims on predicted words (a word busy with
// another thief's claim, taken as the quiet word its retire leaves) are
// won: with a chunk of one a claim takes half of a shared portion, so it
// leaves tasks behind for a second thief. Every task carries an identity
// and is marked when it runs: each created task exactly once. No run may
// touch a queue lock, and every copy out of a victim's ring follows a
// claim on it that was won (copyChecker).
func TestClaimExactlyOnceAcrossSeeds(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	const perRank = 1 << 12 // identities a rank may hand out
	for _, n := range []int{2, 3, 8} {
		var steals, ahead, predicted, guesses, remoteAdds, inline int64
		for seed := int64(0); seed < seeds; seed++ {
			created := make([]int, n)
			ran := make([][perRank]int8, n)
			locks, guessed := 0, 0
			err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed}).Run(func(p pgas.Proc) {
				me := p.Rank()
				c := &copyChecker{Kernel: p, won: -1, guess: &guessed}
				c.Bind(c)
				tc := NewTC(Attach(&lockCounter{Proc: c, locks: &locks}), Config{MaxBodySize: 16, ChunkSize: 1, MaxTasks: 8})
				c.q = tc.q
				child := NewTask(0, 16)
				var h Handle
				h = tc.Register(func(tc *TC, task *Task) {
					id, depth := pgas.GetI64(task.Body()), pgas.GetI64(task.Body()[8:])
					ran[id/perRank][id%perRank]++
					rng := p.Rand()
					p.Compute(time.Duration(rng.Intn(40000)) * time.Nanosecond)
					if depth == 0 {
						return
					}
					for kids := rng.Intn(4); kids > 0; kids-- {
						pgas.PutI64(child.Body(), int64(me*perRank+created[me]))
						pgas.PutI64(child.Body()[8:], depth-1)
						created[me]++
						dst, aff := me, AffinityHigh
						switch rng.Intn(3) {
						case 1:
							aff = AffinityLow
						case 2:
							dst, aff = rng.Intn(n), AffinityLow
						}
						if err := tc.Add(dst, aff, child); err != nil {
							panic(err)
						}
					}
				})
				child.SetHandle(h)
				if me == 0 {
					for i := 0; i < 4; i++ {
						pgas.PutI64(child.Body(), int64(created[0]))
						pgas.PutI64(child.Body()[8:], 6)
						created[0]++
						if err := tc.Add(i%n, AffinityLow, child); err != nil {
							panic(err)
						}
					}
				}
				tc.Process()
				quietWord(p, tc.q)
				c.q = nil
				if g := tc.GlobalStats(); me == 0 {
					steals += g.StealsOK
					ahead += g.StealsAhead
					predicted += g.StealsPredicted
					remoteAdds += g.RemoteInserts
					inline += g.InlineExecs
				}
			})
			if err != nil {
				t.Fatalf("P=%d seed %d: %v", n, seed, err)
			}
			if locks != 0 {
				t.Fatalf("P=%d seed %d: a split queue issued %d lock operations", n, seed, locks)
			}
			guesses += int64(guessed)
			for r := range ran {
				for i, times := range ran[r] {
					want := int8(0)
					if i < created[r] {
						want = 1
					}
					if times != want {
						t.Fatalf("P=%d seed %d: task %d of rank %d ran %d times, want %d", n, seed, i, r, times, want)
					}
				}
			}
		}
		if steals == 0 || ahead == 0 || remoteAdds == 0 || inline == 0 || n > 2 && predicted == 0 {
			t.Fatalf("P=%d: vacuous sweep: %d steals (%d on a word read ahead, %d on a predicted word), %d remote adds, %d inline executions",
				n, steals, ahead, predicted, remoteAdds, inline)
		}
		if ahead != guesses {
			t.Fatalf("P=%d: %d steals counted ahead, but %d claims were won on a reloading NbCAS64", n, ahead, guesses)
		}
		t.Logf("P=%d: %d seeds, %d steals (%d on a word read ahead, %d on a predicted word), %d remote adds, %d inline executions",
			n, seeds, steals, ahead, predicted, remoteAdds, inline)
	}
}

// TestPredictedClaimWaitsForTheRetire: a claim on a predicted word on
// three dsim ranks. Rank 0 holds eight shared tasks; thief A (rank 1)
// claims four of them and has not copied them yet, so thief B (rank 2)
// probes a word busy with A's claim. B picks the quiet word A's retire
// will leave; its claim on that word loses, as busy, while A's claim is
// still out, and the same claim wins once A has landed, taking two of the
// four tasks A left — each task landing on one thief only.
func TestPredictedClaimWaitsForTheRetire(t *testing.T) {
	const victim, a, b = 0, 1, 2
	var busy, won, predictedEarly, predicted int64
	var landed [3][]int64
	err := dsim.NewWorld(dsim.Config{NProcs: 3, Seed: 1}).Run(func(p pgas.Proc) {
		me := p.Rank()
		tc := NewTC(Attach(p), Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 16})
		task := NewTask(tc.Register(func(*TC, *Task) {}), 8)
		for i := 0; me == victim && i < 8; i++ {
			pgas.PutI64(task.Body(), int64(i))
			if err := tc.Add(victim, AffinityLow, task); err != nil {
				panic(err)
			}
		}
		q, s := tc.q, &tc.stats
		p.Barrier()
		var w, k int64
		if me == a {
			_, w, _ = q.probe([]int{victim})
			if k = q.claim(victim, w, 2, false, nil, s); k != 4 {
				panic(fmt.Sprintf("thief A claimed %d tasks, want 4", k))
			}
		}
		p.Barrier()
		var res stealResult
		if me == b {
			k, res = q.steal(victim, 2, false, s)
			busy, predictedEarly = int64(res), s.StealsPredicted
			if k != 0 || !q.predicted {
				panic(fmt.Sprintf("thief B took %d tasks on a word it predicted: %v; want a lost claim on one", k, q.predicted))
			}
		}
		p.Barrier()
		if me == a {
			q.land(victim, w, k, nil)
		}
		p.Barrier()
		if me == b {
			// The word B read is still in probed: the same pick, the same
			// predicted word, now current.
			if _, w, res = q.pick([]int{victim}); res != stealOK || !q.predicted {
				panic(fmt.Sprintf("thief B's pick on the word it read: %v, predicted %v", res, q.predicted))
			}
			if k = q.claim(victim, w, 2, false, nil, s); k > 0 {
				q.land(victim, w, k, nil)
			}
			won, predicted = k, s.StealsPredicted
		}
		if me != victim {
			for t, ok := q.popPrivate(s); ok; t, ok = q.popPrivate(s) {
				landed[me] = append(landed[me], pgas.GetI64(t.Body()))
			}
		}
		p.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if busy != int64(stealBusy) || predictedEarly != 0 {
		t.Errorf("thief B's claim before the retire ended as %d with %d predicted claims won, want busy (%d) and none", busy, predictedEarly, stealBusy)
	}
	if won != 2 || predicted != 1 {
		t.Errorf("thief B's claim after the retire took %d tasks, %d predicted claims won; want 2 and 1", won, predicted)
	}
	got := append(slices.Clone(landed[a]), landed[b]...)
	slices.Sort(got)
	if want := []int64{2, 3, 4, 5, 6, 7}; len(landed[a]) != 4 || !slices.Equal(got, want) {
		t.Errorf("thief A landed %v and thief B %v, want four and two of the tasks %v, each once", landed[a], landed[b], want)
	}
}

// TestNeverResetCollectionWraps is the serve daemon's life: one collection
// processed again and again and never Reset, so the packed word's
// ring-relative fields must carry on across wraps. Two ranks. In a forward
// phase rank 1 holds all the work and rank 0 steals from it (rank 1's
// steal end advances); in a backward phase rank 0 adds to rank 1's shared
// end ahead of the phase and keeps itself busy, so that rank 1 takes the
// tasks back itself (the steal end stays where the adds left it). With two
// ranks every task rank 0 stole came from rank 1, so where rank 1's steal
// end must be is known exactly after every phase; the phases go on until
// it has wrapped its modulus three times one way and then three times the
// other. Every task has an identity and runs exactly once.
func TestNeverResetCollectionWraps(t *testing.T) {
	const ring = 8
	const m = 2 * (ring + 1) // the position field's modulus
	var ran []int8           // by task identity; dsim runs one rank at a time
	phases, farthest := 0, 0
	err := dsim.NewWorld(dsim.Config{NProcs: 2, Seed: 21}).Run(func(p pgas.Proc) {
		me := p.Rank()
		tc := NewTC(Attach(p), Config{MaxBodySize: 16, ChunkSize: 2, MaxTasks: ring})
		told := p.AllocWords(1) // on rank 1: where rank 0 says its steal end is
		task := NewTask(tc.Register(func(tc *TC, task *Task) {
			ran[pgas.GetI64(task.Body())]++
			p.Compute(time.Duration(pgas.GetI64(task.Body()[8:])))
		}), 16)
		add := func(dst int, aff int32, cost time.Duration) {
			pgas.PutI64(task.Body(), int64(len(ran)))
			pgas.PutI64(task.Body()[8:], int64(cost))
			ran = append(ran, 0)
			if err := tc.Add(dst, aff, task); err != nil {
				panic(err)
			}
		}
		pos, stolen := 0, int64(0) // rank 1's steal end, unbounded; rank 0's steals so far
		for dir := +1; pos > -3*m; {
			if pos >= 3*m {
				dir = -1
			}
			switch {
			case dir > 0 && me == 1:
				for i := 0; i < ring; i++ {
					add(1, AffinityHigh, 20*time.Microsecond)
				}
			case dir < 0 && me == 0:
				for i := 0; i < ring-2; i++ {
					add(1, AffinityLow, time.Microsecond)
					pos--
				}
				add(0, AffinityHigh, 60*time.Microsecond)
			}
			tc.Process()
			if me == 0 {
				pos += int(tc.Stats().TasksStolen - stolen)
				stolen = tc.Stats().TasksStolen
				p.Store64(1, told, 0, int64(pos))
			}
			tc.GlobalStats() // its barriers order the store above and the marks
			quietWord(p, tc.q)
			if me == 1 {
				pos = int(p.Load64(1, told, 0))
				if w := tc.q.sharedHint(); wordB(w) != emod(int64(pos), m) || emod(tc.q.split, m) != wordB(w) {
					panic(fmt.Sprintf("phase %d: steal end at %d, split mirror %d, want %d (mod %d)", phases, wordB(w), tc.q.split, pos, m))
				}
				phases++
				farthest = max(farthest, pos)
			}
			for id, times := range ran {
				if times != 1 {
					panic(fmt.Sprintf("task %d ran %d times", id, times))
				}
			}
			p.Barrier() // the next phase's tasks are not marked yet
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if farthest < 3*m {
		t.Fatalf("the steal end only reached %+d, want %+d", farthest, 3*m)
	}
	t.Logf("%d phases without a Reset: steal end out to %+d and back to %+d, modulus %d", phases, farthest, -3*m, m)
}

// claimFault is what the ranks of one TestRecoveryOfAbandonedClaims run
// share (dsim runs one rank at a time, so plain fields do).
type claimFault struct {
	point string // where the fault strikes, see the test
	nth   int    // at the nth time the chosen rank gets there

	queues []*taskQueue // every rank's
	seen   int
	die    bool  // rank claimDier crashes in its next operation
	victim int   // whose packed word the fault left a claim or an announcement in
	left   int64 // that word, as the fault left it
}

// The rank that dies, the thief that survives having its steal unwound, and
// the least a remote round trip takes in the test's world.
const (
	claimDier    = 2
	claimWitness = 1
	claimLatency = 4 * time.Microsecond
)

// claimFaulter is a proc that strikes inside the split queue's two
// multi-round operations: between a thief's claim CAS and its copy, and
// between an adder's announcement and its Put. Like pgas/faulty it is a
// kernel over the transport's, so every one-sided operation passes
// through its Issue.
type claimFaulter struct {
	pgas.Front
	pgas.Kernel
	q  *taskQueue // set while the phase runs; nil = disarmed
	on int        // the victim this rank has just claimed from, -1 = none
	// cas is the swapped flag of a marked claim's NbCAS64 on victim casOn:
	// the claim is known won or lost only at the Flush that completes it.
	cas   *int64
	casOn int
	*claimFault
}

func (f *claimFaulter) Unwrap() pgas.Kernel { return f.Kernel }

// dieIfAsked crashes claimDier from inside one of its own operations.
func (f *claimFaulter) dieIfAsked() {
	if f.Rank() == claimDier && f.die {
		panic(&pgas.FaultError{Rank: claimDier, Phase: "injected-crash"})
	}
}

// strike reports whether this is the chosen occurrence, and if so notes
// the word it is about to leave behind on rank victim. dsim keeps every
// rank's words in one address space and this rank holds the scheduler's
// token, so the victim's own queue can be asked.
func (f *claimFaulter) strike(victim int) bool {
	if f.seen++; f.seen != f.nth {
		return false
	}
	f.victim, f.left = victim, f.queues[victim].sharedHint()
	return true
}

// awaitDeath has claimDier die and returns only by the panic that
// delivers its death to this rank.
func (f *claimFaulter) awaitDeath() {
	f.die = true
	var dirty int64
	for {
		f.Kernel.Issue(&pgas.Op{Kind: pgas.OpLoad64, Target: f.Rank(), Seg: f.q.meta, Off: wDirty, Out: &dirty})
	}
}

// Issue: like an injected crash of pgas/faulty, the rank that dies does so
// as an operation begins, never between two (execute counts on that: a
// task's completion mark and its callback have no operation between them).
func (f *claimFaulter) Issue(op *pgas.Op) pgas.Nb {
	f.dieIfAsked()
	me, q := f.Rank(), f.q
	switch {
	case q == nil || op.Target == me:
	case op.Kind == pgas.OpGet && f.on >= 0 && f.point != "thief unwound, copy in flight":
		on := f.on
		f.on = -1
		if f.point == "thief dies" && me == claimDier && f.strike(on) {
			panic(&pgas.FaultError{Rank: claimDier, Phase: "injected-crash"})
		}
		if f.point == "thief unwound" && me == claimWitness && f.strike(on) {
			f.awaitDeath()
		}
	case op.Kind == pgas.OpPut && op.Seg == q.data && f.point == "adder dies" && me == claimDier && f.strike(op.Target):
		panic(&pgas.FaultError{Rank: claimDier, Phase: "injected-crash"})
	}
	h := f.Kernel.Issue(op)
	if q != nil && op.Kind == pgas.OpCAS64 && op.Target != me && op.Seg == q.meta && op.Off == wShared {
		if op.Nb {
			f.cas, f.casOn = op.Out, op.Target
		} else if *op.Out != 0 {
			f.on = op.Target
		}
	}
	return h
}

func (f *claimFaulter) Flush() {
	if on := f.on; on >= 0 {
		f.on = -1
		// The Gets and the retiring fetch-add are issued. If the rank that
		// is to die is due back before this flush can complete, dsim
		// resumes it first, it dies as its next operation begins, and the
		// flush is where this rank learns of it.
		if f.Rank() == claimWitness && f.queues[claimDier].p.Now() < f.Now()+claimLatency && f.strike(on) {
			f.die = true
			f.Kernel.Flush()
			f.left = 0 // the copy completed after all
			f.awaitDeath()
		}
	}
	f.Kernel.Flush()
	if f.cas != nil {
		if *f.cas != 0 {
			f.on = f.casOn
		}
		f.cas = nil
	}
}

// TestRecoveryOfAbandonedClaims: what a dead or unwound rank leaves in
// another rank's packed word does not outlive recovery, and the tasks
// behind it run exactly once. A thief dies between its claim CAS and its
// copy (x stays set: the claimed tasks are in nobody's queue); a surviving
// thief is unwound by another rank's death at the same point, and again
// with the copy and the retiring fetch-add issued but not complete (they
// land at the start of recovery, before the victim tidies its word); an
// adder dies having announced itself and not yet put its task (a stays
// set). Every time, every survivor's word is quiet once the recovered
// phase has terminated, and executions plus salvaged completions equal
// the tasks created; and at least three times per point the word the
// fault left behind was not quiet (every time, but for the copy in flight,
// which the fault must catch between issue and completion). The thief's
// points run twice: as the schedule marks claims, and with every claim
// marked, so that the claims the fault strikes are won at the Flush that
// completes the mark's batch.
func TestRecoveryOfAbandonedClaims(t *testing.T) {
	const n = 4
	const seeded = 60
	for _, c := range []struct {
		point  string
		marked bool // every claim marks its victim dirty: an NbCAS64 in the mark's batch
	}{
		{"thief dies", false}, {"thief dies", true}, {"thief unwound", false}, {"thief unwound", true},
		{"thief unwound, copy in flight", false}, {"thief unwound, copy in flight", true}, {"adder dies", false},
	} {
		point := c.point
		if c.marked {
			point += ", marked"
		}
		hits, runs := 0, 0
		// Schedules differ by world seed; within one, the fault strikes at
		// the rank's first, second, ... arrival at the point until it no
		// longer gets there.
		for seed, nth := int64(1), 1; seed <= 8 && hits < 3; nth++ {
			cf := &claimFault{point: c.point, nth: nth, queues: make([]*taskQueue, n), victim: -1}
			var durable int64
			err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed, Survivable: true, Latency: claimLatency}).Run(func(p pgas.Proc) {
				me := p.Rank()
				f := &claimFaulter{Kernel: p, on: -1, claimFault: cf}
				f.Bind(f)
				rt := Attach(f)
				rt.EnableRecovery()
				tc := NewTC(rt, Config{MaxBodySize: 8, ChunkSize: 3, MaxTasks: 256, DisableColoringOpt: c.marked})
				// A parent creates one child and a child nothing, so the
				// tasks created are twice the parents whatever is lost to a
				// fault. Only the rank that dies adds remotely.
				child := NewTask(0, 8)
				child.SetHandle(tc.Register(func(tc *TC, task *Task) {
					p.Compute(5 * time.Microsecond)
					if task.Body()[0] == 0 {
						return
					}
					dst, aff := me, AffinityHigh
					if me == claimDier {
						dst, aff = (me+1)%n, AffinityLow
					}
					if err := tc.Add(dst, aff, child); err != nil {
						panic(err)
					}
				}))
				parent := NewTask(child.Handle(), 8)
				parent.Body()[0] = 1
				// Ranks 1 and 2 start empty: whatever they run they stole.
				for i := 0; i < seeded && (me == 0 || me == 3); i++ {
					if err := tc.Add(me, AffinityHigh, parent); err != nil {
						panic(err)
					}
				}
				cf.queues[me] = tc.q
				p.Barrier()
				f.q = tc.q
				tc.Process()
				f.q = nil
				quietWord(p, tc.q)
				if g := tc.GlobalStats(); me == 0 {
					durable = g.TasksExecuted + g.SalvagedExecs
				}
			})
			runs++
			name := fmt.Sprintf("%s, seed %d, occurrence %d", point, seed, nth)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if durable != 4*seeded {
				t.Fatalf("%s: %d durable completions after recovery, want %d", name, durable, 4*seeded)
			}
			if cf.victim < 0 {
				seed, nth = seed+1, 0
				continue
			}
			if wordBusy(cf.left) {
				hits++
				if c.point == "adder dies" != (wordA(cf.left) != 0) {
					t.Fatalf("%s: the fault left x %d, a %d", name, wordX(cf.left), wordA(cf.left))
				}
			}
		}
		if hits < 3 {
			t.Fatalf("%s: the fault left a claim or an announcement behind only %d times over 8 seeds", point, hits)
		}
		t.Logf("%s: %d hits in %d runs", point, hits, runs)
	}
}
