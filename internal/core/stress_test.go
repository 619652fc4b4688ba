package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/pgas"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
)

// Roles of TestSplitQueueRaceStress: rank 0 owns the queue the next three
// ranks steal from, landing what they take in their own queues, and the
// last two ranks add to all four remotely.
const (
	stressThieves = 3
	stressAdders  = 2
	stressProcs   = 1 + stressThieves + stressAdders
	stressRing    = 8 // tasks the owner's queue holds
	stressBody    = 40
)

// stressWire is a descriptor whose every body word is its tag, so a slot
// read while someone else writes it shows as words that disagree.
func stressWire(task *Task, tag int64) []byte {
	for o := 0; o < stressBody; o += 8 {
		pgas.PutI64(task.Body()[o:], tag)
	}
	return task.wire()
}

// stressTag returns the tag of a descriptor image, or an error for a torn
// one.
func stressTag(wire []byte) (int64, error) {
	body := wire[HeaderBytes:wireLen(wire)]
	tag := pgas.GetI64(body)
	for o := 8; o < stressBody; o += 8 {
		if got := pgas.GetI64(body[o:]); got != tag {
			return 0, fmt.Errorf("torn descriptor: word 0 says tag %d, word %d says %d", tag, o/8, got)
		}
	}
	return tag, nil
}

// TestSplitQueueRaceStress drives the real split queue on shm, where ranks
// are goroutines and every operation is a real atomic or copy, so `make
// race` sees the protocol itself, first queue by queue (stressQueues),
// then through whole phases of spawning callbacks (stressSpawns).
func TestSplitQueueRaceStress(t *testing.T) {
	t.Run("queues", stressQueues)
	t.Run("spawns", stressSpawns)
}

// stressQueues: the owner pushes, pops, releases and
// reacquires, three thieves claim from its packed word and land what they
// claim in their own rings, and two remote adders prepend to all four
// queues, on rings of eight slots that wrap hundreds of times and are full
// much of the time. A thief consumes slowly — a pop or two a round, and
// the adders' tasks only by reacquiring them — so that its landings and
// the adds to its ring meet on a ring with little room. Every descriptor
// carries a tag in every word of its body; each tag must be consumed
// exactly once and no descriptor may arrive torn.
func stressQueues(t *testing.T) {
	perProducer := int64(20000)
	if testing.Short() {
		perProducer = 4000
	}
	total := perProducer * (1 + stressAdders)
	// Exactly-once and untorn are hard failures. That every role got to
	// act — steals by every thief, both full paths — is a property of the
	// interleaving the host's scheduler chose: retry with a fresh seed
	// rather than flake on a legitimate, useless one.
	for attempt := int64(0); attempt < 5; attempt++ {
		seen := make([]atomic.Int32, total)
		var consumed, ownerFull, adderFull atomic.Int64
		var stole [stressProcs]atomic.Int64
		// A violation stops every rank's loop (a rank that panicked would
		// leave the others spinning) and fails the test after the run.
		var violation atomic.Pointer[error]
		running := func() bool { return consumed.Load() < total && violation.Load() == nil }
		consume := func(wire []byte) {
			tag, err := stressTag(wire)
			if err == nil && seen[tag].Add(1) != 1 {
				err = fmt.Errorf("tag %d consumed twice", tag)
			}
			if err != nil {
				violation.CompareAndSwap(nil, &err)
			}
			consumed.Add(1)
		}
		// One operation in fifty stalls for up to 20 µs before it executes,
		// which holds the protocol's windows — a claim made and not yet
		// copied, an adder announced and its slot not yet written — open for
		// many of the other ranks' operations.
		w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: stressProcs, Seed: 11 + attempt}),
			faulty.Config{Seed: 5 + attempt, CrashRank: faulty.NoCrash, DelayProb: 0.02, MaxDelay: 20 * time.Microsecond})
		err := w.Run(func(p pgas.Proc) {
			q := newTaskQueue(p, ModeSplit, HeaderBytes+stressBody, stressRing)
			p.Barrier()
			var s Stats
			task := NewTask(0, stressBody)
			me := int64(p.Rank())
			switch {
			case me == 0:
				// Bursts of pushes, then of pops, so that the owner's end
				// sweeps the ring instead of hovering over one slot.
				next := int64(0)
				for running() {
					runtime.Gosched() // six ranks share the host's processors
					for burst := p.Rand().Intn(6); burst > 0 && next < perProducer; burst-- {
						if q.pushPrivate(stressWire(task, next), &s) {
							next++
						} else {
							ownerFull.Add(1)
						}
					}
					q.maybeRelease(next%3 == 0, &s)
					for burst := p.Rand().Intn(6); burst > 0; burst-- {
						tk, ok := q.popPrivate(&s)
						if !ok && q.reacquire(&s) {
							tk, ok = q.popPrivate(&s)
						}
						if ok {
							consume(tk.wire())
						}
					}
				}
			case me <= stressThieves:
				for running() {
					k, _ := q.steal(0, 3, me == 1, &s)
					stole[me].Add(k)
					runtime.Gosched()
					for burst := p.Rand().Intn(3); burst > 0; burst-- {
						tk, ok := q.popPrivate(&s)
						if !ok && q.reacquire(&s) {
							tk, ok = q.popPrivate(&s)
						}
						if ok {
							consume(tk.wire())
						}
					}
				}
			default:
				base := perProducer * (me - stressThieves)
				for next := int64(0); next < perProducer && violation.Load() == nil; {
					if q.addRemote(p.Rand().Intn(1+stressThieves), stressWire(task, base+next), &s) {
						next++
					} else {
						adderFull.Add(1)
						runtime.Gosched()
					}
				}
			}
			p.Barrier()
			if w := p.Load64(int(me), q.meta, wShared); violation.Load() == nil && (wordN(w) != 0 || wordBusy(w)) {
				err := fmt.Errorf("rank %d's drained queue's word: n %d, x %d, a %d", me, wordN(w), wordX(w), wordA(w))
				violation.CompareAndSwap(nil, &err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := violation.Load(); v != nil {
			t.Fatal(*v)
		}
		for tag := range seen {
			if n := seen[tag].Load(); n != 1 {
				t.Fatalf("tag %d consumed %d times", tag, n)
			}
		}
		covered := ownerFull.Load() > 0 && adderFull.Load() > 0
		for r := 1; r <= stressThieves; r++ {
			covered = covered && stole[r].Load() > 0
		}
		if wraps := total / stressRing; wraps < 100 {
			t.Fatalf("the ring wrapped only %d times", wraps)
		}
		if covered {
			return
		}
		t.Logf("attempt %d: owner full %d, adder full %d, stolen %d %d %d; retrying with a new seed", attempt,
			ownerFull.Load(), adderFull.Load(), stole[1].Load(), stole[2].Load(), stole[3].Load())
	}
	t.Fatal("no attempt had every thief steal and both full paths taken; the test exercised too little")
}

// stressSpawns: phases on four shm ranks with rings of 24 tasks, in
// which rank 0's trees have callbacks that spawn releaseInterval+3 local
// children each, so their spawn buffers reach the ring mid-spawn and as
// they return, while chains of tasks on the other ranks add to rank 0
// remotely, into the ring those pushes land on, and every rank steals.
// Full rings send spawns inline at their add and at their push. Every
// task carries a tag in every word of its body; each tag must run exactly
// once and no descriptor may arrive torn.
func stressSpawns(t *testing.T) {
	const n, body, branch, depth, roots, chain, perLink = 4, stressBody + 8, releaseInterval + 3, 2, 6, 24, 3
	phases := 12
	if testing.Short() {
		phases = 3
	}
	perPhase := roots*(1+branch+branch*branch) + (n-1)*chain*(1+perLink)
	seen := make([]atomic.Int32, phases*perPhase)
	var tags atomic.Int64
	var violation atomic.Pointer[error]
	fail := func(err error) { violation.CompareAndSwap(nil, &err) }
	var remote, inline atomic.Int64
	w := faulty.Wrap(shm.NewWorld(shm.Config{NProcs: n, Seed: 17}),
		faulty.Config{Seed: 9, CrashRank: faulty.NoCrash, DelayProb: 0.02, MaxDelay: 20 * time.Microsecond})
	err := w.Run(func(p pgas.Proc) {
		me := p.Rank()
		tc := NewTC(Attach(p), Config{MaxBodySize: body, ChunkSize: 2, MaxTasks: 24})
		// tag stamps task with a fresh tag and d in its last body word.
		tag := func(task *Task, d byte) *Task {
			stressWire(task, tags.Add(1)-1)
			task.Body()[stressBody] = d
			return task
		}
		consume := func(task *Task) {
			id, err := stressTag(task.wire())
			if err == nil && seen[id].Add(1) != 1 {
				err = fmt.Errorf("tag %d ran twice", id)
			}
			if err != nil {
				fail(err)
			}
		}
		add := func(dst int, aff int32, task *Task) {
			if err := tc.Add(dst, aff, task); err != nil {
				panic(err)
			}
		}
		leafH := tc.Register(func(_ *TC, task *Task) { consume(task) })
		leaf := NewTask(leafH, body)
		var spawnH, linkH Handle
		spawnH = tc.Register(func(tc *TC, task *Task) {
			consume(task)
			if d := task.Body()[stressBody]; d > 0 {
				for i := 0; i < branch; i++ {
					add(tc.rt.Rank(), AffinityHigh, tag(task, d-1))
				}
			}
		})
		linkH = tc.Register(func(tc *TC, task *Task) {
			consume(task)
			for i := 0; i < perLink; i++ {
				add(0, int32(i%2)*AffinityHigh, tag(leaf, 0))
			}
			if d := task.Body()[stressBody]; d > 0 {
				add(tc.rt.Rank(), AffinityHigh, tag(task, d-1))
			}
		})
		for ph := 0; ph < phases && violation.Load() == nil; ph++ {
			if me == 0 {
				for i := 0; i < roots; i++ {
					add(0, AffinityHigh, tag(NewTask(spawnH, body), depth))
				}
			} else {
				add(me, AffinityHigh, tag(NewTask(linkH, body), chain-1))
			}
			tc.Process()
		}
		s := tc.Stats()
		remote.Add(s.RemoteInserts)
		inline.Add(s.InlineExecs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := violation.Load(); v != nil {
		t.Fatal(*v)
	}
	if got, want := tags.Load(), int64(phases*perPhase); got != want {
		t.Fatalf("%d tasks created, want %d", got, want)
	}
	for id := range seen {
		if k := seen[id].Load(); k != 1 {
			t.Fatalf("tag %d ran %d times", id, k)
		}
	}
	if remote.Load() == 0 || inline.Load() == 0 {
		t.Fatalf("%d remote adds, %d inline executions: the phases exercised too little", remote.Load(), inline.Load())
	}
	t.Logf("%d phases: %d tasks, %d remote adds, %d inline executions", phases, tags.Load(), remote.Load(), inline.Load())
}
