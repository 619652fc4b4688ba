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
// race` sees the protocol itself: the owner pushes, pops, releases and
// reacquires, three thieves claim from its packed word and land what they
// claim in their own rings, and two remote adders prepend to all four
// queues, on rings of eight slots that wrap hundreds of times and are full
// much of the time. A thief consumes slowly — a pop or two a round, and
// the adders' tasks only by reacquiring them — so that its landings and
// the adds to its ring meet on a ring with little room. Every descriptor
// carries a tag in every word of its body; each tag must be consumed
// exactly once and no descriptor may arrive torn.
func TestSplitQueueRaceStress(t *testing.T) {
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
