package core

import (
	"fmt"
	"testing"

	"scioto/internal/pgas"
	"scioto/internal/pgas/shm"
)

// TestLockedQueueReleasesOnEveryPath drives every exit of the locked
// queue's four critical sections — the refusing and the succeeding one of
// push, pop, add and steal — and checks after each that the queue lock it
// took is free again and that no hold is recorded for recovery. A path
// that skips its Unlock leaves the lock cell holding rank 0's tag, and
// this test names that path instead of the next Lock spinning forever.
func TestLockedQueueReleasesOnEveryPath(t *testing.T) {
	const capacity = 4
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 9})
	if err := w.Run(func(p pgas.Proc) {
		q := newTaskQueue(p, ModeLocked, HeaderBytes+8, capacity)
		p.Barrier()
		if p.Rank() == 0 {
			var s Stats
			check := func(op string, target int, result bool) {
				if !result {
					panic(op + ": wrong result")
				}
				if v := p.Load64(target, pgas.Seg(q.lock), 0); v != 0 || q.heldLock != -1 {
					panic(fmt.Sprintf("%s: lock@%d = %d, heldLock %d", op, target, v, q.heldLock))
				}
			}

			_, ok := q.popLocked(&s)
			check("pop empty", 0, !ok)
			check("push", 0, q.pushLocked(mkWire(8, 0), &s))
			_, ok = q.popLocked(&s)
			check("pop", 0, ok)

			for i := int64(0); i < capacity; i++ {
				check("push", 0, q.pushLocked(mkWire(8, i), &s))
			}
			check("push full", 0, !q.pushLocked(mkWire(8, 9), &s))
			check("add full", 0, !q.addLocked(0, mkWire(8, 9), &s))
			_, ok = q.popLocked(&s)
			check("pop", 0, ok)
			check("add", 0, q.addLocked(0, mkWire(8, 9), &s))

			_, res := q.stealLocked(1, 2, false, &s)
			check("steal empty", 1, res == stealEmpty)
			check("add to 1", 1, q.addLocked(1, mkWire(8, 9), &s))
			_, res = q.stealLocked(1, 2, true, &s)
			check("steal", 1, res == stealOK)
		}
		p.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}
