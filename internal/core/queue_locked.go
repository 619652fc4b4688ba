package core

// The ModeLocked queue: the paper's original implementation, kept as the
// ablation baseline of Figure 7's No-Split series. Every operation — the
// owner's insert and get included — brackets its index loads and stores
// with the queue lock; the ring, the slot layout and the steal batches are
// the split queue's (queue.go). Only this mode can be unwound by a fault
// with a lock held, so the hold tracking recovery needs lives here too.

import (
	"time"

	"scioto/internal/pgas"
)

// locked notes that this rank now holds rank proc's queue lock, asked for
// at t0, and returns the start of the hold for unlocked. Both follow the
// literal Lock/Unlock call at every site; TestLockedQueueReleasesOnEveryPath
// checks that every exit of every critical section drops the lock.
func (q *taskQueue) locked(t0 time.Duration, proc int) time.Duration {
	q.heldLock = proc
	return q.obs.lockWait(t0, proc)
}

func (q *taskQueue) unlocked(lockT time.Duration, proc int) {
	q.heldLock = -1
	q.obs.lockHeld(lockT, proc)
}

// releaseHeldLock drops a queue lock left held by a mid-critical-section
// unwind and breaks this rank's own queue lock if the dead rank died
// holding it (recovery path, after the fault's acknowledgement: both are
// checked communication). A lock instance hosted on a dead rank is left
// as it is: nobody takes it again.
func (q *taskQueue) releaseHeldLock(alive []bool, dead int) {
	if q.heldLock >= 0 {
		if alive[q.heldLock] {
			q.p.Unlock(q.heldLock, q.lock)
		}
		q.heldLock = -1
	}
	if q.mode == ModeLocked {
		pgas.BreakLock(q.p, q.p.Rank(), q.lock, dead)
	}
}

// pushLocked inserts at the owner end under the queue lock (ModeLocked).
func (q *taskQueue) pushLocked(wire []byte, s *Stats) bool {
	me := q.p.Rank()
	t0 := q.obs.now()
	q.p.Lock(me, q.lock)
	lockT := q.locked(t0, me)
	top := q.p.Load64(me, q.meta, wTop)
	bottom := q.p.Load64(me, q.meta, wBottom)
	if top-bottom >= int64(q.capacity) {
		q.p.Unlock(me, q.lock)
		q.unlocked(lockT, me)
		return false
	}
	off := q.slotOff(top)
	copy(q.p.Local(q.data)[off:off+len(wire)], wire)
	q.p.Store64(me, q.meta, wTop, top+1)
	q.top = top + 1
	q.p.Unlock(me, q.lock)
	q.unlocked(lockT, me)
	q.charge(len(wire))
	s.LocalInserts++
	return true
}

// popLocked removes from the owner end under the queue lock (ModeLocked);
// like popPrivate it returns the queue's descriptor.
//
//scioto:noalloc
func (q *taskQueue) popLocked(s *Stats) (*Task, bool) {
	me := q.p.Rank()
	t0 := q.obs.now()
	q.p.Lock(me, q.lock)
	lockT := q.locked(t0, me)
	top := q.p.Load64(me, q.meta, wTop)
	bottom := q.p.Load64(me, q.meta, wBottom)
	if top <= bottom {
		q.p.Unlock(me, q.lock)
		q.unlocked(lockT, me)
		return nil, false
	}
	off := q.slotOff(top - 1)
	t := q.decode(q.p.Local(q.data)[off : off+q.slotSize])
	q.p.Store64(me, q.meta, wTop, top-1)
	q.top = top - 1
	q.p.Unlock(me, q.lock)
	q.unlocked(lockT, me)
	q.charge(len(t.wire()))
	s.LocalGets++
	return t, true
}

// addLocked is addRemote on a ModeLocked queue.
//
//scioto:noalloc
func (q *taskQueue) addLocked(proc int, wire []byte, s *Stats) bool {
	t0 := q.obs.now()
	q.p.Lock(proc, q.lock)
	lockT := q.locked(t0, proc)
	// Both index words travel in one pipelined round instead of two
	// sequential remote loads.
	q.p.NbLoad64(proc, q.meta, wBottom, &q.nbBottom)
	q.p.NbLoad64(proc, q.meta, wTop, &q.nbLimit)
	q.p.Flush()
	bottom, top := q.nbBottom, q.nbLimit
	if top-(bottom-1) > int64(q.capacity) {
		q.p.Unlock(proc, q.lock)
		q.unlocked(lockT, proc)
		return false
	}
	newBottom := bottom - 1
	off := q.slotOff(newBottom)
	// The descriptor Put overlaps the index store that publishes it:
	// operations to one target apply in issue order (pgas.Proc), so no
	// reader can observe the lowered bottom before the slot bytes landed.
	// Both complete before Unlock releases the shared region.
	q.p.NbPut(proc, q.data, off, wire)
	q.p.NbStore64(proc, q.meta, wBottom, newBottom)
	q.p.Flush()
	q.p.Unlock(proc, q.lock)
	q.unlocked(lockT, proc)
	q.countAdd(proc, s)
	return true
}

// stealLocked is steal on a ModeLocked queue, the paper's protocol: the
// remote sequence is pipelined into two completion rounds under the lock —
// (bottom, top) loads, then transfer+mark+publish — instead of up to five
// sequential round trips, mirroring how Scioto's ARMCI implementation
// overlaps its queue transfers with non-blocking one-sided operations. The
// tasks it took wait in the queue's batch (stolen) for the thief to push.
//
//scioto:noalloc
func (q *taskQueue) stealLocked(victim, chunk int, markDirty bool, s *Stats) (int64, stealResult) {
	t0 := q.obs.now()
	if !q.p.TryLock(victim, q.lock) {
		// A failed probe is the contended window: the victim's lock was
		// held by someone else for the whole TryLock round trip.
		q.obs.lockWait(t0, victim)
		return 0, stealBusy
	}
	q.heldLock = victim
	lockT := q.obs.now()
	q.p.NbLoad64(victim, q.meta, wBottom, &q.nbBottom)
	q.p.NbLoad64(victim, q.meta, wTop, &q.nbLimit)
	q.p.Flush()
	bottom, limit := q.nbBottom, q.nbLimit
	avail := limit - bottom
	if avail <= 0 {
		q.p.Unlock(victim, q.lock)
		q.unlocked(lockT, victim)
		return 0, stealEmpty
	}
	k := min(int64(chunk), avail)
	if n := int(k) * q.slotSize; cap(q.batch) < n {
		//scioto:alloc-ok grows the queue's batch buffer to the largest steal so far; never per steal once it has
		q.batch = make([]byte, n)
	}
	buf := q.batch[:int(k)*q.slotSize]
	// The extent Gets, the dirty mark, and the store publishing the new
	// steal index leave as one pipelined batch. Overlapping the store with
	// the Gets is safe because operations to one target apply in issue
	// order (pgas.Proc): the owner cannot observe the advanced bottom —
	// and push fresh work onto the stolen slots — before the Gets have
	// read them. All must still complete before Unlock releases the
	// region.
	cut := min(len(buf), len(q.ring)-q.slotOff(bottom))
	q.p.NbGet(buf[:cut], victim, q.data, q.slotOff(bottom))
	if cut < len(buf) {
		q.p.NbGet(buf[cut:], victim, q.data, 0)
	}
	if markDirty {
		q.p.NbFetchAdd64(victim, q.meta, wDirty, 1, &q.nbOld)
		s.DirtyMarksSent++
	}
	q.p.NbStore64(victim, q.meta, wBottom, bottom+k)
	q.p.Flush()
	q.p.Unlock(victim, q.lock)
	q.unlocked(lockT, victim)
	return k, stealOK
}

// stolen is slot i of the batch the last locked steal took.
func (q *taskQueue) stolen(i int64) []byte {
	return q.batch[int(i)*q.slotSize : int(i+1)*q.slotSize]
}
