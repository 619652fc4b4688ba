package core

import (
	"sync"
	"time"

	"scioto/internal/pgas"
)

// QueueMode selects the queue synchronization discipline.
type QueueMode int

const (
	// ModeSplit is the paper's split queue: a lock-free private portion
	// for the owner and a locked shared portion for thieves and remote
	// adders, separated by a split pointer that moves work between the
	// portions without copying.
	ModeSplit QueueMode = iota
	// ModeLocked is the paper's original implementation, kept as an
	// ablation (the "No Split" series in Figure 7): every operation,
	// including the owner's local insert and get, acquires the queue lock.
	ModeLocked
)

// String implements fmt.Stringer.
func (m QueueMode) String() string {
	switch m {
	case ModeSplit:
		return "split"
	case ModeLocked:
		return "locked"
	default:
		return "unknown"
	}
}

// Queue metadata word indices within the queue's word segment.
const (
	wBottom = 0 // steal end; advanced by thieves, decremented by adders (under lock)
	wSplit  = 1 // private/shared boundary; raised lock-free by owner, lowered under lock
	wTop    = 2 // owner end; owner-only
	wDirty  = 3 // dirty counter for termination detection, incremented by thieves
	nQWords = 4
)

// localCost models the owner-side bookkeeping cost of a local queue
// operation that touches n payload bytes. Calibrated so a 1 kB-body local
// insert costs ~0.5 µs, matching Table 1.
func localCost(n int) time.Duration {
	return 200*time.Nanosecond + time.Duration(n)*3/10
}

// taskQueue is one process's patch of a task collection: a circular array
// of fixed-size task descriptor slots in symmetric memory, with metadata
// words and a lock, following the layout of Section 5 of the paper.
//
// Indices are monotone-ish 64-bit values mapped onto the ring by modular
// arithmetic; bottom may decrease below its initial value when tasks are
// prepended by remote adds. The live region is [bottom, top), with
// [bottom, split) shared and [split, top) private in ModeSplit.
type taskQueue struct {
	p        pgas.Proc
	mode     QueueMode
	slotSize int
	capacity int

	data pgas.Seg // capacity * slotSize bytes per process
	meta pgas.Seg // nQWords words per process
	lock pgas.LockID

	// top and split mirror wTop and wSplit, the two words no rank but the
	// owner writes, so the owner's paths do not load them back through
	// pgas.Proc. A mirror changes only after the store that publishes its
	// word has returned: an ordered store can unwind with a FaultError, and
	// a mirror moved first leaves owner and thieves disagreeing about the
	// split.
	top, split int64

	// desc is the descriptor the owner's pops decode into, reused from task
	// to task: valid until the next pop.
	desc Task

	// heldLock is the rank whose queue-lock instance this rank currently
	// holds (-1 when none). A fault delivered mid-critical-section unwinds
	// with the lock still held; recovery consults this to release it.
	heldLock int

	// nbOld receives the discarded previous value of the pipelined
	// dirty-mark fetch-add in steal. It lives on the queue rather than the
	// stack so the completion write (performed by a transport goroutine on
	// tcp) has a stable, non-escaping destination.
	nbOld int64
	// nbBottom and nbLimit are the destinations of the pipelined index
	// loads in steal and addRemote (which reads the top word into
	// nbLimit). On the queue for the same reason as nbOld: an out-pointer
	// to a stack local escapes through the interface call and costs a
	// heap allocation per steal.
	nbBottom, nbLimit int64

	obs *Observer // nil = observability disabled
}

// newTaskQueue collectively allocates a task queue. All processes must call
// it with identical parameters.
func newTaskQueue(p pgas.Proc, mode QueueMode, slotSize, capacity int) *taskQueue {
	q := &taskQueue{
		p:        p,
		mode:     mode,
		slotSize: slotSize,
		capacity: capacity,
		data:     p.AllocData(slotSize * capacity),
		meta:     p.AllocWords(nQWords),
		lock:     p.AllocLock(),
		heldLock: -1,
		desc:     Task{buf: make([]byte, slotSize)},
	}
	return q
}

// locked notes that this rank now holds rank proc's queue lock, asked for
// at t0, and returns the start of the hold for unlocked. Both follow the
// literal Lock/Unlock call at every site (the lockbalance lint is
// intraprocedural).
func (q *taskQueue) locked(t0 time.Duration, proc int) time.Duration {
	q.heldLock = proc
	return q.obs.lockWait(t0, proc)
}

func (q *taskQueue) unlocked(lockT time.Duration, proc int) {
	q.heldLock = -1
	q.obs.lockHeld(lockT, proc)
}

// releaseHeldLock drops a queue lock left held by a mid-critical-section
// unwind (recovery path). A lock instance hosted on a dead rank was
// already force-released by the transport.
func (q *taskQueue) releaseHeldLock(alive []bool) {
	if q.heldLock >= 0 {
		if alive[q.heldLock] {
			q.p.Unlock(q.heldLock, q.lock)
		}
		q.heldLock = -1
	}
}

// slotIndex maps a queue index onto the ring (Euclidean modulus, since
// bottom may go negative).
func (q *taskQueue) slotIndex(i int64) int64 {
	m := i % int64(q.capacity)
	if m < 0 {
		m += int64(q.capacity)
	}
	return m
}

// slotOff maps a queue index to a byte offset in the data segment.
func (q *taskQueue) slotOff(i int64) int {
	return int(q.slotIndex(i)) * q.slotSize
}

// reset clears the queue. Caller is responsible for collective ordering
// (typically barriers on both sides).
func (q *taskQueue) reset() {
	me := q.p.Rank()
	q.p.Store64(me, q.meta, wBottom, 0)
	q.p.Store64(me, q.meta, wSplit, 0)
	q.p.Store64(me, q.meta, wTop, 0)
	q.p.Store64(me, q.meta, wDirty, 0)
	q.top, q.split = 0, 0
}

// decode copies the descriptor in slot into the queue's reusable
// descriptor, after the same header checks as decodeTask.
func (q *taskQueue) decode(slot []byte) *Task {
	q.desc.buf = q.desc.buf[:wireLen(slot)] // its capacity is a slot
	copy(q.desc.buf, slot)
	return &q.desc
}

// --- Owner-side size probes (relaxed; hints unless stated otherwise) -----

// privateCount is exact: both words are owner-written.
func (q *taskQueue) privateCount() int64 { return q.top - q.split }

// sharedCountHint may be stale; shared-portion decisions are revalidated
// under the queue lock.
func (q *taskQueue) sharedCountHint() int64 {
	//lint:ignore relaxedword stale-read of wBottom is a hint; reacquire revalidates with ordered loads under the queue lock
	return q.split - q.p.RelaxedLoad64(q.meta, wBottom)
}

// totalCountHint may be stale.
func (q *taskQueue) totalCountHint() int64 {
	//lint:ignore relaxedword stale-read of wBottom only under-reports queue size; callers treat the count as advisory
	return q.top - q.p.RelaxedLoad64(q.meta, wBottom)
}

// --- Split-mode owner fast paths -----------------------------------------

// pushPrivate inserts a task descriptor at the owner end of the private
// portion without locking. It reports false when the queue is full (after
// an ordered refresh of the steal-end index).
//
//scioto:noalloc
func (q *taskQueue) pushPrivate(wire []byte, s *Stats) bool {
	top := q.top
	//lint:ignore relaxedword stale wBottom can only make the queue look fuller; the full case below refreshes it with an ordered load
	bottom := q.p.RelaxedLoad64(q.meta, wBottom)
	if top-bottom >= int64(q.capacity) {
		// The hint says full; refresh bottom with an ordered load in case
		// thieves have made room.
		bottom = q.p.Load64(q.p.Rank(), q.meta, wBottom)
		if top-bottom >= int64(q.capacity) {
			return false
		}
	}
	off := q.slotOff(top)
	copy(q.p.Local(q.data)[off:off+len(wire)], wire)
	q.p.RelaxedStore64(q.meta, wTop, top+1)
	q.top = top + 1
	q.p.Charge(localCost(len(wire)))
	s.LocalInserts++
	return true
}

// popPrivate removes the task at the owner end of the private portion
// without locking and returns it in the queue's descriptor (valid until
// the next pop). ok is false when the private portion is empty.
//
//scioto:noalloc
func (q *taskQueue) popPrivate(s *Stats) (*Task, bool) {
	top := q.top
	if top <= q.split {
		return nil, false
	}
	off := q.slotOff(top - 1)
	t := q.decode(q.p.Local(q.data)[off : off+q.slotSize])
	q.p.RelaxedStore64(q.meta, wTop, top-1)
	q.top = top - 1
	q.p.Charge(localCost(len(t.wire())))
	s.LocalGets++
	return t, true
}

// maybeRelease moves surplus private tasks into the shared portion when the
// shared portion looks empty, making work available for stealing. The split
// pointer is raised with a single ordered store — no lock and no copying.
// ordered forces a fresh read of the steal-end index.
func (q *taskQueue) maybeRelease(ordered bool, s *Stats) {
	top, split := q.top, q.split
	if top-split < 2 {
		return // nothing to spare
	}
	me := q.p.Rank()
	var bottom int64
	if ordered {
		bottom = q.p.Load64(me, q.meta, wBottom)
	} else {
		//lint:ignore relaxedword stale wBottom only delays a release; callers needing certainty pass ordered=true for the ordered load above
		bottom = q.p.RelaxedLoad64(q.meta, wBottom)
	}
	if split-bottom > 0 {
		return // shared portion still has work
	}
	k := (top - split) / 2
	q.p.Store64(me, q.meta, wSplit, split+k)
	q.split = split + k
	q.obs.release(k)
	s.Releases++
	s.TasksReleased += k
}

// reacquire moves shared-portion tasks back into the private portion when
// the private portion has drained. It takes the queue lock because it
// lowers the split pointer, which thieves read to bound their steals.
// It reports whether any tasks were reclaimed.
func (q *taskQueue) reacquire(s *Stats) bool {
	me := q.p.Rank()
	if q.sharedCountHint() <= 0 {
		// Refresh: a remote add may have prepended work invisibly to the
		// relaxed hint.
		if q.p.Load64(me, q.meta, wSplit)-q.p.Load64(me, q.meta, wBottom) <= 0 {
			return false
		}
	}
	t0 := q.obs.now()
	q.p.Lock(me, q.lock)
	lockT := q.locked(t0, me)
	bottom := q.p.Load64(me, q.meta, wBottom)
	split := q.p.Load64(me, q.meta, wSplit)
	avail := split - bottom
	if avail <= 0 {
		q.p.Unlock(me, q.lock)
		q.unlocked(lockT, me)
		return false
	}
	k := (avail + 1) / 2
	q.p.Store64(me, q.meta, wSplit, split-k)
	q.split = split - k
	q.p.Unlock(me, q.lock)
	q.unlocked(lockT, me)
	q.obs.reacquire(k)
	s.Reacquires++
	s.TasksReacquired += k
	return true
}

// --- Locked-mode owner paths ----------------------------------------------

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
	q.p.Charge(localCost(len(wire)))
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
	q.p.Charge(localCost(len(t.wire())))
	s.LocalGets++
	return t, true
}

// --- Remote operations -------------------------------------------------------

// addRemote inserts a task descriptor into the shared (steal) end of the
// queue on process proc, using one-sided operations under the queue lock.
// It reports false if the target queue is full. proc may equal the caller's
// rank, which is how local low-affinity adds reach the shared portion.
//
//scioto:noalloc
func (q *taskQueue) addRemote(proc int, wire []byte, s *Stats) bool {
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
	if proc == q.p.Rank() {
		s.LocalSharedInserts++
	} else {
		s.RemoteInserts++
	}
	return true
}

// stealResult describes the outcome of a steal attempt.
type stealResult int

const (
	stealOK stealResult = iota
	stealEmpty
	stealBusy
)

// stealBatch carries the slot bytes taken by one steal: slots are
// slotSize-sized windows into one bulk buffer. Batches are pooled — the
// caller recycles them once the slots are pushed (a push copies), so the
// steady-state steal path allocates nothing.
type stealBatch struct {
	buf   []byte
	slots [][]byte
}

var stealPool = sync.Pool{New: func() any { return new(stealBatch) }}

// recycle returns the batch to the pool. The caller must not retain the
// slot slices afterwards.
func (b *stealBatch) recycle() {
	b.slots = b.slots[:0]
	stealPool.Put(b)
}

// steal attempts to take up to chunk tasks from the shared end of the queue
// on process victim. Stolen descriptors are returned as a pooled batch of
// raw slot bytes (slotSize each) that the caller recycles after decoding.
// markDirty, when true, increments the victim's dirty counter (termination
// detection) before publishing the new steal index.
//
// The remote sequence is pipelined into two completion rounds under the
// lock — (bottom, limit) loads, then transfer+mark+publish — instead of up
// to five sequential round trips, mirroring how Scioto's ARMCI
// implementation overlaps its queue transfers with non-blocking one-sided
// operations.
//
//scioto:noalloc
func (q *taskQueue) steal(victim, chunk int, markDirty bool, s *Stats) (*stealBatch, stealResult) {
	s.StealAttempts++
	t0 := q.obs.now()
	if !q.p.TryLock(victim, q.lock) {
		// A failed probe is the contended window: the victim's lock was
		// held by someone else for the whole TryLock round trip.
		q.obs.lockWait(t0, victim)
		s.StealsBusy++
		return nil, stealBusy
	}
	q.heldLock = victim
	lockT := q.obs.now()
	limitWord := wSplit
	if q.mode != ModeSplit {
		limitWord = wTop
	}
	q.p.NbLoad64(victim, q.meta, wBottom, &q.nbBottom)
	q.p.NbLoad64(victim, q.meta, limitWord, &q.nbLimit)
	q.p.Flush()
	bottom, limit := q.nbBottom, q.nbLimit
	avail := limit - bottom
	if avail <= 0 {
		q.p.Unlock(victim, q.lock)
		q.unlocked(lockT, victim)
		s.StealsEmpty++
		return nil, stealEmpty
	}
	k := int64(chunk)
	if k > avail {
		k = avail
	}
	b := stealPool.Get().(*stealBatch)
	n := int(k) * q.slotSize
	if cap(b.buf) < n {
		//scioto:alloc-ok grows the pooled batch buffer; happens only until the pool is warm, amortized to zero per steal
		b.buf = make([]byte, n)
	}
	buf := b.buf[:n]
	// Bulk transfer: the ring layout means at most two contiguous extents.
	// The extent Gets, the dirty mark, and the store publishing the new
	// steal index leave as one pipelined batch. Overlapping the store with
	// the Gets is safe because operations to one target apply in issue
	// order (pgas.Proc): the owner cannot observe the advanced bottom —
	// and push fresh work onto the stolen slots — before the Gets have
	// read them. All must still complete before Unlock releases the
	// region.
	first := int64(q.capacity) - q.slotIndex(bottom)
	if first > k {
		first = k
	}
	q.p.NbGet(buf[:int(first)*q.slotSize], victim, q.data, q.slotOff(bottom))
	if first < k {
		q.p.NbGet(buf[int(first)*q.slotSize:], victim, q.data, q.slotOff(bottom+first))
	}
	if markDirty {
		q.p.NbFetchAdd64(victim, q.meta, wDirty, 1, &q.nbOld)
		s.DirtyMarksSent++
	}
	q.p.NbStore64(victim, q.meta, wBottom, bottom+k)
	q.p.Flush()
	q.p.Unlock(victim, q.lock)
	q.unlocked(lockT, victim)
	for i := 0; i < int(k); i++ {
		b.slots = append(b.slots, buf[i*q.slotSize:(i+1)*q.slotSize])
	}
	s.StealsOK++
	s.TasksStolen += k
	return b, stealOK
}

// dirtyCounter reads this process's dirty counter with an ordered load.
func (q *taskQueue) dirtyCounter() int64 {
	return q.p.Load64(q.p.Rank(), q.meta, wDirty)
}
