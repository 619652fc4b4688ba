package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"scioto/internal/pgas"
)

// QueueMode selects the queue synchronization discipline.
type QueueMode int

const (
	// ModeSplit is the paper's split queue: a lock-free private portion
	// for the owner and a shared portion for thieves and remote adders,
	// separated by a split pointer that moves work between the portions
	// without copying. Where the paper locks the shared portion, this one
	// is described by one packed word that thieves claim from with a CAS
	// (see the word layout below): split mode takes no lock.
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
	wBottom = 0 // ModeLocked: steal end; advanced by thieves, decremented by adders (under lock)
	wShared = 1 // ModeSplit: the packed shared-portion word, below
	wTop    = 2 // owner end; owner-only (ModeSplit: a high-water mark, never below top)
	wDirty  = 3 // dirty counter for termination detection, incremented by thieves
	nQWords = 4
)

// The packed word describes a split queue's shared portion, low bits first:
//
//	n  tasks in the shared portion, slots [b, b+n)
//	b  steal-end position modulo twice the ring, so top-b tells full from empty
//	x  size of the one claim a thief is still copying out of [b-x, b)
//	a  remote adders that have announced themselves; the one that found
//	   a == 0 and x == 0 writes slot b-1, the others withdraw
//
// Every field is relative to the ring, so the zero word is the empty queue
// and no field grows with the queue's age. Thieves move b, n and x with a
// CAS and retire x with a fetch-add; adders move a, b and n with fetch-adds;
// the owner moves n alone (release: fetch-add, reacquire: CAS). The owner's
// split is b+n, which neither a thief (b+k, n-k) nor an adder (b-1, n+1)
// changes, so its top/split mirrors stay exact. DESIGN.md "Split queue" has
// the protocols and why they are safe.
const (
	cntBits = 17 // n and x
	posBits = cntBits + 1
	bShift  = cntBits
	xShift  = bShift + posBits
	aShift  = xShift + cntBits

	oneN int64 = 1
	oneB int64 = 1 << bShift
	oneX int64 = 1 << xShift
	oneA int64 = 1 << aShift

	// maxSplitTasks is the largest capacity the count fields hold (the ring
	// has one slot more); maxAdders bounds a.
	maxSplitTasks = 1<<cntBits - 2
	maxAdders     = 1<<(63-aShift) - 1
)

func wordN(w int64) int64 { return w & (oneB - 1) }
func wordB(w int64) int64 { return w >> bShift & (1<<posBits - 1) }
func wordX(w int64) int64 { return w >> xShift & (1<<cntBits - 1) }
func wordA(w int64) int64 { return w >> aShift }

// wordBusy reports a claim being copied or an adder at work: thieves and
// adders keep out until both are done.
func wordBusy(w int64) bool { return w>>xShift != 0 }

// localCost models the owner-side bookkeeping cost of a local queue
// operation that touches n payload bytes. Calibrated so a 1 kB-body local
// insert costs ~0.5 µs, matching Table 1.
func localCost(n int) time.Duration {
	return 200*time.Nanosecond + time.Duration(n)*3/10
}

// taskQueue is one process's patch of a task collection: a circular array
// of fixed-size task descriptor slots in symmetric memory, with metadata
// words and (ModeLocked) a lock, following the layout of Section 5 of the
// paper.
//
// The owner's indices are monotone-ish 64-bit values mapped onto the ring
// by modular arithmetic; the steal end may go below its initial value when
// tasks are prepended by remote adds. The live region is [bottom, top). In
// ModeSplit [split, top) is private, the shared portion below it is the
// packed word's, and bottom is split-n.
type taskQueue struct {
	p        pgas.Proc
	me       int // p.Rank()
	mode     QueueMode
	slotSize int
	capacity int // slots in the ring
	limit    int // tasks the queue accepts: capacity, less the spare slot in ModeSplit
	// virtual: the kernel's clock is virtual (dsim), the only kind on which
	// the owner's localCost Charges do anything.
	virtual bool

	data pgas.Seg // capacity * slotSize bytes per process
	meta pgas.Seg // nQWords words per process
	lock pgas.LockID
	ring []byte // this rank's instance of data, resolved once

	// top and split mirror what no rank but the owner moves — the owner
	// end, and the position b+n of the packed word — so the owner's paths
	// do not load them back through pgas.Proc; pub mirrors wTop, which in
	// ModeSplit is a high-water mark of top (pushPrivate, publishTop). A
	// mirror changes only after the op that publishes it has returned: an
	// ordered op can unwind with a FaultError, and a mirror moved first
	// leaves owner and thieves disagreeing about the split. topOff is
	// slotOff(top), moved with top by the split-mode push and pop so that
	// neither divides.
	top, split, pub int64
	topOff          int

	// desc is the descriptor the owner's pops decode into, reused from task
	// to task: valid until the next pop.
	desc Task

	// heldLock is the rank whose queue-lock instance this rank currently
	// holds (-1 when none; ModeLocked only). A fault delivered
	// mid-critical-section unwinds with the lock still held; recovery
	// consults this to release it.
	heldLock int

	// nbOld receives the discarded previous value of a pipelined fetch-add
	// (the dirty mark, a claim's retirement, an add's publication), and
	// nbSwapped a marked claim's CAS outcome. They live on the queue rather
	// than the stack so the completion write (performed by a transport
	// goroutine on tcp) has a stable, non-escaping destination.
	nbOld, nbSwapped int64
	// nbBottom and nbLimit are the destinations of the pipelined loads in
	// stealLocked and addRemote (which reads the top word into nbLimit and,
	// in ModeSplit, the packed word into nbBottom), probed those of a
	// two-victim probe. On the queue for the same reason as nbOld: an
	// out-pointer to a stack local escapes through the interface call and
	// costs a heap allocation per steal.
	nbBottom, nbLimit int64
	probed            [2]int64

	obs *Observer // nil = observability disabled
}

// newTaskQueue collectively allocates a task queue. All processes must call
// it with identical parameters.
func newTaskQueue(p pgas.Proc, mode QueueMode, slotSize, capacity int) *taskQueue {
	limit := capacity
	if mode == ModeSplit {
		if capacity > maxSplitTasks || p.NProcs() > maxAdders {
			panic(fmt.Sprintf("core: a split queue holds at most %d tasks on at most %d processes, asked for %d on %d",
				maxSplitTasks, maxAdders, capacity, p.NProcs()))
		}
		// The spare slot takes the one push the owner may have in flight
		// while a remote adder reads its top (addShared).
		capacity++
	}
	q := &taskQueue{
		p:        p,
		me:       p.Rank(),
		mode:     mode,
		slotSize: slotSize,
		capacity: capacity,
		limit:    limit,
		data:     p.AllocData(slotSize * capacity),
		meta:     p.AllocWords(nQWords),
		lock:     p.AllocLock(),
		heldLock: -1,
		desc:     Task{buf: make([]byte, slotSize)},
	}
	//lint:ignore localescape Local returns one slice per segment for the life of the world (pgas.Proc.Local); which slots the owner may touch when is the split-queue protocol's to decide, not the slice's lifetime
	q.ring = p.Local(q.data)
	q.virtual = p.Clock().Virtual()
	return q
}

// emod is the Euclidean modulus: queue indices may go negative.
func emod(i, m int64) int64 {
	if i %= m; i < 0 {
		i += m
	}
	return i
}

// slotOff maps a queue index to a byte offset in the data segment: the
// ring positions of steals, remote adds and recovery's scan, and of the
// locked ablation's push and pop. The split-mode owner keeps its own
// (taskQueue.topOff).
func (q *taskQueue) slotOff(i int64) int {
	return int(emod(i, int64(q.capacity))) * q.slotSize
}

// reset clears the queue. Caller is responsible for collective ordering
// (typically barriers on both sides).
func (q *taskQueue) reset() {
	for w := 0; w < nQWords; w++ {
		q.p.Store64(q.me, q.meta, w, 0)
	}
	q.top, q.split, q.pub, q.topOff = 0, 0, 0, 0
}

// charge models the owner's bookkeeping for a local operation on n payload
// bytes. Only a virtual clock has anything to charge it to: on a
// wall-clock kernel Charge is empty, and the owner does not call it.
func (q *taskQueue) charge(n int) {
	if q.virtual {
		q.p.Charge(localCost(n))
	}
}

// decode copies the descriptor in slot into the queue's reusable
// descriptor, after the same header checks as decodeTask.
func (q *taskQueue) decode(slot []byte) *Task {
	q.desc.buf = q.desc.buf[:wireLen(slot)] // its capacity is a slot
	copy(q.desc.buf, slot)
	return &q.desc
}

// --- Owner-side size probes ------------------------------------------------

// sharedHint reads the packed word without ordering it against the remote
// operations in flight: what the owner decides from it is either safe
// against a claim or an add it has not seen yet (pushPrivate, with the
// spare slot) or revalidated by the ordered op that acts on it.
func (q *taskQueue) sharedHint() int64 {
	//lint:ignore relaxedword the owner's view of its packed word: callers tolerate a claim or add landing after the load and publish through ordered RMWs only
	return q.p.RelaxedLoad64(q.meta, wShared)
}

// totalCountHint may be stale.
func (q *taskQueue) totalCountHint() int64 {
	if q.mode == ModeSplit {
		return q.top - q.split + wordN(q.sharedHint())
	}
	//lint:ignore relaxedword stale-read of wBottom only under-reports queue size; callers treat the count as advisory
	return q.top - q.p.RelaxedLoad64(q.meta, wBottom)
}

// --- Split-mode owner paths ------------------------------------------------

// occupied is how many ring slots the owner must treat as taken, given
// packed word w: its private tasks, the shared ones, the x slots below b a
// thief is still copying out of, and one for every announced adder (the
// one at work is filling slot b-1).
func (q *taskQueue) occupied(w int64) int64 {
	return q.top - q.split + wordN(w) + wordX(w) + wordA(w)
}

// pushPrivate inserts a task descriptor at the owner end of the private
// portion without locking. It reports false when the queue is full (after
// an ordered refresh of the packed word). Only a push above the published
// mark stores wTop; below it, the slot is one every adder already counts.
//
//scioto:noalloc
func (q *taskQueue) pushPrivate(wire []byte, s *Stats) bool {
	top := q.top
	if q.occupied(q.sharedHint()) >= int64(q.limit) {
		// Full at last sight; an ordered load in case thieves have made
		// room since.
		if q.occupied(q.p.Load64(q.me, q.meta, wShared)) >= int64(q.limit) {
			return false
		}
	}
	off := q.topOff
	copy(q.ring[off:off+len(wire)], wire)
	if top >= q.pub {
		q.p.RelaxedStore64(q.meta, wTop, top+1)
		q.pub = top + 1
	}
	if q.top, q.topOff = top+1, off+q.slotSize; q.topOff == len(q.ring) {
		q.topOff = 0
	}
	q.charge(len(wire))
	s.LocalInserts++
	return true
}

// popPrivate removes the task at the owner end of the private portion
// without locking and returns it in the queue's descriptor (valid until
// the next pop). ok is false when the private portion is empty. It
// publishes nothing: wTop stays a mark above the new top.
//
//scioto:noalloc
func (q *taskQueue) popPrivate(s *Stats) (*Task, bool) {
	top := q.top
	if top <= q.split {
		return nil, false
	}
	off := q.topOff
	if off == 0 {
		off = len(q.ring)
	}
	off -= q.slotSize
	t := q.decode(q.ring[off : off+q.slotSize])
	q.top, q.topOff = top-1, off
	q.charge(len(t.wire()))
	s.LocalGets++
	return t, true
}

// publishTop lowers the wTop mark to the exact top, so remote
// adders stop counting the slots the owner has popped since it last rose.
// Release and reacquire call it, each beside an ordered op it issues
// anyway. A phase ends on a pop that found the queue empty, whose
// reacquire has left the mark exact: between phases adders see the top.
func (q *taskQueue) publishTop() {
	if q.pub != q.top {
		q.p.RelaxedStore64(q.meta, wTop, q.top)
		q.pub = q.top
	}
}

// maybeRelease moves surplus private tasks into the shared portion when the
// shared portion looks empty, making work available for stealing: one
// fetch-add on the owner's own packed word — no lock and no copying.
// ordered forces a fresh read of the word.
func (q *taskQueue) maybeRelease(ordered bool, s *Stats) {
	top, split := q.top, q.split
	if top-split < 2 {
		return // nothing to spare
	}
	var w int64
	if ordered {
		w = q.p.Load64(q.me, q.meta, wShared)
	} else {
		w = q.sharedHint() // a stale word only delays a release
	}
	if wordN(w) > 0 {
		return // shared portion still has work
	}
	k := (top - split) / 2
	q.publishTop()
	q.p.FetchAdd64(q.me, q.meta, wShared, k*oneN)
	q.split = split + k
	q.obs.release(k)
	s.Releases++
	s.TasksReleased += k
}

// reacquire moves shared-portion tasks back into the private portion when
// the private portion has drained: a CAS on the owner's own packed word
// that lowers n, retried when a thief or an adder moved the word first.
// It reports whether any tasks were reclaimed. The private portion is
// empty here, so it first republishes top: a rank that has run dry has no
// mark left standing over slots adders could fill.
func (q *taskQueue) reacquire(s *Stats) bool {
	q.publishTop()
	for {
		w := q.p.Load64(q.me, q.meta, wShared)
		n := wordN(w)
		if n == 0 {
			return false
		}
		k := (n + 1) / 2
		if !q.p.CAS64(q.me, q.meta, wShared, w, w-k*oneN) {
			continue
		}
		q.split -= k
		q.obs.reacquire(k)
		s.Reacquires++
		s.TasksReacquired += k
		return true
	}
}

// --- Remote operations -------------------------------------------------------

// addRemote inserts a task descriptor into the shared (steal) end of the
// queue on process proc, using one-sided operations — under the queue lock
// in ModeLocked (addLocked), behind the packed word's adder count in
// ModeSplit (addShared). It reports false if the target queue is full. proc
// may equal the caller's rank, which is how local low-affinity adds reach
// the shared portion.
//
//scioto:noalloc
func (q *taskQueue) addRemote(proc int, wire []byte, s *Stats) bool {
	if q.mode == ModeSplit {
		return q.addShared(proc, wire, s)
	}
	return q.addLocked(proc, wire, s)
}

func (q *taskQueue) countAdd(proc int, s *Stats) {
	if proc == q.me {
		s.LocalSharedInserts++
	} else {
		s.RemoteInserts++
	}
}

// addShared is addRemote on a split queue: two rounds and no lock. The
// adder announces itself with a fetch-add on the packed word and reads the
// owner's top behind it in the same round (operations to one target apply
// in issue order). If the word it added to was quiet — no claim being
// copied, no other adder — slot b-1 is its to fill: thieves and adders
// keep out while a != 0, and the owner counts a slot per adder as taken.
// Otherwise it withdraws, waits for the word to go quiet and starts over.
// The second round puts the descriptor and publishes it (b-1, n+1, a-1)
// with one fetch-add behind the Put.
//
// The top it read is the owner's mark, never below its top, and exact but
// for one push: the owner loads the word, then writes the slot, then
// raises the mark, so a push that loaded before the announcement and
// raised after the read is seen by neither side. The ring's spare slot
// takes it; the next push sees a != 0. A push below the mark fills a slot
// the adder already counts, so a full answer may come while up to
// mark - top slots are free. The owner adding to its own shared end
// checks its exact top instead.
//
//scioto:noalloc
func (q *taskQueue) addShared(proc int, wire []byte, s *Stats) bool {
	ring := int64(q.capacity)
	for {
		q.p.NbFetchAdd64(proc, q.meta, wShared, oneA, &q.nbBottom)
		q.p.NbLoad64(proc, q.meta, wTop, &q.nbLimit)
		q.p.Flush()
		if !wordBusy(q.nbBottom) {
			break
		}
		q.p.FetchAdd64(proc, q.meta, wShared, -oneA)
		for wordBusy(q.p.Load64(proc, q.meta, wShared)) {
			runtime.Gosched()
		}
	}
	b, top := wordB(q.nbBottom), q.nbLimit
	if proc == q.me {
		top = q.top
	}
	if emod(top-b, 2*ring) >= int64(q.limit) {
		q.p.FetchAdd64(proc, q.meta, wShared, -oneA)
		return false
	}
	nb := emod(b-1, 2*ring)
	q.p.NbPut(proc, q.data, int(nb%ring)*q.slotSize, wire)
	q.p.NbFetchAdd64(proc, q.meta, wShared, (nb-b)*oneB+oneN-oneA, &q.nbOld)
	q.p.Flush()
	q.countAdd(proc, s)
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

// take returns a pooled batch whose buffer holds k slots.
//
//scioto:noalloc
func (q *taskQueue) take(k int64) (*stealBatch, []byte) {
	b := stealPool.Get().(*stealBatch)
	n := int(k) * q.slotSize
	if cap(b.buf) < n {
		//scioto:alloc-ok grows the pooled batch buffer; happens only until the pool is warm, amortized to zero per steal
		b.buf = make([]byte, n)
	}
	return b, b.buf[:n]
}

// extent is how many bytes of the k slots from position bottom lie before
// the ring wraps: a bulk transfer is at most two contiguous extents, the
// second from offset 0.
func (q *taskQueue) extent(bottom, k int64) int {
	return min(int(k)*q.slotSize, len(q.ring)-q.slotOff(bottom))
}

// stolen hands the k slots copied into b's buffer to the caller.
func (q *taskQueue) stolen(b *stealBatch, k int64, s *Stats) (*stealBatch, stealResult) {
	for i := 0; i < int(k); i++ {
		b.slots = append(b.slots, b.buf[i*q.slotSize:(i+1)*q.slotSize])
	}
	s.StealsOK++
	s.TasksStolen += k
	return b, stealOK
}

// steal attempts to take tasks from the shared end of the queue on process
// victim: on a split queue a probe of that one victim, then a claim. Stolen
// descriptors are returned as a pooled batch of raw slot bytes (slotSize
// each) that the caller recycles after decoding. markDirty, when true,
// increments the victim's dirty counter (termination detection) before
// the victim can see the tasks gone.
//
//scioto:noalloc
func (q *taskQueue) steal(victim, chunk int, markDirty bool, s *Stats) (*stealBatch, stealResult) {
	if q.mode != ModeSplit {
		s.StealAttempts++
		return q.stealLocked(victim, chunk, markDirty, s)
	}
	_, w, res := q.probe([]int{victim}, s)
	if res != stealOK {
		return nil, res
	}
	return q.claim(victim, w, chunk, markDirty, s)
}

// probe is one steal attempt's look at a split queue's victims vs (one or
// two): it reads their packed words — one victim with a blocking load, two
// with pipelined loads and one Flush, one round trip either way — and
// picks the victim to claim from, the one with the most shared tasks on a
// quiet word. The attempt is stealEmpty when every victim's shared portion
// was empty, stealBusy when the tasks it saw sit behind a claim being
// copied or an adder at work (the caller tries another round).
//
//scioto:noalloc
func (q *taskQueue) probe(vs []int, s *Stats) (victim int, w int64, res stealResult) {
	s.StealAttempts++
	if len(vs) == 1 {
		q.probed[0] = q.p.Load64(vs[0], q.meta, wShared)
	} else {
		for i, v := range vs {
			q.p.NbLoad64(v, q.meta, wShared, &q.probed[i])
		}
		q.p.Flush()
	}
	victim, res = vs[0], stealEmpty
	for i, v := range vs {
		switch pw := q.probed[i]; {
		case wordN(pw) == 0:
		case wordBusy(pw):
			if res == stealEmpty {
				victim, res = v, stealBusy
			}
		case res != stealOK || wordN(pw) > wordN(w):
			victim, w, res = v, pw, stealOK
		}
	}
	switch res {
	case stealEmpty:
		s.StealsEmpty++
	case stealBusy:
		s.StealsBusy++
	}
	return victim, w, res
}

// claim takes tasks from the split queue on victim, whose packed word the
// probe read as w: chunk of them, or half the shared portion when that is
// more — a deep shared portion is a rank with far more work than its
// thieves (UTS starts with a thousand children of the root on rank 0), and
// handing it out chunk by chunk costs a round of steals per chunk.
//
// The thief takes no lock. One CAS claims k tasks — b+k, n-k, x = k — and
// a lost CAS is stealBusy. A marked claim sends the dirty mark's fetch-add
// and the CAS as one flushed batch: operations to one target apply in
// issue order, so the mark lands before the victim can see the tasks gone,
// and costs no round trip of its own; an unmarked claim is one blocking
// CAS. The claimed slots are the thief's alone: the owner and the adders
// count [b-x, b) as taken until the fetch-add that retires x, which
// travels behind the extent Gets in one flushed batch (it lands after the
// Gets have read). Claim, then copy, never copy, then validate: a thief
// only reads slots it owns.
//
//scioto:noalloc
func (q *taskQueue) claim(victim int, w int64, chunk int, markDirty bool, s *Stats) (*stealBatch, stealResult) {
	n, bottom := wordN(w), wordB(w)
	k := min(n, max(int64(chunk), n/2))
	moved := emod(bottom+k, 2*int64(q.capacity)) - bottom
	claimed := w + moved*oneB + k*(oneX-oneN)
	if markDirty {
		q.p.NbFetchAdd64(victim, q.meta, wDirty, 1, &q.nbOld)
		q.p.NbCAS64(victim, q.meta, wShared, w, claimed, &q.nbSwapped)
		q.p.Flush()
		s.DirtyMarksSent++
	}
	if markDirty && q.nbSwapped == 0 || !markDirty && !q.p.CAS64(victim, q.meta, wShared, w, claimed) {
		s.StealsBusy++
		return nil, stealBusy
	}
	b, buf := q.take(k)
	cut := q.extent(bottom, k)
	q.p.NbGet(buf[:cut], victim, q.data, q.slotOff(bottom))
	if cut < len(buf) {
		q.p.NbGet(buf[cut:], victim, q.data, 0)
	}
	q.p.NbFetchAdd64(victim, q.meta, wShared, -k*oneX, &q.nbOld)
	q.p.Flush()
	return q.stolen(b, k, s)
}

// liveRange returns the bounds [bottom, top) of this rank's own queue for
// recovery's claims scan; no rank is mid-operation on it. On a split queue
// it first drops what a dead or unwound rank left in the packed word: a
// claim never retired (its tasks are in nobody's queue, like any batch
// lost in a thief's hands, and replay from the journal) and adders that
// never withdrew (an unpublished slot b-1 is not in the queue either).
func (q *taskQueue) liveRange() (bottom, top int64) {
	if q.mode != ModeSplit {
		return q.p.Load64(q.me, q.meta, wBottom), q.p.Load64(q.me, q.meta, wTop)
	}
	w := q.p.Load64(q.me, q.meta, wShared) & (oneX - 1)
	q.p.Store64(q.me, q.meta, wShared, w)
	return q.split - wordN(w), q.top
}

// dirtyCounter reads this process's dirty counter with an ordered load.
func (q *taskQueue) dirtyCounter() int64 {
	return q.p.Load64(q.me, q.meta, wDirty)
}
