package core

import (
	"fmt"
	"runtime"
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
	// in ModeSplit, the packed word into nbBottom), probed those of the
	// packed words a probe, a claim's refresh or a landing's read-ahead
	// reads. On the queue for the same reason as nbOld: an out-pointer to
	// a stack local escapes through the interface call and costs a heap
	// allocation per steal.
	nbBottom, nbLimit int64
	probed            [2]int64
	// predicted: the word pick chose is the quiet word a claim in flight
	// will leave, not one it read.
	predicted bool

	// batch holds the slot images a locked steal took (stolen) until the
	// thief has pushed them onto its own ring; a split queue's claims land
	// in the ring itself.
	batch []byte

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

// fits reports whether k more tasks fit in the ring. Full at last sight,
// it looks again with an ordered load, in case thieves have made room
// since.
func (q *taskQueue) fits(k int64) bool {
	return q.occupied(q.sharedHint())+k <= int64(q.limit) ||
		q.occupied(q.p.Load64(q.me, q.meta, wShared))+k <= int64(q.limit)
}

// pushPrivate inserts a task descriptor at the owner end of the private
// portion without locking. It reports false when the queue is full (after
// an ordered refresh of the packed word). Only a push above the published
// mark stores wTop; below it, the slot is one every adder already counts.
func (q *taskQueue) pushPrivate(wire []byte, s *Stats) bool {
	top := q.top
	if !q.fits(1) {
		return false
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

// pushBatch puts the first c of the descriptors in batch, one per
// slotSize bytes, at the owner end of the private portion as one
// operation, and returns how many fit: the rest are the caller's. Like a
// landing it raises the mark over all c before it reads the packed word
// (room), copies the slots that fit, at most two extents as the ring
// wraps, moves top, and is one bookkeeping charge over the descriptors'
// bytes.
func (q *taskQueue) pushBatch(batch []byte, c int64, s *Stats) int64 {
	k := q.room(c)
	if k == 0 {
		return 0
	}
	src, dst := batch[:int(k)*q.slotSize], q.topOff
	for len(src) > 0 {
		m := copy(q.ring[dst:], src)
		if src, dst = src[m:], dst+m; dst == len(q.ring) {
			dst = 0
		}
	}
	if q.virtual { // the descriptors' bytes, which only a virtual clock charges
		n := 0
		for o := 0; o < int(k)*q.slotSize; o += q.slotSize {
			n += wireLen(batch[o:])
		}
		q.charge(n)
	}
	q.top, q.topOff = q.top+k, dst
	s.LocalInserts += k
	return k
}

// popPrivate removes the task at the owner end of the private portion
// without locking and returns it in the queue's descriptor (valid until
// the next pop). ok is false when the private portion is empty. It
// publishes nothing: wTop stays a mark above the new top.
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

// steal attempts to take tasks from the shared end of the queue on process
// victim and returns how many it took: on a split queue a probe of that
// one victim and a claim, whose tasks land at this rank's top (popPrivate
// pops them); on a locked queue the paper's sequence, whose tasks wait in
// the queue's batch (stolen) for the thief to push. markDirty, when true,
// increments the victim's dirty counter (termination detection) before
// the victim can see the tasks gone.
func (q *taskQueue) steal(victim, chunk int, markDirty bool, s *Stats) (k int64, res stealResult) {
	var w int64
	if q.mode != ModeSplit {
		k, res = q.stealLocked(victim, chunk, markDirty, s)
	} else if _, w, res = q.probe([]int{victim}); res == stealOK {
		if k = q.claim(victim, w, chunk, markDirty, nil, s); k > 0 {
			q.land(victim, w, k, nil)
		} else {
			res = stealBusy
		}
	}
	s.steal(res, k)
	return k, res
}

// probe is one steal attempt's look at a split queue's victims vs (one or
// two): it reads their packed words into probed — one victim with a
// blocking load, two with pipelined loads and one Flush, one round trip
// either way — and picks the victim to claim from (pick).
func (q *taskQueue) probe(vs []int) (victim int, w int64, res stealResult) {
	if len(vs) == 1 {
		q.probed[0] = q.p.Load64(vs[0], q.meta, wShared)
	} else {
		for i, v := range vs {
			q.p.NbLoad64(v, q.meta, wShared, &q.probed[i])
		}
		q.p.Flush()
	}
	return q.pick(vs)
}

// pick chooses among the words of vs in probed: the victim with the most
// shared tasks on a claimable word. A quiet word is claimable, and so is a
// word busy only because a claim is being copied out of it (x > 0, a = 0):
// pick takes it as the quiet word that claim's retirement will leave,
// w − x·oneX (predicted), which the claim's CAS wins once the retire has
// landed and nothing else has moved the word. The attempt is stealEmpty
// when every victim's shared portion was empty, stealBusy when the tasks
// it saw sit behind an adder at work.
func (q *taskQueue) pick(vs []int) (victim int, w int64, res stealResult) {
	victim, res = vs[0], stealEmpty
	for i, v := range vs {
		pw := q.probed[i]
		if wordA(pw) == 0 {
			pw -= wordX(pw) * oneX
		}
		switch {
		case wordN(pw) == 0:
		case wordBusy(pw):
			if res == stealEmpty {
				victim, res = v, stealBusy
			}
		case res != stealOK || wordN(pw) > wordN(w):
			victim, w, res = v, pw, stealOK
			q.predicted = pw != q.probed[i]
		}
	}
	return victim, w, res
}

// room readies this rank's ring for a landing of up to k tasks at top and
// returns how many fit. The mark goes up over all k before the packed word
// is read: an adder that announces itself after the read loads the raised
// mark behind its announcement and counts every landing slot, and one
// that announced before it is counted in a. Both accesses are relaxed,
// which every transport makes sequentially consistent with the adder's
// fetch-add and load (sync/atomic; dsim runs one rank at a time), as the
// spare slot's argument needs too (DESIGN.md "Split queue").
func (q *taskQueue) room(k int64) int64 {
	if end := q.top + k; end > q.pub {
		q.p.RelaxedStore64(q.meta, wTop, end)
		q.pub = end
	}
	return max(0, min(k, int64(q.limit)-q.occupied(q.sharedHint())))
}

// claim tries to claim tasks from the split queue on victim, whose packed
// word was read as w, and reports how many it claimed (0: the CAS lost, or
// this rank's ring had no room). It asks for chunk of them, or half the
// shared portion when that is more — a deep shared portion is a rank with
// far more work than its thieves (UTS starts with a thousand children of
// the root on rank 0), and handing it out chunk by chunk costs a round of
// steals per chunk — and for no more than land in this rank's ring (room).
//
// The thief takes no lock. One CAS claims k tasks — b+k, n-k, x = k. A
// marked claim sends the dirty mark's fetch-add and the CAS as one flushed
// batch: operations to one target apply in issue order, so the mark lands
// before the victim can see the tasks gone, and costs no round trip of its
// own. refresh, when not nil, are the victims whose words the same flush
// reloads into probed — the CAS's victim's behind the CAS, so a lost claim
// has probed afresh. Otherwise an unmarked claim is one blocking CAS.
func (q *taskQueue) claim(victim int, w int64, chunk int, markDirty bool, refresh []int, s *Stats) int64 {
	n, bottom := wordN(w), wordB(w)
	k := q.room(min(n, max(int64(chunk), n/2)))
	if k == 0 {
		return 0
	}
	moved := emod(bottom+k, 2*int64(q.capacity)) - bottom
	claimed := w + moved*oneB + k*(oneX-oneN)
	var won bool
	if !markDirty && refresh == nil {
		won = q.p.CAS64(victim, q.meta, wShared, w, claimed)
	} else {
		if markDirty {
			q.p.NbFetchAdd64(victim, q.meta, wDirty, 1, &q.nbOld)
			s.DirtyMarksSent++
		}
		q.p.NbCAS64(victim, q.meta, wShared, w, claimed, &q.nbSwapped)
		for i, v := range refresh {
			q.p.NbLoad64(v, q.meta, wShared, &q.probed[i])
		}
		q.p.Flush()
		won = q.nbSwapped != 0
	}
	if !won {
		return 0
	}
	if q.predicted {
		s.StealsPredicted++
	}
	return k
}

// land copies the k tasks a won claim took off victim's word w straight
// into this rank's ring at top, the slots room reserved: one Get per
// extent, at most three as the victim's ring and this one wrap at
// different slots. The claimed slots are the thief's alone — the owner and
// the adders count [b-x, b) as taken until the fetch-add that retires x,
// which travels behind the Gets in one flushed batch (it lands after the
// Gets have read). Claim, then copy, never copy, then validate: a thief
// only reads slots it owns. next, when not nil, are the victims of this
// rank's next idle round, whose words the same flush reads into probed.
// The landing is one bookkeeping charge, whatever k is.
func (q *taskQueue) land(victim int, w, k int64, next []int) {
	src, dst, n := q.slotOff(wordB(w)), q.topOff, int(k)*q.slotSize
	for n > 0 {
		m := min(n, len(q.ring)-src, len(q.ring)-dst)
		q.p.NbGet(q.ring[dst:dst+m], victim, q.data, src)
		src, dst, n = (src+m)%len(q.ring), (dst+m)%len(q.ring), n-m
	}
	q.p.NbFetchAdd64(victim, q.meta, wShared, -k*oneX, &q.nbOld)
	for i, v := range next {
		q.p.NbLoad64(v, q.meta, wShared, &q.probed[i])
	}
	q.p.Flush()
	q.top, q.topOff = q.top+k, dst
	q.charge(0)
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
