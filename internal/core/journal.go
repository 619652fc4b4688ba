package core

import (
	"scioto/internal/pgas"
)

// Work-replay journal. Every task inserted into a collection is recorded,
// at insertion time, in the *adding* rank's journal: a shadow table of live
// descriptor images in symmetric memory, paired with per-slot state words.
// The descriptor header carries the (home rank, slot) reference, so the
// record travels with the task through steals and remote adds. When the
// task executes — anywhere — the executor marks the slot done with a single
// one-sided store that also names the executor, making the completion count
// durable even if the executor later dies.
//
// Because both segments live on the symmetric heap, a surviving rank can
// read a dead rank's journal post-mortem (pgas.Resilient.Salvage) and
// compute the lost task set: slots still live whose descriptors are not
// present in any live rank's queue. See recover.go for the healing
// protocol and DESIGN.md "Recovery" for the invariants.
//
// Slot state machine (one word per slot, in the state segment):
//
//	-1           pending: a deferred-task launch in flight; invisible to
//	             replay until the launcher publishes the claim (deps.go)
//	0            free
//	1            live: descriptor in the data segment is an un-executed task
//	2 + executor done: executed by rank `executor` (durable completion count)
//
// A done slot is reclaimed lazily by the owner's allocation scan, which
// folds the executor into a per-executor tally word before freeing the
// slot, so completion counts survive slot reuse. The state segment layout
// is [0, slots): slot states, [slots, slots+nprocs): per-executor tallies.
const (
	jPending  int64 = -1
	jFree     int64 = 0
	jLive     int64 = 1
	jDoneBase int64 = 2
)

// journal is one rank's shadow table of live task descriptors.
type journal struct {
	p        pgas.Proc
	slots    int
	slotSize int

	data  pgas.Seg // slots * slotSize descriptor images
	state pgas.Seg // slots state words + nprocs tally words

	cursor int   // next allocation probe position
	depth  int64 // owner-side live-record estimate (journal-depth gauge)
}

// newJournal collectively allocates the journal segments. All ranks must
// call it with identical parameters.
func newJournal(p pgas.Proc, slots, slotSize int) *journal {
	return &journal{
		p:        p,
		slots:    slots,
		slotSize: slotSize,
		data:     p.AllocData(slots * slotSize),
		state:    p.AllocWords(slots + p.NProcs()),
	}
}

// errJournalFull is pre-boxed so the allocation-free journal paths can
// panic without a heap allocation at the call site.
var errJournalFull any = "core: work-replay journal full; raise Config.MaxTasks"

// tallyIdx is the state-segment word index of the tally for executor e.
func (j *journal) tallyIdx(e int) int { return j.slots + e }

// alloc claims a free slot, reclaiming done slots (folding their executor
// into the tally words) as the scan passes them. Panics when every slot
// holds a live task — the journal is sized so that only a workload whose
// outstanding (added-but-unexecuted) task count exceeds the configured
// bound can reach this.
//
//scioto:noalloc
func (j *journal) alloc() int {
	for i := 0; i < j.slots; i++ {
		s := j.cursor
		j.cursor++
		if j.cursor == j.slots {
			j.cursor = 0
		}
		// Relaxed: a stale read can only show a reclaimable done slot as
		// still live, which skips it; reclamation retries on a later pass.
		v := j.p.RelaxedLoad64(j.state, s)
		if v >= jDoneBase {
			// Reclaim: fold the durable completion into the executor's
			// tally, then reuse the slot. Tally words are owner-written
			// only (peers read them solely post-mortem via Salvage).
			e := j.tallyIdx(int(v - jDoneBase))
			j.p.RelaxedStore64(j.state, e, j.p.RelaxedLoad64(j.state, e)+1)
			j.depth--
			return s
		}
		if v == jFree {
			return s
		}
	}
	panic(errJournalFull)
}

// record journals a task descriptor image at insertion time with the given
// initial state (jLive for normal adds, jPending for deferred launches
// whose claim has not yet been published). The caller must already have
// stamped the journal reference (home = this rank, slot) into wire — see
// TC.journalize, which allocates first and stamps before calling.
//
//scioto:noalloc
func (j *journal) record(slot int, wire []byte, st int64) {
	off := slot * j.slotSize
	copy(j.p.Local(j.data)[off:off+len(wire)], wire)
	// Relaxed: the descriptor bytes above are only read post-mortem
	// (quiescent) or by this rank.
	j.p.RelaxedStore64(j.state, slot, st)
	j.depth++
}

// setLive flips a pending slot to live: the deferred launch it shadows has
// published its claim, so from here the entry is replayable like any other.
//
//scioto:noalloc
func (j *journal) setLive(slot int) {
	// Relaxed: only the launching rank writes its own pending slots.
	j.p.RelaxedStore64(j.state, slot, jLive)
}

// markDone durably records that executor ran the task journaled at
// (home, slot): a single one-sided store, so an injected crash either
// leaves the task live (it will be replayed) or completes the count.
//
//scioto:noalloc
func (j *journal) markDone(home, slot, executor int) {
	if home == j.p.Rank() {
		// Relaxed: only the unique completer writes a live slot's state;
		// the owner's scan tolerates staleness.
		j.p.RelaxedStore64(j.state, slot, jDoneBase+int64(executor))
		return
	}
	j.p.Store64(home, j.state, slot, jDoneBase+int64(executor))
}

// liveSlot reads slot s's state with an ordered load (recovery-time use,
// after the fault synchronization point).
func (j *journal) slotState(s int) int64 {
	return j.p.Load64(j.p.Rank(), j.state, s)
}

// free clears a slot without crediting anyone (recovery-time use, for
// re-homed descriptors).
func (j *journal) free(s int) {
	j.p.Store64(j.p.Rank(), j.state, s, jFree)
}

// freePending clears every abandoned pending slot — launches this rank
// claimed but never made replayable before a fault unwound it. Recovery-
// time use only, after the post-sweep barrier: by then every pool owner
// has read these states and relaunched whatever they shadowed.
func (j *journal) freePending() {
	me := j.p.Rank()
	for s := 0; s < j.slots; s++ {
		if j.p.Load64(me, j.state, s) == jPending {
			j.p.Store64(me, j.state, s, jFree)
			j.depth--
		}
	}
}

// doneByLocal counts, in this rank's journal, durable completions credited
// to executor e: done slots naming e plus the reclaimed tally.
func (j *journal) doneByLocal(e int) int64 {
	me := j.p.Rank()
	n := j.p.Load64(me, j.state, j.tallyIdx(e))
	for s := 0; s < j.slots; s++ {
		if j.p.Load64(me, j.state, s) == jDoneBase+int64(e) {
			n++
		}
	}
	return n
}

// slotBytes returns this rank's journal image of slot s.
func (j *journal) slotBytes(s int) []byte {
	off := s * j.slotSize
	return j.p.Local(j.data)[off : off+j.slotSize]
}

// wireJHome reads the journal home rank from raw descriptor slot bytes.
func wireJHome(slot []byte) int { return int(pgas.GetI32(slot[hdrJHome:])) }

// wireJSlot reads the journal slot from raw descriptor slot bytes.
func wireJSlot(slot []byte) int { return int(pgas.GetI32(slot[hdrJSlot:])) }
