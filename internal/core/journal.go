package core

import (
	"scioto/internal/pgas"
)

// Work-replay journal. Every task inserted into a collection is recorded,
// at insertion time, in the *adding* rank's journal: a shadow table of live
// descriptor images in symmetric memory, paired with per-slot state words.
// The descriptor header carries the (home rank, slot) reference, so the
// record travels with the task through steals and remote adds. When the
// task's execution — anywhere — has made every other durable effect, the
// executor marks the slot done with a single one-sided store that also
// names the executor, making the completion count durable even if the
// executor later dies. A deferred task (deps.go) is a journal record too,
// from its registration on: its state word counts down its dependencies.
//
// Because both segments live on the symmetric heap, a surviving rank can
// read a dead rank's journal post-mortem, with ordinary one-sided reads
// once SurviveFault acknowledged the death, and compute the lost task
// set: slots still live whose descriptors are not present in any live
// rank's queue. See recover.go for the healing protocol and DESIGN.md
// "Recovery" for the invariants.
//
// Slot state machine (one word per slot, in the state segment):
//
//	0        free
//	1 + c    deferred: registered by AddDeferred, c > 0 dependencies to go;
//	         each Satisfy takes one away, and the last leaves it live
//	1        live: descriptor in the data segment is an un-executed task
//	-1 - e   done: executed by rank e (durable completion count)
//
// A done slot is reclaimed lazily by the owner's allocation scan, which
// folds the executor into a per-executor tally word before freeing the
// slot, so completion counts survive slot reuse. The state segment layout
// is [0, slots): slot states, [slots, slots+nprocs): per-executor tallies,
// then the phase word and the execution word; the data segment holds one
// image more than there are slots, the execution image.
//
// The phase word holds the ordinal of the phase (call of Process) this
// rank is inside, from its entry until it leaves the exit barrier, and 0
// outside: a death is healed only inside a phase. The execution word and
// image record the task this rank is executing (0: none; 1 + n: one whose
// first n durable effects have landed), so an execution a fault cut short
// is resumed where it stopped (recover.go).
const (
	jFree int64 = 0
	jLive int64 = 1
)

// jDone is the state of a slot executed by rank e.
func jDone(e int) int64 { return -1 - int64(e) }

// journal is one rank's shadow table of live task descriptors.
type journal struct {
	p        pgas.Proc
	slots    int
	slotSize int

	data  pgas.Seg // (slots+1) * slotSize descriptor images
	state pgas.Seg // slots state words, nprocs tally words, phase, execution

	cursor int   // next allocation probe position
	depth  int64 // owner-side live-record estimate (journal-depth gauge)
}

// errJournalFull is pre-boxed so the allocation-free journal paths can
// panic without a heap allocation at the call site.
var errJournalFull any = "core: work-replay journal full; raise Config.MaxTasks"

// tallyIdx is the state-segment word index of the tally for executor e.
func (j *journal) tallyIdx(e int) int { return j.slots + e }

// phaseIdx and execIdx are the state-segment indices of the phase and
// execution words.
func (j *journal) phaseIdx() int { return j.slots + j.p.NProcs() }
func (j *journal) execIdx() int  { return j.slots + j.p.NProcs() + 1 }

// alloc claims a free slot, reclaiming done slots (folding their executor
// into the tally words) as the scan passes them. Panics when every slot
// holds a live or deferred task — the journal is sized so that only a
// workload whose outstanding (added-but-unexecuted) task count exceeds the
// configured bound can reach this.
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
		if v < jFree {
			// Reclaim: fold the durable completion into the executor's
			// tally, then reuse the slot.
			j.credit(int(-1 - v)) // v is jDone(executor)
			j.depth--
			return s
		}
		if v == jFree {
			return s
		}
	}
	panic(errJournalFull)
}

// credit counts a durable completion by executor e in its tally word.
// Tally words are owner-written only (peers read them solely post-mortem).
func (j *journal) credit(e int) {
	j.p.RelaxedStore64(j.state, j.tallyIdx(e), j.p.RelaxedLoad64(j.state, j.tallyIdx(e))+1)
}

// journalize records t, live or deferred (st: jLive, or a deferred task's
// count above it), in a free slot of this rank's journal, which it returns,
// and stamps the (home, slot) reference into t's header first, so the
// record travels with the task.
func (j *journal) journalize(t *Task, st int64) int {
	slot := j.alloc()
	pgas.PutI32(t.buf[hdrJHome:], int32(j.p.Rank()))
	pgas.PutI32(t.buf[hdrJSlot:], int32(slot))
	wire := t.wire()
	off := slot * j.slotSize
	copy(j.p.Local(j.data)[off:off+len(wire)], wire)
	// Relaxed: the descriptor bytes above are only read post-mortem
	// (quiescent), by this rank, or by the Satisfy that makes a deferred
	// record live — and that one read the count this store published.
	j.p.RelaxedStore64(j.state, slot, st)
	j.depth++
	return slot
}

// markDone durably records that executor ran the task journaled at
// (home, slot): a single one-sided store, so an injected crash either
// leaves the task live (it will be resumed or replayed) or completes the
// count.
func (j *journal) markDone(home, slot, executor int) {
	if home == j.p.Rank() {
		// Relaxed: only the unique completer writes a live slot's state;
		// the owner's scan tolerates staleness.
		j.p.RelaxedStore64(j.state, slot, jDone(executor))
		return
	}
	j.p.Store64(home, j.state, slot, jDone(executor))
}

// setWord stores one of this rank's own phase and execution words. Relaxed:
// peers read them only post-mortem.
func (j *journal) setWord(idx int, v int64) { j.p.RelaxedStore64(j.state, idx, v) }

// begin records the start of an execution of the task whose image is wire,
// skip of whose effects a first run landed.
func (j *journal) begin(wire []byte, skip int64) {
	copy(j.slotBytes(j.slots), wire)
	j.setWord(j.execIdx(), 1+skip)
}

// states reads rank's journal state words: this rank's by relaxed loads,
// another's — a dead rank's, quiescent — by one NbLoad64 per word and a
// single Flush.
func (j *journal) states(rank int) []int64 {
	st := make([]int64, j.execIdx()+1)
	for i := range st {
		if rank == j.p.Rank() {
			st[i] = j.p.RelaxedLoad64(j.state, i)
		} else {
			j.p.NbLoad64(rank, j.state, i, &st[i])
		}
	}
	j.p.Flush()
	return st
}

// doneBy counts, in a journal whose state words are st, durable
// completions credited to executor e: done slots naming e plus its tally.
func (j *journal) doneBy(e int, st []int64) int64 {
	n := st[j.tallyIdx(e)]
	for _, v := range st[:j.slots] {
		if v == jDone(e) {
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
