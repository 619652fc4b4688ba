package core

import (
	"fmt"

	"scioto/internal/pgas"
)

// Work-replay recovery: the healing protocol survivors run when a peer
// dies inside a task-parallel phase. The protocol reconstructs the exact
// set of lost tasks from the replay journals (journal.go) and re-inserts
// them, then re-roots the termination tree around the dead member.
//
// Ground truth: every task is journaled, at insertion, in its *home*
// (adding) rank's journal, and its completion is a single durable store
// into that journal. A task is therefore lost iff its journal record is
// still live AND its descriptor is not sitting in any live rank's queue —
// it was in the dead rank's queue, in the dead rank's hands mid-steal, or
// popped-but-not-yet-executed when the fault unwound a survivor.
//
// Protocol, after every survivor has observed the fault and entered
// recovery (a Barrier, which SurviveFault has moved onto the live
// membership):
//
//  1. Claims. Every survivor scans its own queue and sends every other
//     the (home, slot) references it holds, after its durable-completion
//     count credited to the dead executor, so the healer (the lowest live
//     rank) can account for work the dead rank finished before dying. A
//     queued task homed on the dead rank is recorded again here: no later
//     recovery reads the dead journal.
//  2. Replay. Every live home re-inserts its own live-but-unclaimed
//     slots into its queue (they keep their journal record). The healer
//     additionally salvages the dead rank's journal one-sidedly,
//     re-homes its live-and-unclaimed descriptors into the healer's own
//     journal, and credits the dead rank's durable completions in every
//     dead journal to Stats.SalvagedExecs — the exactness invariant is
//
//     uncrashed executions == Σ_live TasksExecuted + SalvagedExecs.
//
//  3. Interrupted executions. A task's done-mark is its execution's last
//     durable effect, so a task whose execution a fault cut short — on a
//     survivor, or (read by the healer from its salvaged record) on the
//     dead rank — is still live. Its executor's record says how many of
//     its effects landed; the record's task is claimed like a queued one,
//     and the execution is resumed when the phase re-opens, skipping the
//     effects that landed. Spilled tasks (runInline) are dropped: they
//     are live records no queue holds, replayed in step 2. A deferred
//     task is a journal record from its registration on, so it is
//     replayed like any other once live; the
//     healer re-registers the dead rank's still-deferred records as its
//     own and broadcasts a (dead,slot) -> (healer,slot) remap so
//     outstanding Dep handles keep resolving. Satisfy calls made outside
//     any execution and cut short are owed and applied then too.
//  4. The termination tree is rebuilt over the live membership
//     (td.rebuild) and the phase re-enters: recovery's last barrier
//     (processOnce's rejoin), then its collective reset.
//
// Policy: a death is healed only inside the dead rank's phase, from its
// entry to Process until it leaves the exit barrier (its phase word). A
// survivor that meets it in a collection operation outside Process
// carries it into Process if it has yet to enter that phase (deferFault),
// and heals it in a collective if it has left it (collective). Every
// other death, one inside recovery included, is fatal on every survivor
// alike. The death of rank 0 (the tree root and,
// in serve mode, the gateway) is unrecoverable; counter-mode termination
// (TermCounter) does not support recovery (NewTC only arms it under
// TermWave).

// Recovery message tags (distinct from application tags; Recv filters by
// tag, so in-flight application messages are left in the mailbox).
const (
	tagRecoverClaims int32 = -0x7ec0
	tagRecoverRemap  int32 = -0x7ec1
)

// recovery is the per-rank membership state.
type recovery struct {
	res pgas.Resilient

	alive  []bool
	nAlive int
	epoch  int64

	inRecovery bool

	depRemap map[Dep]Dep // deferred handles re-homed off dead ranks
}

// resumed is an execution a fault cut short: its task's image, and how
// many of its durable effects landed.
type resumed struct {
	img  []byte
	skip int64
}

// newRecovery starts with every rank alive.
func newRecovery(nprocs int, res pgas.Resilient) *recovery {
	rec := &recovery{res: res, alive: make([]bool, nprocs), nAlive: nprocs}
	for i := range rec.alive {
		rec.alive[i] = true
	}
	return rec
}

// canRecover reports whether this rank can heal around fe: the fault names
// a live peer (not this rank, which would be its own death unwinding), the
// dead rank is not the root, and we are not already inside recovery (a
// second fault while healing stays fatal).
func (rec *recovery) canRecover(fe *pgas.FaultError, me int) bool {
	return !rec.inRecovery &&
		fe.Rank > 0 && fe.Rank < len(rec.alive) &&
		fe.Rank != me && rec.alive[fe.Rank]
}

// healer returns the lowest live rank.
func (rec *recovery) healer() int {
	for r, a := range rec.alive {
		if a {
			return r
		}
	}
	panic("core: no live ranks")
}

// remapDep resolves a Dep handle through the post-recovery remap table.
func (rec *recovery) remapDep(d Dep) Dep {
	if rec.alive[d.Proc] {
		return d
	}
	nd, ok := rec.depRemap[d]
	if !ok {
		panic(fmt.Sprintf("core: Satisfy of dep %+v registered on dead rank %d with no salvaged remap", d, d.Proc))
	}
	return nd
}

// heals acknowledges fe's death (SurviveFault) and returns the phase the
// dead rank died in — its phase word, read from its salvaged memory — or
// 0 if recovery does not heal it.
func (tc *TC) heals(fe *pgas.FaultError) (alive []bool, phase int64) {
	alive, ok := tc.rec.res.SurviveFault(fe)
	v, _ := tc.rec.res.SalvageLoad64(fe.Rank, tc.jn.state, tc.jn.phaseIdx())
	if !ok {
		v = 0
	}
	return alive, v
}

// faultPhase returns, for r recovered from a collection operation
// outside Process, the peer death it carries and the phase that death is
// healed in (its dead rank's phase word), or 0 if it unwinds.
func (tc *TC) faultPhase(r any) (*pgas.FaultError, int64) {
	if fe, ok := r.(*pgas.FaultError); ok && tc.rec.canRecover(fe, tc.rt.Rank()) {
		_, ph := tc.heals(fe)
		return fe, ph
	}
	return nil, 0
}

// deferFault, deferred by an Add or Satisfy outside Process, carries a
// death in the phase this rank has yet to enter into that Process, which
// heals it: every other survivor is inside it, or carries it there too.
// Until then the rank communicates no more through the collection: an Add
// only journals its task, a Satisfy is owed, and a collective is skipped.
// Any other fault unwinds.
func (tc *TC) deferFault() {
	if r := recover(); r != nil {
		fe, ph := tc.faultPhase(r)
		if ph <= tc.phases {
			panic(r)
		}
		tc.pending = fe
	}
}

// collective runs f, a collective of the collection outside Process,
// unless a fault is pending. A death in the phase to come is carried as in
// deferFault; one in the phase this rank has left (the dead rank was in
// its exit barrier) is healed here, and f runs again: every other
// survivor is inside Process, or heals it where it met it too.
func (tc *TC) collective(f func()) {
	if tc.rec == nil {
		f()
		return
	}
	for again := true; again && tc.pending == nil; {
		again = false
		func() {
			defer func() {
				r := recover()
				switch fe, ph := tc.faultPhase(r); {
				case r == nil:
				case ph > tc.phases:
					tc.pending = fe
				case ph > 0 && ph == tc.phases:
					tc.recoverFromFault(fe)
					tc.process()
					again = true
				default:
					panic(r)
				}
			}()
			f()
		}()
	}
}

// replayed reports whether the next durable effect of the running
// execution landed in the first run of a resumed one, and counts it.
//
//scioto:noalloc
func (tc *TC) replayed() bool {
	if !tc.executing || tc.effects >= tc.skip {
		return false
	}
	tc.effects++
	return true
}

// landed counts a durable effect of the running execution in its record.
//
//scioto:noalloc
func (tc *TC) landed() {
	if tc.executing {
		tc.effects++
		tc.jn.setWord(tc.jn.execIdx(), 1+tc.effects)
	}
}

// finishInterrupted runs, as a phase re-opens after a recovery, what the
// fault cut short: the executions to resume, then the owed Satisfy calls.
func (tc *TC) finishInterrupted() {
	for len(tc.resumes) > 0 {
		r := tc.resumes[0]
		tc.resumes = tc.resumes[1:]
		tc.skip = r.skip
		tc.execute(decodeTask(r.img))
	}
	for len(tc.owed) > 0 {
		d := tc.owed[0]
		tc.owed = tc.owed[1:]
		tc.Satisfy(d)
	}
}

// recoverFromFault heals the collection around the rank fe attributes and
// returns with the phase ready to re-enter. Called by every survivor from
// Process after processOnce captured a recoverable fault.
func (tc *TC) recoverFromFault(fe *pgas.FaultError) {
	rec := tc.rec
	rec.inRecovery = true
	defer func() { rec.inRecovery = false }()
	// A death inside recovery is fatal on every survivor alike: they read
	// this word. The phase word is set again once every survivor is out
	// (processOnce's rejoin barrier).
	tc.jn.setWord(tc.jn.phaseIdx(), 0)

	alive, ph := tc.heals(fe)
	if ph == 0 || ph != tc.phases {
		panic(fe)
	}
	dead := fe.Rank
	copy(rec.alive, alive)
	rec.nAlive = 0
	for _, a := range rec.alive {
		if a {
			rec.nAlive++
		}
	}
	rec.epoch++
	p := tc.rt.p
	me := p.Rank()
	healer := rec.healer()
	tc.obs.recoverBegin(dead, rec.epoch)

	// Interrupted executions: the one the fault cut short here (one a
	// recovery left us to resume is listed already), and the healer takes
	// the dead rank's. The spill is dropped: its tasks are live records in
	// no queue.
	for _, r := range []int{me, dead} {
		if v, _ := rec.res.SalvageLoad64(r, tc.jn.state, tc.jn.execIdx()); v > 0 && (r == me && tc.executing || r != me && me == healer) {
			img := make([]byte, tc.jn.slotSize)
			rec.res.Salvage(img, r, tc.jn.data, tc.jn.slots*tc.jn.slotSize)
			tc.resumes = append(tc.resumes, resumed{img, v - 1})
		}
	}
	tc.executing, tc.spill = false, nil

	// A fault delivered mid-critical-section unwound with a queue lock
	// held (ModeLocked), and the dead rank may have died holding ours;
	// release both before anyone scans. What an unwound
	// steal or add left pending completes here too, so that it lands
	// before its target tidies up below.
	tc.q.releaseHeldLock(rec.alive, dead)
	p.Flush()
	tc.held = false // the bypass slot's task is a record of ours in no queue: replayed below

	// Rendezvous: from here on every live rank is inside recovery and no
	// queue or journal mutates outside the protocol. SurviveFault moved
	// this rank's fault epoch, so the barrier runs over the survivors.
	p.Barrier()

	// --- Claims: every survivor tells every other the tasks it holds —
	// its queue, and those of the executions it resumes — as (home, slot)
	// pairs, after its durable credits to the dead executor. ------------
	// Our journal is read relaxed: the rendezvous ordered every store.
	local := func(i int) int64 { return p.RelaxedLoad64(tc.jn.state, i) }
	held := []int64{tc.jn.doneBy(dead, local)}
	hold := func(ref []byte) {
		if home := wireJHome(ref); home >= 0 { // else unjournaled (pre-recovery descriptor)
			held = append(held, int64(home), int64(wireJSlot(ref)))
		}
	}
	bottom, top := tc.q.liveRange()
	for i := bottom; i < top; i++ {
		ref := tc.q.ring[tc.q.slotOff(i):]
		hold(ref)
		if wireJHome(ref) == dead {
			// Its record is in a journal no later recovery reads: the
			// task is recorded here instead, in place, and held.
			tc.journalize(&Task{buf: ref[:wireLen(ref)]})
			hold(ref)
		}
	}
	for _, r := range tc.resumes {
		hold(r.img)
	}
	msg := make([]byte, 8*len(held))
	for i, w := range held {
		pgas.PutI64(msg[8*i:], w)
	}
	for r := 0; r < p.NProcs(); r++ {
		if r != me && rec.alive[r] {
			p.Send(r, tagRecoverClaims, msg)
		}
	}
	claimed := make(map[[2]int64]bool) // (home, slot) of every task a survivor holds
	var salvagedExecs int64
	for r := 0; r < p.NProcs(); r++ {
		buf := msg
		if !rec.alive[r] {
			continue
		} else if r != me {
			buf, _ = p.Recv(r, tagRecoverClaims)
		}
		salvagedExecs += pgas.GetI64(buf)
		for o := 8; o < len(buf); o += 16 {
			claimed[[2]int64{pgas.GetI64(buf[o:]), pgas.GetI64(buf[o+8:])}] = true
		}
	}

	// --- Replay our own live-but-unclaimed records. --------------------
	replayed := int64(len(tc.resumes))
	for s := 0; s < tc.jn.slots; s++ {
		if local(s) != jLive || claimed[[2]int64{int64(me), int64(s)}] {
			continue
		}
		tc.requeue(tc.jn.slotBytes(s))
		replayed++
	}

	// --- Healer: salvage the dead rank's journal. -----------------------
	if me == healer {
		replayed += tc.salvageDeadJournal(dead, claimed)
		// The dead rank's completions in the journals no survivor reports:
		// its own, and those of ranks that died before it.
		for r, a := range rec.alive {
			if !a {
				salvagedExecs += tc.jn.doneBy(dead, func(i int) int64 { v, _ := rec.res.SalvageLoad64(r, tc.jn.state, i); return v })
			}
		}
		tc.stats.SalvagedExecs += salvagedExecs
	} else if tc.cfg.MaxDeferred > 0 {
		// Receive the deferred-handle remap the healer broadcasts.
		buf, _ := p.Recv(healer, tagRecoverRemap)
		tc.installDepRemap(buf)
	}

	tc.stats.TasksRecovered += replayed
	tc.stats.Recoveries++
	tc.obs.recoverReplay(replayed, tc.stats.SalvagedExecs)

	// --- Heal the termination tree and re-enter. -----------------------
	tc.td.rebuild(rec.alive)
	tc.rejoin = true
	tc.obs.recoverEnd(dead, rec.epoch)
}

// salvageDeadJournal reads the dead rank's journal one-sidedly on this
// (healer) rank: live-and-unclaimed descriptors are re-homed into this
// rank's journal and queue, deferred ones are re-registered here with
// their remaining counts (the handle remap goes to every survivor when
// the collection has the dependency API). Returns the number of
// descriptors replayed.
func (tc *TC) salvageDeadJournal(dead int, claimed map[[2]int64]bool) int64 {
	rec := tc.rec
	jn := tc.jn
	p := tc.rt.p
	buf := make([]byte, jn.slotSize)
	salvage := func(s int) {
		if !rec.res.Salvage(buf, dead, jn.data, s*jn.slotSize) {
			panic(fmt.Sprintf("core: cannot salvage journal data of dead rank %d", dead))
		}
	}
	replayed := int64(0)
	var remap []byte
	for s := 0; s < jn.slots; s++ {
		st, ok := rec.res.SalvageLoad64(dead, jn.state, s)
		if !ok {
			panic(fmt.Sprintf("core: cannot salvage journal of dead rank %d", dead))
		}
		switch {
		case st == jLive && !claimed[[2]int64{int64(dead), int64(s)}]:
			salvage(s)
			tc.rehome(buf)
			replayed++
		case st > jLive:
			salvage(s)
			t := decodeTask(buf)
			js := jn.alloc()
			t.setJournalRef(p.Rank(), js)
			jn.record(js, t.wire(), st)
			remap = append(remap, make([]byte, 2*DepBytes)...)
			EncodeDep(remap[len(remap)-2*DepBytes:], Dep{Proc: int32(dead), Slot: int32(s)})
			EncodeDep(remap[len(remap)-DepBytes:], Dep{Proc: int32(p.Rank()), Slot: int32(js)})
		}
	}
	tc.installDepRemap(remap)
	for r := 0; r < p.NProcs() && tc.cfg.MaxDeferred > 0; r++ {
		if r != p.Rank() && rec.alive[r] {
			p.Send(r, tagRecoverRemap, remap)
		}
	}
	return replayed
}

// rehome relaunches the descriptor image in buf from this rank: a task of
// its own, recorded in this rank's journal and queued here.
func (tc *TC) rehome(buf []byte) {
	t := decodeTask(buf)
	tc.journalize(t)
	tc.requeue(t.wire())
}

// installDepRemap decodes the healer's remap broadcast.
func (tc *TC) installDepRemap(buf []byte) {
	rec := tc.rec
	if rec.depRemap == nil {
		rec.depRemap = make(map[Dep]Dep)
	}
	for o := 0; o+2*DepBytes <= len(buf); o += 2 * DepBytes {
		rec.depRemap[DecodeDep(buf[o:])] = DecodeDep(buf[o+DepBytes:])
	}
}
