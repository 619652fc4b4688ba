package core

import (
	"fmt"
	"slices"

	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// Work-replay recovery: the healing protocol survivors run when a peer
// dies inside a task-parallel phase. The protocol reconstructs the exact
// set of lost tasks from the replay journals (journal.go) and re-inserts
// them, then re-roots the termination tree around the dead member.
//
// The seam. TC's one recovery field is rec, nil when recovery is off, and
// the task-parallel loop calls it at fixed points only, each a no-op on a
// nil rec or behind Add's one test:
//
//   - on add: addRecorded (Add's journal record) and effect, the one
//     durable-effect wrapper of an Add and a Satisfy;
//   - at an execution's start and end: begin, and end's done-mark;
//   - at a phase attempt's entry and exit: enter (a carried fault, the
//     rejoin barrier, the phase word), finishInterrupted, exit;
//   - for a full queue: spill, and unspill in popLocal;
//   - on a fault: canRecover, then recoverFromFault;
//   - for membership: live and peers.
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
//     additionally salvages the dead rank's journal with ordinary
//     one-sided ops (SurviveFault left it addressable and quiescent): its
//     state words in one flushed batch of NbLoad64s, then the images it
//     needs. It re-homes the live-and-unclaimed descriptors into its own
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
//     (enter's rejoin), then its collective reset.
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

// recovery is one rank's work-replay state: its journal, the live
// membership, and the execution the phase loop is running.
type recovery struct {
	jn  journal
	res pgas.Resilient
	me  int

	alive    []bool
	nAlive   int
	epoch    int64
	depRemap map[Dep]Dep // deferred handles re-homed off dead ranks

	// executing is set inside an execution, which never nests in another
	// (spill); effects counts the durable effects — children journaled,
	// dependency edges applied — it has made, of which a resumed execution
	// skips the first skip. spilled holds the tasks a full queue left out,
	// which the phase loop runs next; owed the Satisfy calls made outside
	// any execution whose edge has not landed; resumes the executions to
	// finish when the phase re-opens; pending a fault met outside Process
	// that Process is to heal. phases counts the calls of Process; rejoin
	// is set from a recovery until the phase re-opens.
	executing     bool
	effects, skip int64
	spilled       []*Task
	owed          []Dep
	resumes       []resumed
	pending       *pgas.FaultError
	phases        int64
	rejoin        bool
}

// resumed is an execution a fault cut short: its task's image, and how
// many of its durable effects landed.
type resumed struct {
	img  []byte
	skip int64
}

// newRecovery collectively allocates the journal — slots descriptor images
// of slotSize bytes plus the execution image, and its state words — with
// every rank alive. It returns nil (recovery off) on a transport that
// cannot survive a death; every rank decides alike.
func newRecovery(p pgas.Proc, slots, slotSize int) *recovery {
	res, ok := pgas.Find[pgas.Resilient](p)
	if !ok {
		return nil
	}
	n := p.NProcs()
	rec := &recovery{res: res, me: p.Rank(), alive: make([]bool, n), nAlive: n, jn: journal{
		p: p, slots: slots, slotSize: slotSize,
		data:  p.AllocData((slots + 1) * slotSize),
		state: p.AllocWords(slots + n + 2),
	}}
	for i := range rec.alive {
		rec.alive[i] = true
	}
	return rec
}

// live reports whether rank is alive: every rank is with recovery off.
func (rec *recovery) live(rank int) bool { return rec == nil || rec.alive[rank] }

// peers is the number of live ranks other than this one, of n ranks.
func (rec *recovery) peers(n int) int {
	if rec == nil {
		return n - 1
	}
	return rec.nAlive - 1
}

// spill keeps t, a task a full queue turned away, to run as the phase
// loop's next task (unspill), and reports whether it did; with recovery
// off the caller runs it inline. No execution nests in another, so the one
// execution record says how far a cut-short one got; a spilled task is a
// live journal record in no queue, which recovery replays.
func (rec *recovery) spill(t *Task) bool {
	if rec == nil {
		return false
	}
	rec.spilled = append(rec.spilled, t)
	return true
}

// unspill takes the last spilled task, if any.
//
//scioto:noalloc
func (rec *recovery) unspill() (*Task, bool) {
	if rec == nil || len(rec.spilled) == 0 {
		return nil, false
	}
	t := rec.spilled[len(rec.spilled)-1]
	rec.spilled = rec.spilled[:len(rec.spilled)-1]
	return t, true
}

// begin records the start of t's execution, with the effects a resumed
// one's first run landed, so that a fault cutting it short resumes it.
// The record holds t's image, journal reference included: the callback
// may reuse the descriptor for the tasks it adds.
//
//scioto:noalloc
func (rec *recovery) begin(t *Task) {
	if rec != nil {
		rec.jn.begin(t.wire(), rec.skip)
		rec.executing, rec.effects = true, 0
	}
}

// end marks the running execution's task done: the execution's last
// durable effect, after the children its callback journaled and the
// dependency edges it applied — a single store naming this executor into
// the task's home journal, or, the home dead, a credit in this rank's own
// tally. See DESIGN.md "Recovery".
//
//scioto:noalloc
func (rec *recovery) end() {
	if rec != nil {
		rec.done()
	}
}

// done is end's body.
//
//scioto:noalloc
func (rec *recovery) done() {
	jn := &rec.jn
	img := jn.slotBytes(jn.slots)
	switch home := wireJHome(img); {
	case home >= 0 && rec.alive[home]:
		jn.markDone(home, wireJSlot(img), rec.me)
	case home >= 0:
		jn.credit(rec.me)
	}
	jn.setWord(jn.execIdx(), 0)
	rec.executing, rec.skip = false, 0
}

// enter opens an attempt at a phase (processOnce). A recovery's re-entry
// passes recovery's last barrier, past which no survivor is inside
// recovery, where a death is fatal, so a death from there on is healed
// however far each survivor got. Any other attempt opens the next call of
// Process, and returns a fault met outside Process, which the caller heals
// before anything else (a recovery sets no fault pending). The phase word
// then names the phase.
func (rec *recovery) enter() *pgas.FaultError {
	if rec == nil {
		return nil
	}
	switch fe := rec.pending; {
	case rec.rejoin:
		rec.rejoin = false
		rec.jn.p.Barrier()
	case fe != nil:
		rec.phases, rec.pending = rec.phases+1, nil
		return fe
	default:
		rec.phases++
	}
	rec.jn.setWord(rec.jn.phaseIdx(), rec.phases)
	return nil
}

// exit clears the phase word past the exit barrier: a death from there on
// is outside the phase, and no survivor is inside Process to heal it.
func (rec *recovery) exit() {
	if rec != nil {
		rec.jn.setWord(rec.jn.phaseIdx(), 0)
	}
}

// canRecover reports whether this rank can heal around fe: recovery is
// on, the fault names a live peer (not this rank, which would be its own
// death unwinding), and the dead rank is not the root. A fault inside
// recovery is not offered: recoverFromFault runs outside processOnce's
// capture, so a second fault while healing stays fatal.
func (rec *recovery) canRecover(fe *pgas.FaultError) bool {
	return rec != nil && fe.Rank > 0 && fe.Rank < len(rec.alive) &&
		fe.Rank != rec.me && rec.alive[fe.Rank]
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

// heals returns, for v recovered from a panic, the peer death it carries,
// acknowledged (SurviveFault), with the live membership and the phase that
// death is healed in: the dead rank's phase word, read from its quiescent
// memory, or 0 if recovery does not heal it.
func (rec *recovery) heals(v any) (fe *pgas.FaultError, alive []bool, phase int64) {
	fe, ok := v.(*pgas.FaultError)
	if !ok || !rec.canRecover(fe) {
		return nil, nil, 0
	}
	if alive, ok = rec.res.SurviveFault(fe); !ok {
		return fe, alive, 0
	}
	return fe, alive, rec.jn.p.Load64(fe.Rank, rec.jn.state, rec.jn.phaseIdx())
}

// deferFault, deferred by an Add or Satisfy outside Process, carries a
// death in the phase this rank has yet to enter into that Process, which
// heals it: every other survivor is inside it, or carries it there too.
// Until then the rank communicates no more through the collection: an Add
// only journals its task, a Satisfy is owed, and a collective is skipped.
// Any other fault unwinds.
func (rec *recovery) deferFault() {
	if r := recover(); r != nil {
		fe, _, ph := rec.heals(r)
		if ph <= rec.phases {
			panic(r)
		}
		rec.pending = fe
	}
}

// collective runs f, a collective of the collection outside Process,
// unless a fault is pending. A death in the phase to come is carried as in
// deferFault; one in the phase this rank has left (the dead rank was in
// its exit barrier) is healed here, and f runs again: every other
// survivor is inside Process, or heals it where it met it too.
func (tc *TC) collective(f func()) {
	rec := tc.rec
	if rec == nil {
		f()
		return
	}
	for again := true; again && rec.pending == nil; {
		again = false
		func() {
			defer func() {
				r := recover()
				switch fe, _, ph := rec.heals(r); {
				case r == nil:
				case ph > rec.phases:
					rec.pending = fe
				case ph > 0 && ph == rec.phases:
					tc.recoverFromFault(fe)
					tc.Process()
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
func (rec *recovery) replayed() bool {
	if !rec.executing || rec.effects >= rec.skip {
		return false
	}
	rec.effects++
	return true
}

// landed counts a durable effect of the running execution in its record.
//
//scioto:noalloc
func (rec *recovery) landed() {
	if rec.executing {
		rec.effects++
		rec.jn.setWord(rec.jn.execIdx(), 1+rec.effects)
	}
}

// effect makes one durable effect of an Add or a Satisfy, with recovery
// armed, exactly once. A resumed execution skips the effects its first run
// landed. Otherwise note makes the effect's local part — an Add's journal
// record, a Satisfy's entry on the owed list — and send its communication,
// unless a fault is pending: until Process heals it the rank communicates
// no more through the collection. Outside Process a death send meets in
// the phase to come is carried there (deferFault).
//
//scioto:noalloc
func (tc *TC) effect(note, send func()) {
	rec := tc.rec
	if rec.replayed() {
		return
	}
	note()
	if rec.pending != nil {
		return
	}
	if !tc.processing {
		defer rec.deferFault()
	}
	send()
}

// addRecorded is Add with recovery armed: the task is journaled, which is
// the durable effect a resumed execution skips, before it is handed over.
// While a fault is pending the record is live and in no queue: recovery
// queues it.
//
//scioto:noalloc
func (tc *TC) addRecorded(proc int, t *Task) (err error) {
	tc.effect(func() {
		tc.rec.jn.journalize(t, jLive)
		tc.rec.landed()
	}, func() { err = tc.addJournaled(proc, t) })
	return err
}

// owe puts d on the owed list while its edge is not applied, when no
// execution makes it (one that does is resumed instead).
func (rec *recovery) owe(d Dep) {
	if !rec.executing {
		rec.owed = append(rec.owed, d)
	}
}

// applied counts a dependency edge that landed: in the running execution's
// record, or off the owed list.
func (rec *recovery) applied() {
	switch {
	case rec == nil:
	case rec.executing:
		rec.landed()
	default:
		rec.owed = rec.owed[:len(rec.owed)-1]
	}
}

// finishInterrupted runs, as a phase re-opens after a recovery, what the
// fault cut short: the executions to resume, then the owed Satisfy calls.
func (tc *TC) finishInterrupted() {
	rec := tc.rec
	for rec != nil && len(rec.resumes) > 0 {
		r := rec.resumes[0]
		rec.resumes = rec.resumes[1:]
		rec.skip = r.skip
		tc.execute(decodeTask(r.img))
	}
	for rec != nil && len(rec.owed) > 0 {
		d := rec.owed[0]
		rec.owed = rec.owed[1:]
		tc.Satisfy(d)
	}
}

// recoverFromFault heals the collection around the rank fe attributes and
// returns with the phase ready to re-enter. Called by every survivor from
// Process after processOnce captured a recoverable fault.
func (tc *TC) recoverFromFault(fault *pgas.FaultError) {
	rec, jn := tc.rec, &tc.rec.jn
	// A death inside recovery is fatal on every survivor alike: they read
	// this word. The phase word is set again once every survivor is out
	// (enter's rejoin barrier).
	jn.setWord(jn.phaseIdx(), 0)
	fe, alive, ph := rec.heals(fault)
	if ph == 0 || ph != rec.phases {
		panic(fault)
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
	healer := slices.Index(rec.alive, true)
	tc.obs.recoverEdge(trace.RecoverBegin, dead, rec.epoch)

	// The execution the fault cut short here (one a recovery left us to
	// resume is listed already). The spill is dropped: its tasks are live
	// records in no queue.
	if v := p.RelaxedLoad64(jn.state, jn.execIdx()); v > 0 && rec.executing {
		rec.resumes = append(rec.resumes, resumed{append([]byte(nil), jn.slotBytes(jn.slots)...), v - 1})
	}
	rec.executing, rec.spilled = false, nil

	// A fault delivered mid-critical-section unwound with a queue lock
	// held (ModeLocked), and the dead rank may have died holding ours;
	// release both before anyone scans. What an unwound
	// steal or add left pending completes here too, so that it lands
	// before its target tidies up below.
	tc.q.releaseHeldLock(rec.alive, dead)
	p.Flush()
	// The bypass slot's and the spawn buffer's tasks are records of ours in
	// no queue: replayed below.
	tc.held, tc.spawned = false, 0

	// Rendezvous: from here on every live rank is inside recovery and no
	// queue or journal mutates outside the protocol. SurviveFault moved
	// this rank's fault epoch, so the barrier runs over the survivors.
	p.Barrier()

	// Our journal is read relaxed: the rendezvous ordered every store. The
	// healer reads the dead rank's in one batch, and takes the execution
	// the death cut short.
	own := jn.states(me)
	var dj []int64
	if me == healer {
		dj = jn.states(dead)
		if v := dj[jn.execIdx()]; v > 0 {
			img := make([]byte, jn.slotSize)
			p.Get(img, dead, jn.data, jn.slots*jn.slotSize)
			rec.resumes = append(rec.resumes, resumed{img, v - 1})
		}
	}

	// --- Claims: every survivor tells every other the tasks it holds —
	// its queue, and those of the executions it resumes — as (home, slot)
	// pairs, after its durable credits to the dead executor. ------------
	held := []int64{jn.doneBy(dead, own)}
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
			jn.journalize(&Task{buf: ref[:wireLen(ref)]}, jLive)
			hold(ref)
		}
	}
	for _, r := range rec.resumes {
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
	replayed := int64(len(rec.resumes))
	for s, v := range own[:jn.slots] {
		if v != jLive || claimed[[2]int64{int64(me), int64(s)}] {
			continue
		}
		tc.requeue(jn.slotBytes(s))
		replayed++
	}

	// --- Healer: salvage the dead rank's journal. -----------------------
	if me == healer {
		replayed += tc.salvageDeadJournal(dead, dj, claimed)
		// The dead rank's completions in the journals no survivor reports:
		// its own, and those of ranks that died before it.
		for r, a := range rec.alive {
			if r == dead {
				salvagedExecs += jn.doneBy(dead, dj)
			} else if !a {
				salvagedExecs += jn.doneBy(dead, jn.states(r))
			}
		}
		tc.stats.SalvagedExecs += salvagedExecs
	} else if tc.cfg.MaxDeferred > 0 {
		// Receive the deferred-handle remap the healer broadcasts.
		buf, _ := p.Recv(healer, tagRecoverRemap)
		rec.installDepRemap(buf)
	}

	tc.stats.TasksRecovered += replayed
	tc.stats.Recoveries++
	tc.obs.recoverReplay(replayed, tc.stats.SalvagedExecs)

	// --- Heal the termination tree and re-enter. -----------------------
	tc.td.rebuild(rec.alive)
	rec.rejoin = true
	tc.obs.recoverEdge(trace.RecoverEnd, dead, rec.epoch)
}

// salvageDeadJournal reads the dead rank's journal, whose state words are
// st, one-sidedly on this (healer) rank: live-and-unclaimed descriptors
// are re-homed into this rank's journal and queue, deferred ones are
// re-registered here with their remaining counts (the handle remap goes
// to every survivor when the collection has the dependency API). Returns
// the number of descriptors replayed.
func (tc *TC) salvageDeadJournal(dead int, st []int64, claimed map[[2]int64]bool) int64 {
	rec, jn := tc.rec, &tc.rec.jn
	p := tc.rt.p
	buf := make([]byte, jn.slotSize)
	replayed := int64(0)
	var remap []byte
	for s, v := range st[:jn.slots] {
		switch {
		case v == jLive && !claimed[[2]int64{int64(dead), int64(s)}]:
			p.Get(buf, dead, jn.data, s*jn.slotSize)
			t := decodeTask(buf)
			jn.journalize(t, jLive)
			tc.requeue(t.wire())
			replayed++
		case v > jLive:
			p.Get(buf, dead, jn.data, s*jn.slotSize)
			js := jn.journalize(decodeTask(buf), v)
			remap = append(remap, make([]byte, 2*DepBytes)...)
			EncodeDep(remap[len(remap)-2*DepBytes:], Dep{Proc: int32(dead), Slot: int32(s)})
			EncodeDep(remap[len(remap)-DepBytes:], Dep{Proc: int32(p.Rank()), Slot: int32(js)})
		}
	}
	rec.installDepRemap(remap)
	for r := 0; r < p.NProcs() && tc.cfg.MaxDeferred > 0; r++ {
		if r != p.Rank() && rec.alive[r] {
			p.Send(r, tagRecoverRemap, remap)
		}
	}
	return replayed
}

// installDepRemap decodes the healer's remap broadcast.
func (rec *recovery) installDepRemap(buf []byte) {
	if rec.depRemap == nil {
		rec.depRemap = make(map[Dep]Dep)
	}
	for o := 0; o+2*DepBytes <= len(buf); o += 2 * DepBytes {
		rec.depRemap[DecodeDep(buf[o:])] = DecodeDep(buf[o+DepBytes:])
	}
}
