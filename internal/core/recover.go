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
//  1. Claims. Every survivor scans its own queue and reports, to each
//     live home, the journal slots it still holds; slots homed on the
//     dead rank are reported to the healer (the lowest live rank). The
//     report also carries the sender's durable-completion count credited
//     to the dead executor, so the healer can account for work the dead
//     rank finished before dying.
//  2. Replay. Every live home re-inserts its own live-but-unclaimed
//     slots into its queue (they keep their journal record). The healer
//     additionally salvages the dead rank's journal one-sidedly,
//     re-homes its live-and-unclaimed descriptors into the healer's own
//     journal, and credits the dead rank's durable completions to
//     Stats.SalvagedExecs — the exactness invariant is
//
//     uncrashed executions == Σ_live TasksExecuted + SalvagedExecs.
//
//  3. Deferred tasks registered on the dead rank are salvaged from its
//     pending pool: still-pending entries are re-registered on the healer
//     with their remaining dependency counts and a (dead,slot)->(healer,
//     slot) remap is broadcast so outstanding Dep handles keep resolving;
//     fully-satisfied entries whose launch died with the rank are launched
//     by the healer directly. Every survivor also sweeps its own pool for
//     satisfied-but-unlaunched entries (counter at 0, or a launch claim
//     whose journal record never went live — see deps.go) and relaunches
//     them, so a crash inside Satisfy's launch window loses nothing.
//  4. The termination tree is rebuilt over the live membership
//     (td.rebuild) and the phase re-enters from its collective reset.
//
// Policy: the death of rank 0 (the tree root and, in serve mode, the
// gateway) is unrecoverable; counter-mode termination (TermCounter) does
// not support recovery (NewTC only arms it under TermWave).

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

// claimReport is one survivor's scan of its own queue, bucketed for one
// receiving home rank.
//
// Wire layout (all words via pgas.PutU64):
//
//	[0]      number of claimed slots homed on the receiver
//	[1..n]   those slots
//	[n+1]    number of claimed slots homed on the DEAD rank
//	[...]    those slots (used by the healer, ignored by others)
//	[last]   sender's durable-completion count credited to the dead rank
func encodeClaims(forHome, forDead []int64, doneByDead int64) []byte {
	buf := make([]byte, 8*(len(forHome)+len(forDead)+3))
	o := 0
	put := func(v int64) { pgas.PutU64(buf[o:], uint64(v)); o += 8 }
	put(int64(len(forHome)))
	for _, s := range forHome {
		put(s)
	}
	put(int64(len(forDead)))
	for _, s := range forDead {
		put(s)
	}
	put(doneByDead)
	return buf
}

func decodeClaims(buf []byte) (forHome, forDead []int64, doneByDead int64) {
	o := 0
	get := func() int64 { v := int64(pgas.GetU64(buf[o:])); o += 8; return v }
	n := get()
	forHome = make([]int64, n)
	for i := range forHome {
		forHome[i] = get()
	}
	n = get()
	forDead = make([]int64, n)
	for i := range forDead {
		forDead[i] = get()
	}
	doneByDead = get()
	return forHome, forDead, doneByDead
}

// recoverFromFault heals the collection around the rank fe attributes and
// returns with the phase ready to re-enter. Called by every survivor from
// Process after processOnce captured a recoverable fault.
func (tc *TC) recoverFromFault(fe *pgas.FaultError) {
	rec := tc.rec
	rec.inRecovery = true
	defer func() { rec.inRecovery = false }()

	alive, ok := rec.res.SurviveFault(fe)
	if !ok {
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

	// A fault delivered mid-critical-section unwound with a queue lock
	// held (ModeLocked), and the dead rank may have died holding ours;
	// release both before anyone scans. What an unwound
	// steal or add left pending completes here too, so that it lands
	// before its target tidies up below.
	tc.q.releaseHeldLock(rec.alive, dead)
	p.Flush()
	if tc.held { // the bypass slot goes back on the ring the claims scan reads
		tc.held = false
		tc.requeue(tc.hold.buf)
	}

	// Rendezvous: from here on every live rank is inside recovery and no
	// queue or journal mutates outside the protocol. SurviveFault moved
	// this rank's fault epoch, so the barrier runs over the survivors.
	p.Barrier()

	// --- Claims: scan our own queue and report what we hold. ----------
	bottom, top := tc.q.liveRange()
	claimsByHome := make(map[int][]int64)
	ownClaimed := make(map[int64]bool) // our own journal slots present in our queue
	for i := bottom; i < top; i++ {
		off := tc.q.slotOff(i)
		slot := tc.q.ring[off : off+tc.q.slotSize]
		home := wireJHome(slot)
		if home < 0 {
			continue // unjournaled (pre-recovery descriptor)
		}
		js := int64(wireJSlot(slot))
		if home == me {
			ownClaimed[js] = true
		} else {
			claimsByHome[home] = append(claimsByHome[home], js)
		}
	}
	doneByDead := tc.jn.doneByLocal(dead)
	for r := 0; r < p.NProcs(); r++ {
		if r == me || !rec.alive[r] {
			continue
		}
		var forDead []int64
		if r == healer {
			forDead = claimsByHome[dead]
		}
		p.Send(r, tagRecoverClaims, encodeClaims(claimsByHome[r], forDead, doneByDead))
	}

	// --- Receive every survivor's claims against our journal. ---------
	deadClaimed := make(map[int64]bool)
	salvagedExecs := doneByDead // our own durable credits to the dead executor
	if me == healer {
		for _, s := range claimsByHome[dead] {
			deadClaimed[s] = true
		}
	}
	for r := 0; r < p.NProcs(); r++ {
		if r == me || !rec.alive[r] {
			continue
		}
		buf, _ := p.Recv(r, tagRecoverClaims)
		forMe, forDead, done := decodeClaims(buf)
		for _, s := range forMe {
			ownClaimed[s] = true
		}
		if me == healer {
			for _, s := range forDead {
				deadClaimed[s] = true
			}
			salvagedExecs += done
		}
	}

	// --- Replay our own live-but-unclaimed records. --------------------
	replayed := int64(0)
	for s := 0; s < tc.jn.slots; s++ {
		if tc.jn.slotState(s) != jLive || ownClaimed[int64(s)] {
			continue
		}
		tc.requeue(tc.jn.slotBytes(s))
		replayed++
	}

	// --- Healer: salvage the dead rank's journal and deferred pool. ----
	if me == healer {
		replayed += tc.salvageDeadJournal(dead, deadClaimed, &salvagedExecs)
		tc.stats.SalvagedExecs += salvagedExecs
		replayed += tc.salvageDeadDeferred(dead)
	} else if tc.deps != nil {
		// Receive the deferred-handle remap the healer broadcasts.
		buf, _ := p.Recv(healer, tagRecoverRemap)
		tc.installDepRemap(dead, buf)
	}

	// --- Relaunch our own deferred tasks whose launch was lost. --------
	if tc.deps != nil {
		replayed += tc.sweepDeferred()
	}

	tc.stats.TasksRecovered += replayed
	tc.stats.Recoveries++
	tc.obs.recoverReplay(replayed, tc.stats.SalvagedExecs)

	// --- Heal the termination tree and re-enter. -----------------------
	tc.td.rebuild(rec.alive)
	p.Barrier()
	// Abandoned pending launch records (ours) are safe to drop only now:
	// every pool owner has finished reading launcher journal states, so
	// nobody can mistake the freed slot for a progressed launch.
	tc.jn.freePending()
	tc.obs.recoverEnd(dead, rec.epoch)
}

// sweepDeferred scans this rank's own pending pool for deferred tasks whose
// final Satisfy completed but whose launch was lost with the fault — the
// counter reads 0 (satisfied, never claimed) or holds a claim whose journal
// record is still pending (claimed, never made replayable). Both mean this
// rank still owns the only durable copy of the descriptor, so it relaunches
// locally. Claims whose journal entry went live (or further) are covered by
// the launcher's replay and are merely released. Returns the relaunch count.
func (tc *TC) sweepDeferred() int64 {
	pool := tc.deps
	p := tc.rt.p
	me := p.Rank()
	relaunched := int64(0)
	for s := 0; s < pool.slots; s++ {
		v := p.Load64(me, pool.ctr, s)
		if v == depFree || v > 0 {
			continue
		}
		if isDepClaim(v) && tc.launchState(v) != jPending {
			// The launcher recorded a replayable journal entry before it
			// stopped; its replay (live launcher) or the healer's salvage
			// (dead launcher) covers the task.
			p.Store64(me, pool.ctr, s, depFree)
			continue
		}
		off := s * pool.slotSize
		tc.rehome(p.Local(pool.data)[off : off+pool.slotSize])
		tc.stats.DeferredLaunched++
		relaunched++
		p.Store64(me, pool.ctr, s, depFree)
	}
	return relaunched
}

// salvageDeadJournal reads the dead rank's journal one-sidedly, re-homes
// its live-and-unclaimed descriptors into this (healer) rank's journal and
// queue, and folds the dead rank's durable self-completions into
// salvagedExecs. Returns the number of descriptors replayed.
func (tc *TC) salvageDeadJournal(dead int, claimed map[int64]bool, salvagedExecs *int64) int64 {
	rec := tc.rec
	jn := tc.jn
	buf := make([]byte, jn.slotSize)
	replayed := int64(0)
	for s := 0; s < jn.slots; s++ {
		st, ok := rec.res.SalvageLoad64(dead, jn.state, s)
		if !ok {
			panic(fmt.Sprintf("core: cannot salvage journal of dead rank %d", dead))
		}
		switch {
		case st == jLive:
			if claimed[int64(s)] {
				continue // still sitting in a live rank's queue
			}
			if !rec.res.Salvage(buf, dead, jn.data, s*jn.slotSize) {
				panic(fmt.Sprintf("core: cannot salvage journal data of dead rank %d", dead))
			}
			tc.rehome(buf)
			replayed++
		case st >= jDoneBase && int(st-jDoneBase) == dead:
			// The dead rank added and executed this task itself; its
			// local TasksExecuted counter died with it, so credit the
			// durable record here.
			*salvagedExecs++
		}
	}
	// Completions the dead journal already reclaimed into its tally word.
	if v, ok := rec.res.SalvageLoad64(dead, jn.state, jn.tallyIdx(dead)); ok {
		*salvagedExecs += v
	}
	return replayed
}

// salvageDeadDeferred drains the dead rank's pending pool on this (healer)
// rank: entries with dependencies outstanding are re-registered here with
// their remaining counts and the handle remap is broadcast to the other
// survivors; fully-satisfied entries whose launch died with the rank (a 0
// counter, or a claim whose journal record never went live) are launched
// directly. Runs (and sends) even when the pool is empty so receivers can
// Recv unconditionally. Returns the number of direct launches.
func (tc *TC) salvageDeadDeferred(dead int) int64 {
	pool := tc.deps
	if pool == nil {
		return 0
	}
	rec := tc.rec
	p := tc.rt.p
	launched := int64(0)
	var remap []byte
	buf := make([]byte, pool.slotSize)
	for s := 0; s < pool.slots; s++ {
		ctr, ok := rec.res.SalvageLoad64(dead, pool.ctr, s)
		if !ok {
			panic(fmt.Sprintf("core: cannot salvage deferred pool of dead rank %d", dead))
		}
		if ctr == depFree {
			continue
		}
		// A launcher claimed this entry before the rank died. If its
		// journal record went live the launch is replayable (the
		// launcher's own replay, or our journal salvage when the dead rank
		// was satisfying its own dep) — skip it.
		if isDepClaim(ctr) && tc.launchState(ctr) != jPending {
			continue
		}
		if !rec.res.Salvage(buf, dead, pool.data, s*pool.slotSize) {
			panic(fmt.Sprintf("core: cannot salvage deferred pool data of dead rank %d", dead))
		}
		if ctr <= 0 {
			// Satisfied but never launched: run it from here.
			tc.rehome(buf)
			tc.stats.DeferredLaunched++
			launched++
			continue
		}
		t := decodeTask(buf)
		nd, err := tc.AddDeferred(t.Affinity(), t, int(ctr))
		if err != nil {
			panic(fmt.Sprintf("core: re-registering salvaged deferred task: %v", err))
		}
		if rec.depRemap == nil {
			rec.depRemap = make(map[Dep]Dep)
		}
		od := Dep{Proc: int32(dead), Slot: int32(s)}
		rec.depRemap[od] = nd
		entry := make([]byte, 2*DepBytes)
		EncodeDep(entry, od)
		EncodeDep(entry[DepBytes:], nd)
		remap = append(remap, entry...)
	}
	for r := 0; r < p.NProcs(); r++ {
		if r != p.Rank() && rec.alive[r] {
			p.Send(r, tagRecoverRemap, remap)
		}
	}
	return launched
}

// rehome relaunches the descriptor image in buf from this rank: a task of
// its own, recorded in this rank's journal and queued here.
func (tc *TC) rehome(buf []byte) {
	t := decodeTask(buf)
	tc.journalize(t)
	tc.requeue(t.wire())
}

// launchState is the journal state of the launch a deferred entry's claim
// names: read from a live launcher's journal, salvaged from a dead one's,
// or jPending when the dead one's cannot be read.
func (tc *TC) launchState(claim int64) int64 {
	launcher, js := decodeDepClaim(claim)
	if tc.rec.alive[launcher] {
		return tc.rt.p.Load64(launcher, tc.jn.state, js)
	}
	if st, ok := tc.rec.res.SalvageLoad64(launcher, tc.jn.state, js); ok {
		return st
	}
	return jPending
}

// installDepRemap decodes the healer's remap broadcast.
func (tc *TC) installDepRemap(dead int, buf []byte) {
	rec := tc.rec
	for o := 0; o+2*DepBytes <= len(buf); o += 2 * DepBytes {
		if rec.depRemap == nil {
			rec.depRemap = make(map[Dep]Dep)
		}
		rec.depRemap[DecodeDep(buf[o:])] = DecodeDep(buf[o+DepBytes:])
	}
}
