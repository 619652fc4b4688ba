package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"scioto/internal/pgas"
)

// Config parameterizes a task collection, mirroring tc_create's arguments
// plus the knobs the paper describes or that we ablate.
type Config struct {
	// MaxBodySize is the largest task body (bytes) the collection can hold
	// (tc_create's task_sz).
	MaxBodySize int
	// ChunkSize is the number of tasks one steal transfers when the victim
	// has them (tc_create's chunk_sz). It is the maximum on a ModeLocked
	// queue; a thief of a split queue takes half the victim's shared
	// portion when that is more.
	ChunkSize int
	// MaxTasks is the per-process queue capacity (tc_create's max_sz).
	MaxTasks int
	// QueueMode selects the split queue (default) or the fully locked
	// ablation.
	QueueMode QueueMode
	// DisableStealing turns off dynamic load balancing, relying on the
	// initial task placement (Section 3's "dynamic load balancing can be
	// disabled prior to entering the task parallel region").
	DisableStealing bool
	// DisableColoringOpt disables the §5.3 dirty-marking elision, so every
	// steal marks its victim dirty (ablation baseline).
	DisableColoringOpt bool
	// MaxDeferred is the per-process capacity of the deferred-task pool
	// used by AddDeferred/Satisfy (inter-task dependencies). Zero disables
	// the dependency API for this collection.
	MaxDeferred int
	// Termination selects the termination detection algorithm: the
	// paper's token waves (default) or the eager global counter
	// alternative kept for ablation.
	Termination TerminationMode
}

// Conventional affinity values.
const (
	// AffinityHigh places a task at the owner-processing end of the queue:
	// executed first locally, stolen last.
	AffinityHigh int32 = 2
	// AffinityLow places a task at the steal end of the queue: first to be
	// transferred when load balancing occurs.
	AffinityLow int32 = 0

	// affinityThreshold: local adds with affinity >= threshold go to the
	// lock-free private end (executed first, stolen last); lower-affinity
	// adds go to the shared steal end.
	affinityThreshold int32 = 1
	// releaseInterval is the number of executed tasks between ordered
	// refreshes of the packed word in the release check (progress
	// guarantee for making work stealable).
	releaseInterval = 8
)

func (c Config) withDefaults() Config {
	if c.MaxBodySize == 0 {
		c.MaxBodySize = 256
	}
	if c.ChunkSize == 0 {
		c.ChunkSize = 10
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 1 << 14
	}
	return c
}

// ErrFull reports that a task could not be added because the destination
// queue was at capacity outside a processing phase (inside one, full queues
// trigger inline execution instead).
var ErrFull = errors.New("core: task queue full")

// TC is a task collection: a global-view, distributed collection of task
// objects processed collectively in a MIMD task-parallel phase.
type TC struct {
	rt  *Runtime
	cfg Config

	q    *taskQueue
	td   *termDetector
	ctd  *ctrDetector // non-nil iff Config.Termination == TermCounter
	deps *depPool
	rec  *recovery // non-nil iff work-replay recovery is armed (recover.go)

	callbacks []TaskFunc

	stats Stats
	pair  [2]int // an idle round's victims (pickVictims)
	// ahead, when not nil, are the next idle round's victims, drawn by the
	// last steal's transfer, whose flush read their packed words into the
	// queue's probed (read-ahead; see steal).
	ahead      []int
	processing bool
	running    bool // the phase loop is inside a callback
	sinceOrder int  // release checks since the last ordered one

	// hold is the bypass slot: a split queue's callback puts its first
	// local high-affinity Add here instead of on the ring, and popLocal
	// returns it first, so a spawning task's first child runs without a pop.
	hold Task
	held bool
	// spawn is the spawn buffer: a callback's later local high-affinity
	// Adds are copied into its releaseInterval slots, spawned of them in
	// use, and reach the ring in one push (flushSpawn).
	spawn   []byte
	spawned int64

	obs *Observer // nil = observability disabled

	execHook ExecHook // nil = no completion notification
	idleHook IdleHook // nil = an idle rank is a passive rank
}

// ExecHook is a per-task completion notification callback (see
// TC.SetExecHook). It runs on the rank that executed the task, after the
// task's callback has returned, and receives the executed descriptor (the
// callback may have scribbled results into its body) and the execution
// time, which is measured per task only while a hook or an observer is
// attached. Like the callback's, the descriptor is valid until the hook
// returns.
type ExecHook func(tc *TC, t *Task, elapsed time.Duration)

// IdleHook is called by the phase loop once per idle round: the rank's own
// patch was empty and a steal attempt found nothing (see TC.SetIdleHook).
// It reports whether the rank is still active. An active rank takes no
// passive termination step that round — it neither votes nor, on the root
// of the spanning tree, starts a wave — and the loop goes back to its queue,
// so a hook that added local work, or that blocked until someone else did,
// must report active. Inactive means: nothing was added, treat me as idle.
type IdleHook func(tc *TC) (active bool)

// NewTC collectively creates a task collection. All processes must call it
// with an identical configuration, and must then register the same
// callbacks in the same order. The collection reports to the runtime's
// observer (Runtime.SetObserver), if it has one.
func NewTC(rt *Runtime, cfg Config) *TC {
	cfg = cfg.withDefaults()
	if cfg.MaxBodySize < 0 || cfg.ChunkSize <= 0 || cfg.MaxTasks <= 0 {
		panic(fmt.Sprintf("core: invalid task collection config %+v", cfg))
	}
	slotSize := HeaderBytes + cfg.MaxBodySize
	tc := &TC{rt: rt, cfg: cfg, hold: Task{buf: make([]byte, slotSize)}, spawn: make([]byte, releaseInterval*slotSize)}
	tc.q = newTaskQueue(rt.p, cfg.QueueMode, slotSize, cfg.MaxTasks)
	tc.td = newTermDetector(rt.p, &tc.stats)
	if cfg.Termination == TermCounter {
		tc.ctd = newCtrDetector(rt.p, &tc.stats)
	}
	if rt.recoverOn && cfg.Termination == TermWave {
		// Work-replay recovery: the journal shadows every live descriptor
		// this rank adds, wherever the task ends up. Sized at twice the
		// queue capacity so remote adds beyond the local patch still fit.
		// Collective allocations — the facade enables recovery uniformly,
		// so every rank takes this branch congruently.
		tc.rec = newRecovery(rt.p, 2*cfg.MaxTasks, slotSize)
	}
	if cfg.MaxDeferred > 0 {
		tc.deps = newDepPool(rt.p, cfg.MaxDeferred, slotSize, tc.rec)
	}
	tc.SetObserver(rt.obs)
	tc.collective(rt.p.Barrier)
	return tc
}

// SetObserver makes this collection — its queue and termination detector
// included — report to o (nil detaches). Local operation, performed by
// NewTC with the runtime's observer.
func (tc *TC) SetObserver(o *Observer) {
	tc.obs, tc.q.obs, tc.td.obs = o, o, o
}

// SetExecHook attaches a completion-notification hook invoked after every
// task execution on this rank — normal, stolen, deferred-launched, and
// inline (full-queue fallback) executions alike (nil detaches). Local
// operation; external drivers such as the serve gateway use it to route
// per-task completions (matched by Task.ID) without wrapping every
// callback.
func (tc *TC) SetExecHook(h ExecHook) { tc.execHook = h }

// SetIdleHook attaches the hook that decides whether this rank, found idle
// by the phase loop, is passive (nil detaches: idle is passive, the paper's
// model). It is how running code outside the collection keeps one long
// phase open and feeds it: the serve gateway admits tasks from its hook and
// stays active until it drains, and since rank 0 is the detector's root no
// wave starts before then; a hook may also block — a worker with nothing to
// do parks in Recv — because an active rank owes the detector nothing.
// Local operation.
func (tc *TC) SetIdleHook(h IdleHook) { tc.idleHook = h }

// Runtime returns the runtime the collection is attached to.
func (tc *TC) Runtime() *Runtime { return tc.rt }

// Proc returns the underlying pgas process handle (for tasks that perform
// one-sided communication).
func (tc *TC) Proc() pgas.Proc { return tc.rt.p }

// Register collectively registers a task callback and returns its portable
// handle. Every process must register the same callbacks in the same order.
func (tc *TC) Register(fn TaskFunc) Handle {
	tc.callbacks = append(tc.callbacks, fn)
	return Handle(len(tc.callbacks) - 1)
}

// NewTask creates a task descriptor sized for this collection with the
// given callback handle. The body size is the collection's MaxBodySize;
// use core.NewTask directly for smaller bodies.
func (tc *TC) NewTask(h Handle) *Task {
	return NewTask(h, tc.cfg.MaxBodySize)
}

// Add inserts a copy of the task into the collection patch on process proc
// with the given affinity (copy-in semantics: the task buffer is reusable
// as soon as Add returns). High-affinity local adds use the lock-free
// private end; everything else goes through the shared end. During a
// processing phase a full destination queue triggers inline execution of
// the task (with recovery armed, as this rank's next task: runInline);
// outside one, ErrFull is returned. A remote destination is
// judged by the top its owner last published, a high-water mark that pops
// do not lower until the owner next releases or reacquires shared work
// (it reacquires whenever its private end runs dry): in a phase a remote
// add may find a queue full while the owner has popped slots free, and
// then runs the task inline. Adds to this rank's own patch, and every add
// between phases, see the exact top.
func (tc *TC) Add(proc int, affinity int32, t *Task) error {
	if int(t.Handle()) < 0 || int(t.Handle()) >= len(tc.callbacks) {
		return fmt.Errorf("core: task handle %d not registered", t.Handle())
	}
	if t.BodyLen() > tc.cfg.MaxBodySize {
		return fmt.Errorf("core: task body %dB exceeds collection max %dB", t.BodyLen(), tc.cfg.MaxBodySize)
	}
	if proc < 0 || proc >= tc.rt.NProcs() {
		return fmt.Errorf("core: add to invalid process %d", proc)
	}
	t.setAffinity(affinity)
	t.setOrigin(tc.rt.Rank())
	if tc.rec != nil {
		return tc.addRecorded(proc, t)
	}
	return tc.addJournaled(proc, t)
}

// addJournaled is Add's enqueue tail for a task whose journal record (if
// recovery is armed) already exists: destination-liveness reroute, push,
// and the full-queue inline fallback. Satisfy's launch of a deferred task
// calls it directly with the task's own record, so the launch is never
// double-journaled.
func (tc *TC) addJournaled(proc int, t *Task) error {
	me := tc.rt.Rank()
	if !tc.rec.live(proc) {
		// Destination died in an earlier epoch: keep the work on this
		// rank. The journal record covers it like any local add.
		proc = me
	}
	affinity := t.Affinity()
	wire := t.wire()

	tc.obs.add(proc, affinity)
	if tc.ctd != nil {
		// Counter-based termination charges the outstanding count before
		// the task becomes visible anywhere.
		tc.ctd.noteAdd()
	}
	ok := false
	switch {
	case proc == me && tc.cfg.QueueMode == ModeLocked:
		ok = tc.q.pushLocked(wire, &tc.stats)
	case proc == me && affinity >= affinityThreshold && tc.running && !tc.held:
		// Bypass: no ring operation, so only the copy's bytes are
		// charged; popLocal takes it without a pop.
		tc.hold.buf = append(tc.hold.buf[:0], wire...)
		tc.q.chargeCopy(len(wire))
		tc.stats.LocalInserts++
		tc.held, ok = true, true
	case proc == me && affinity >= affinityThreshold && tc.running:
		ok = tc.buffer(wire)
	case proc == me && affinity >= affinityThreshold:
		ok = tc.q.pushPrivate(wire, &tc.stats)
	default:
		ok = tc.q.addRemote(proc, wire, &tc.stats)
	}
	if ok {
		tc.stats.TasksAdded++
		if proc != me {
			// Moving work to another process is a load-balancing
			// operation: our next termination token must be black.
			tc.td.noteBalance()
		}
		return nil
	}
	if !tc.processing {
		return ErrFull
	}
	// Full queue during processing: execute the task inline. Tasks are
	// independent, so immediate execution preserves correctness while
	// bounding queue memory (work-first fallback).
	tc.stats.TasksAdded++
	tc.runInline(wire)
	return nil
}

// buffer copies a callback's spawn into the spawn buffer and reports
// whether it did: not when the ring, counting the tasks buffered already,
// is full, and the caller runs it inline at once. The copy comes first:
// pushing a full buffer may run tasks inline, whose callbacks may rewrite
// the caller's descriptor. Every releaseInterval spawns reach the ring,
// followed by the release check, so a spawning task's surplus is
// stealable before it returns.
func (tc *TC) buffer(wire []byte) bool {
	if !tc.q.fits(tc.spawned + 1) {
		return false
	}
	copy(tc.spawn[int(tc.spawned)*tc.q.slotSize:], wire)
	if tc.spawned++; tc.spawned == releaseInterval {
		tc.flushSpawn()
		tc.releaseCheck()
	}
	return true
}

// flushSpawn pushes the spawn buffer, which holds tasks, onto the private
// end as one push. If adders have filled the ring since the tasks were
// buffered, the rest run inline, from a copy, the one allocation here: an
// inline callback may spawn into the buffer.
func (tc *TC) flushSpawn() {
	c := tc.spawned
	k := tc.q.pushBatch(tc.spawn, c, &tc.stats)
	tc.spawned = 0
	if k == c {
		return
	}
	size := tc.q.slotSize
	rest := slices.Clone(tc.spawn[int(k)*size : int(c)*size])
	for o := 0; o < len(rest); o += size {
		tc.runInline(rest[o : o+wireLen(rest[o:])])
	}
}

// runInline is the full-queue fallback: the task runs now, from a
// descriptor of its own (the caller's is live), unless recovery spills it
// to run as the phase loop's next task.
func (tc *TC) runInline(wire []byte) {
	tc.stats.InlineExecs++
	tc.obs.inline()
	if t := decodeTask(wire); !tc.rec.spill(t) {
		tc.execute(t)
	}
}

// execute dispatches a task to its callback.
func (tc *TC) execute(t *Task) {
	h := int(t.Handle())
	if h < 0 || h >= len(tc.callbacks) {
		panic(fmt.Sprintf("core: executing task with unregistered handle %d", h))
	}
	// Recovery records the execution here and marks its task done once the
	// callback's durable effects landed (recover.go).
	tc.rec.begin(t)
	// The clock is read per task only when someone consumes the duration:
	// an observer (exec span and latency histogram) or the exec hook.
	var d time.Duration
	if tc.obs != nil || tc.execHook != nil {
		t0 := tc.rt.p.Now()
		tc.callbacks[h](tc, t)
		d = tc.rt.p.Now() - t0
		tc.obs.exec(t0, d, h, t.Origin())
	} else {
		tc.callbacks[h](tc, t)
	}
	tc.rec.end()
	tc.stats.TasksExecuted++
	if t.Origin() == tc.rt.Rank() {
		tc.stats.ExecutedLocal++
	}
	if tc.ctd != nil {
		tc.ctd.noteDone()
	}
	if tc.execHook != nil {
		tc.execHook(tc, t, d)
	}
}

// popLocal fetches the next local task: a spilled one (runInline), the
// held one, then the private end; when the private portion is empty,
// reacquire shared-portion work.
// The task arrives in the queue's reusable descriptor.
func (tc *TC) popLocal() (*Task, bool) {
	if t, ok := tc.rec.unspill(); ok {
		return t, true
	}
	if tc.cfg.QueueMode == ModeLocked {
		return tc.q.popLocked(&tc.stats)
	}
	if tc.held {
		tc.held = false
		tc.hold, tc.q.desc = tc.q.desc, tc.hold
		return &tc.q.desc, true
	}
	if t, ok := tc.q.popPrivate(&tc.stats); ok {
		return t, true
	}
	if tc.q.reacquire(&tc.stats) {
		return tc.q.popPrivate(&tc.stats)
	}
	return nil, false
}

// Process collectively enters the MIMD task-parallel phase: every process
// executes tasks from its own patch, steals from random victims when its
// patch drains, and participates in termination detection when passive.
// Process returns on all processes once global termination is detected.
//
// With work-replay recovery enabled, a survivable peer death observed
// during the phase does not unwind: the survivors run the healing
// protocol (recover.go) — replaying the dead rank's lost descriptors and
// re-rooting the termination tree — and re-enter the phase until it
// terminates over the live membership.
func (tc *TC) Process() {
	for fe := tc.processOnce(); fe != nil; fe = tc.processOnce() {
		tc.recoverFromFault(fe)
	}
}

// processOnce runs one attempt at the task-parallel phase. It returns nil
// on normal termination, or the *pgas.FaultError when a recoverable peer
// death interrupted the phase. Unrecoverable panics propagate.
func (tc *TC) processOnce() (fault *pgas.FaultError) {
	// A transport fault (peer death, injected crash, deadline) surfaces as
	// a *pgas.FaultError panic from whatever one-sided operation observed
	// it. Stamp the runtime phase onto it so the error out of World.Run
	// says not just which rank and wire operation died, but that it died
	// inside the task-parallel region. When this rank can recover — the
	// fault names a peer, recovery is on, and the dead rank is not the
	// root — the fault is captured instead of rethrown.
	defer func() {
		if r := recover(); r != nil {
			fe, ok := r.(*pgas.FaultError)
			if !ok {
				panic(r)
			}
			if fe.Detail == "" {
				fe.Detail = "task-parallel phase (TC.Process)"
			}
			if tc.rec.canRecover(fe) {
				tc.processing, tc.running = false, false
				fault = fe
				return
			}
			panic(r)
		}
	}()
	// One barrier: each rank zeroes only its own wave cells, which nobody
	// writes outside Process, and a barrier is behind the last write (the
	// previous phase's exit, NewTC's, Reset's or recovery's). The counter
	// detector is NOT reset: seeding adds have charged it already.
	// A phase's first steal probes: no word read ahead outlives a phase,
	// nor (Process re-enters here) a recovery epoch.
	p := tc.rt.p
	if fe := tc.rec.enter(); fe != nil {
		return fe
	}
	tc.td.reset()
	tc.ahead = nil
	p.Barrier()
	tc.processing = true
	tc.finishInterrupted()

	n := tc.rt.NProcs()
	// The loop is busy (it holds local work) or idle (steal, termination
	// step, yield) since mark; the clock is read when that changes, never
	// per task, so Stats.WorkTime and IdleTime partition the loop.
	busy, mark := true, p.Now()
	for {
		if t, ok := tc.popLocal(); ok {
			if !busy {
				busy, mark = true, tc.charge(&tc.stats.IdleTime, mark)
			}
			tc.running = true
			tc.execute(t)
			tc.running = false
			if tc.cfg.QueueMode == ModeSplit {
				if tc.spawned > 0 {
					tc.flushSpawn()
				}
				tc.releaseCheck()
			}
			continue
		}

		if busy {
			busy, mark = false, tc.charge(&tc.stats.WorkTime, mark)
		}
		if !tc.cfg.DisableStealing && n > 1 {
			if tc.steal() > 0 {
				tc.td.noteBalance()
				tc.obs.setQueueDepth(tc.q.totalCountHint())
				continue
			}
			tc.obs.setQueueDepth(0)
		}
		tc.obs.setJournalDepth(tc.rec)
		if tc.idleHook != nil && tc.idleHook(tc) {
			runtime.Gosched()
			continue
		}

		// Passive: we just verified the queue is empty and failed to find
		// work. Participate in termination detection.
		var done bool
		if tc.ctd != nil {
			done = tc.ctd.idleCheck()
		} else {
			done = tc.td.step(true, tc.q.dirtyCounter)
		}
		if done {
			break
		}
		// Failed to find work anywhere: yield before retrying. On hosts
		// with fewer cores than ranks the idle ranks otherwise pin the
		// scheduler and starve the ranks that still hold tasks, turning a
		// microsecond phase into a timeslice-bound one.
		runtime.Gosched()
	}
	tc.charge(&tc.stats.IdleTime, mark) // the loop always leaves idle

	tc.processing = false
	p.Barrier()
	tc.rec.exit()
	return nil
}

// releaseCheck is the phase loop's release step, taken after every task
// and every local push inside a callback: an ordered look at the packed
// word every releaseInterval checks, a relaxed one in between.
func (tc *TC) releaseCheck() {
	tc.sinceOrder++
	// Fewer than two private tasks: maybeRelease has none to spare.
	if tc.q.top-tc.q.split >= 2 {
		tc.q.maybeRelease(tc.sinceOrder >= releaseInterval, &tc.stats)
	}
	if tc.sinceOrder >= releaseInterval {
		tc.sinceOrder = 0
	}
}

// charge adds the time since mark to one of the two phase-loop totals and
// returns the new mark.
func (tc *TC) charge(total *time.Duration, mark time.Duration) time.Duration {
	now := tc.rt.p.Now()
	*total += now - mark
	return now
}

// requeue re-inserts an already-journaled descriptor image into the local
// queue (a locked queue's stolen tasks and recovery replays — both carry
// their journal reference in the header, so they must NOT be journalized
// again). A full queue falls back to inline execution, as in Add.
func (tc *TC) requeue(slot []byte) {
	wire := slot[:wireLen(slot)]
	var ok bool
	if tc.cfg.QueueMode == ModeLocked {
		ok = tc.q.pushLocked(wire, &tc.stats)
	} else {
		ok = tc.q.pushPrivate(wire, &tc.stats)
	}
	if !ok {
		tc.runInline(wire)
	}
}

// Reset collectively clears the collection so it can be seeded and
// processed again (tc_reset).
func (tc *TC) Reset() {
	tc.collective(tc.rt.p.Barrier)
	tc.q.reset()
	tc.td.reset()
	if tc.ctd != nil {
		tc.ctd.reset()
	}
	tc.sinceOrder = 0
	tc.collective(tc.rt.p.Barrier)
}

// Stats returns this process's counters.
func (tc *TC) Stats() Stats { return tc.stats }

// ClearStats zeroes this process's counters (local operation).
func (tc *TC) ClearStats() { tc.stats = Stats{} }

// PendingLocal estimates the number of tasks currently in this process's
// patch (exact when no concurrent remote activity).
func (tc *TC) PendingLocal() int64 { return tc.q.totalCountHint() }

// GlobalStats collectively reduces all processes' counters and returns the
// sum (valid on every process): one all-reduce over the live ranks, so
// after a recovery the dead ranks are left out (their durable completions
// live in SalvagedExecs). Must be called by all live processes together,
// outside a processing phase.
func (tc *TC) GlobalStats() Stats {
	v := tc.stats.asSlice()
	tc.collective(func() {
		v = tc.stats.asSlice() // a death healed here changed them
		tc.rt.p.AllReduce(v, pgas.Sum)
	})
	var total Stats
	total.fromSlice(v)
	return total
}

// steal is an idle round's steal attempt; it returns how many tasks it
// took. A locked queue keeps the paper's sequence on one random victim and
// pushes what it took onto its own ring. A split queue probes the round's
// victims in one round trip and claims from the best of them, deciding
// §5.3's mark for that victim only then; what it claims lands at its own
// top (taskQueue.land).
//
// A split queue also reads ahead: the transfer's flush reads the words of
// the next round's victims, which are that round's probe. If one of them
// was claimable, the round claims on it at once — one flush of the mark,
// the CAS and both words reloaded — so a won guess steals in two round
// trips; a lost one has probed both victims afresh and goes on as a probed
// round would. If none was, the round is an empty or busy probe that sent
// nothing.
func (tc *TC) steal() (k int64) {
	t0 := tc.obs.now()
	q := tc.q
	victim, w, res := 0, int64(0), stealOK
	switch vs := tc.ahead; {
	case q.mode == ModeLocked:
		victim = tc.pickVictims()[0]
		k, res = q.stealLocked(victim, tc.cfg.ChunkSize, tc.markFor(victim), &tc.stats)
	case vs == nil:
		victim, w, res = q.probe(tc.pickVictims())
	default:
		tc.ahead = nil
		if victim, w, res = q.pick(vs); res == stealOK {
			if k = tc.claim(victim, w, vs); k > 0 {
				tc.stats.StealsAhead++
			} else {
				victim, w, res = q.pick(vs)
			}
		}
	}
	if res == stealOK && k == 0 {
		if k = tc.claim(victim, w, nil); k == 0 {
			res = stealBusy
		}
	}
	tc.stats.steal(res, k)
	tc.obs.steal(t0, victim, res, k)
	for i := int64(0); i < k && q.mode == ModeLocked; i++ {
		tc.requeue(q.stolen(i))
	}
	return k
}

// claim is one claim on a split queue's victim, whose word was read as w,
// and the landing of what it won (refresh: see taskQueue.claim). The
// landing's flush reads ahead the words of the victims it draws for the
// next idle round.
func (tc *TC) claim(victim int, w int64, refresh []int) int64 {
	k := tc.q.claim(victim, w, tc.cfg.ChunkSize, tc.markFor(victim), refresh, &tc.stats)
	if k > 0 {
		tc.ahead = tc.pickVictims()
		tc.q.land(victim, w, k, tc.ahead)
	}
	return k
}

// markFor is §5.3's rule for a claim on victim under the wave detector:
// the victim only needs to be marked dirty if the thief has already voted
// and the victim does not vote before the thief.
func (tc *TC) markFor(victim int) bool {
	mark := tc.cfg.DisableColoringOpt || tc.td.hasVoted() && !tc.td.votesBefore(victim, tc.rt.Rank())
	if tc.ctd == nil && !mark {
		tc.stats.DirtyMarksElided++
	}
	return tc.ctd == nil && mark
}

// pickVictims draws an idle round's victims into tc.pair, uniformly at
// random among the other live ranks: two distinct ones on a split queue
// with two live peers or more, else one, drawn as a lone victim always
// was.
func (tc *TC) pickVictims() []int {
	p := tc.rt.p
	peers := tc.rec.peers(tc.rt.NProcs())
	v := p.Rand().Intn(tc.rt.NProcs() - 1)
	if v >= tc.rt.Rank() {
		v++
	}
	if !tc.rec.live(v) {
		v = tc.nthPeer(p.Rand().Intn(peers), -1)
	}
	tc.pair[0] = v
	if peers < 2 || tc.q.mode == ModeLocked {
		return tc.pair[:1]
	}
	tc.pair[1] = tc.nthPeer(p.Rand().Intn(peers-1), v)
	return tc.pair[:]
}

// nthPeer is the k-th live rank, counting from 0, other than this one and
// skip.
func (tc *TC) nthPeer(k, skip int) int {
	for r := 0; ; r++ {
		if r != tc.rt.Rank() && r != skip && tc.rec.live(r) {
			if k--; k < 0 {
				return r
			}
		}
	}
}
