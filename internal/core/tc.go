package core

import (
	"errors"
	"fmt"
	"runtime"
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
	jn   *journal  // non-nil iff work-replay recovery is enabled
	rec  *recovery // non-nil iff work-replay recovery is enabled

	callbacks []TaskFunc

	statsSeg pgas.Seg // scratch for GlobalStats reduction

	stats      Stats
	pair       [2]int // an idle round's victims (pickVictims)
	processing bool
	sinceOrder int // executed tasks since last ordered release check

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
	tc := &TC{rt: rt, cfg: cfg}
	slotSize := HeaderBytes + cfg.MaxBodySize
	tc.q = newTaskQueue(rt.p, cfg.QueueMode, slotSize, cfg.MaxTasks)
	tc.td = newTermDetector(rt.p, &tc.stats)
	if cfg.Termination == TermCounter {
		tc.ctd = newCtrDetector(rt.p, &tc.stats)
	}
	tc.statsSeg = rt.p.AllocWords(statsWords)
	if cfg.MaxDeferred > 0 {
		tc.deps = newDepPool(rt.p, cfg.MaxDeferred, slotSize)
	}
	if rt.recoverOn && cfg.Termination == TermWave {
		// Work-replay recovery: the journal shadows every live descriptor
		// this rank adds, wherever the task ends up. Sized at twice the
		// queue capacity so remote adds beyond the local patch still fit.
		// Collective allocations — the facade enables recovery uniformly,
		// so every rank takes this branch congruently.
		if res, ok := pgas.Find[pgas.Resilient](rt.p); ok {
			tc.jn = newJournal(rt.p, 2*cfg.MaxTasks, slotSize)
			tc.rec = newRecovery(rt.p, res)
		}
	}
	tc.SetObserver(rt.obs)
	rt.p.Barrier()
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
// the task; outside one, ErrFull is returned. A remote destination is
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
	tc.journalize(t)
	return tc.addJournaled(proc, t)
}

// addJournaled is Add's enqueue tail for a task whose journal record (if
// recovery is armed) already exists: destination-liveness reroute, push,
// and the full-queue inline fallback. Satisfy's deferred-launch path calls
// it directly after recording its pending entry, so the launch is never
// double-journaled.
//
//scioto:journaled every caller records the descriptor (journalize or journalizePending) before handing it over
func (tc *TC) addJournaled(proc int, t *Task) error {
	me := tc.rt.Rank()
	if tc.rec != nil && !tc.rec.alive[proc] {
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
	tc.stats.InlineExecs++
	tc.obs.inline()
	tc.execute(decodeTask(wire)) // a descriptor of its own: the caller's is live
	return nil
}

// journalize records t in this rank's replay journal and stamps the
// (home, slot) reference into its header. No-op when recovery is off, in
// which case the header keeps its unjournaled (-1) marker.
//
//scioto:noalloc
func (tc *TC) journalize(t *Task) {
	if tc.jn == nil {
		return
	}
	slot := tc.jn.alloc()
	t.setJournalRef(tc.rt.Rank(), slot)
	tc.jn.record(slot, t.wire(), jLive)
}

// journalizePending records t like journalize but in the jPending state:
// invisible to replay until the caller publishes responsibility for it
// (the deferred-launch claim protocol, deps.go) and flips it live.
// Returns the claimed slot. Caller must have checked tc.jn != nil.
func (tc *TC) journalizePending(t *Task) int {
	slot := tc.jn.alloc()
	t.setJournalRef(tc.rt.Rank(), slot)
	tc.jn.record(slot, t.wire(), jPending)
	return slot
}

// execute dispatches a task to its callback.
//
//scioto:noalloc
func (tc *TC) execute(t *Task) {
	h := int(t.Handle())
	if h < 0 || h >= len(tc.callbacks) {
		//scioto:alloc-ok formats the message of a panic no healthy run reaches
		panic(fmt.Sprintf("core: executing task with unregistered handle %d", h))
	}
	if tc.jn != nil {
		// Durably mark the task done BEFORE running its callback: a single
		// one-sided store naming this executor. The ordering is the replay
		// exactness invariant — a crash between the mark and the callback
		// cannot happen on this rank's own account (the mark is this
		// rank's op), and a crash after the callback leaves the children
		// it journaled to be replayed while the task itself stays counted.
		// See DESIGN.md "Recovery".
		if home := t.jHome(); home >= 0 && tc.rec.alive[home] {
			tc.jn.markDone(home, t.jSlot(), tc.rt.Rank())
		}
	}
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

// popLocal fetches the next local task: private end first; when the
// private portion is empty, reacquire shared-portion work.
// The task arrives in the queue's reusable descriptor.
//
//scioto:noalloc
func (tc *TC) popLocal() (*Task, bool) {
	if tc.cfg.QueueMode == ModeLocked {
		return tc.q.popLocked(&tc.stats)
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
	for {
		fe := tc.processOnce()
		if fe == nil {
			return
		}
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
		if rec := recover(); rec != nil {
			fe, ok := rec.(*pgas.FaultError)
			if !ok {
				panic(rec)
			}
			if fe.Detail == "" {
				fe.Detail = "task-parallel phase (TC.Process)"
			}
			if tc.rec != nil && tc.rec.canRecover(fe, tc.rt.Rank()) {
				tc.processing = false
				fault = fe
				return
			}
			panic(rec)
		}
	}()
	p := tc.rt.p
	p.Barrier()
	tc.td.reset()
	// Note: the counter detector is NOT reset here — seeding adds before
	// Process have already charged it. It is cleared by NewTC and Reset.
	p.Barrier()
	tc.processing = true

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
			tc.execute(t)
			tc.sinceOrder++
			// Fewer than two private tasks: maybeRelease has none to spare.
			if tc.cfg.QueueMode == ModeSplit && tc.q.top-tc.q.split >= 2 {
				tc.q.maybeRelease(tc.sinceOrder >= releaseInterval, &tc.stats)
			}
			if tc.sinceOrder >= releaseInterval {
				tc.sinceOrder = 0
			}
			continue
		}

		if busy {
			busy, mark = false, tc.charge(&tc.stats.WorkTime, mark)
		}
		if !tc.cfg.DisableStealing && n > 1 {
			if batch := tc.steal(); batch != nil {
				tc.td.noteBalance()
				tc.enqueueStolen(batch.slots)
				batch.recycle()
				tc.obs.setQueueDepth(tc.q.totalCountHint())
				continue
			}
			tc.obs.setQueueDepth(0)
		}
		if tc.jn != nil {
			tc.obs.setJournalDepth(tc.jn.depth)
		}
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
	return nil
}

// charge adds the time since mark to one of the two phase-loop totals and
// returns the new mark.
func (tc *TC) charge(total *time.Duration, mark time.Duration) time.Duration {
	now := tc.rt.p.Now()
	*total += now - mark
	return now
}

// enqueueStolen pushes stolen slot images onto the local queue. A push
// copies the slot bytes, so the caller may recycle the batch afterwards.
//
//scioto:journal-exempt stolen descriptors carry the journal reference stamped at the origin rank's Add; re-recording here would double-count them
func (tc *TC) enqueueStolen(slots [][]byte) {
	for _, slot := range slots {
		tc.requeue(slot)
	}
}

// requeue re-inserts an already-journaled descriptor image into the local
// queue (stolen tasks and recovery replays — both carry their journal
// reference in the header, so they must NOT be journalized again). A full
// queue falls back to inline execution, as in Add.
//
//scioto:journaled callers pass descriptors whose journal record already exists (stolen images or recovery replays)
//scioto:noalloc
func (tc *TC) requeue(slot []byte) {
	wire := slot[:wireLen(slot)]
	var ok bool
	if tc.cfg.QueueMode == ModeLocked {
		ok = tc.q.pushLocked(wire, &tc.stats)
	} else {
		ok = tc.q.pushPrivate(wire, &tc.stats)
	}
	if !ok {
		tc.stats.InlineExecs++
		tc.obs.inline()
		//scioto:alloc-ok the full-queue inline fallback runs the task from a descriptor of its own; a push that fits allocates nothing
		tc.execute(decodeTask(wire))
	}
}

// Reset collectively clears the collection so it can be seeded and
// processed again (tc_reset).
func (tc *TC) Reset() {
	tc.rt.p.Barrier()
	tc.q.reset()
	tc.td.reset()
	if tc.ctd != nil {
		tc.ctd.reset()
	}
	tc.sinceOrder = 0
	tc.rt.p.Barrier()
}

// Stats returns this process's counters.
func (tc *TC) Stats() Stats { return tc.stats }

// ClearStats zeroes this process's counters (local operation).
func (tc *TC) ClearStats() { tc.stats = Stats{} }

// PendingLocal estimates the number of tasks currently in this process's
// patch (exact when no concurrent remote activity).
func (tc *TC) PendingLocal() int64 { return tc.q.totalCountHint() }

// GlobalStats collectively reduces all processes' counters and returns the
// sum (valid on every process). Must be called by all processes together,
// outside a processing phase.
func (tc *TC) GlobalStats() Stats {
	p := tc.rt.p
	seg := tc.statsSeg
	mine := tc.stats.asSlice()
	for i, v := range mine {
		p.Store64(p.Rank(), seg, i, v)
	}
	p.Barrier()
	// Pipeline the whole gather — one non-blocking load per (rank, word),
	// completed by a single Flush. Issued serially this collective is
	// O(P·statsWords) round trips per process, which at large P dwarfs
	// the task-parallel phase it is trying to measure.
	n := p.NProcs()
	cells := make([]int64, n*statsWords)
	for r := 0; r < n; r++ {
		if tc.rec != nil && !tc.rec.alive[r] {
			continue // dead rank: its durable completions live in SalvagedExecs
		}
		for i := 0; i < statsWords; i++ {
			p.NbLoad64(r, seg, i, &cells[r*statsWords+i])
		}
	}
	p.Flush()
	var total Stats
	acc := make([]int64, statsWords)
	for r := 0; r < n; r++ {
		if tc.rec != nil && !tc.rec.alive[r] {
			continue
		}
		for i := range acc {
			acc[i] += cells[r*statsWords+i]
		}
	}
	total.fromSlice(acc)
	p.Barrier()
	return total
}

// steal is an idle round's steal attempt; it returns the batch taken, or
// nil. A split queue probes the round's victims in one round trip and
// claims from the best of them, deciding §5.3's mark for that victim only
// then; a locked queue keeps the paper's sequence on one random victim.
//
//scioto:noalloc
func (tc *TC) steal() (b *stealBatch) {
	t0 := tc.obs.now()
	vs := tc.pickVictims()
	victim, w, res := vs[0], int64(0), stealOK
	if tc.cfg.QueueMode == ModeLocked {
		b, res = tc.q.steal(victim, tc.cfg.ChunkSize, tc.markFor(victim), &tc.stats)
	} else if victim, w, res = tc.q.probe(vs, &tc.stats); res == stealOK {
		b, res = tc.q.claim(victim, w, tc.cfg.ChunkSize, tc.markFor(victim), &tc.stats)
	}
	tc.obs.steal(t0, victim, res, b)
	return b
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
// under the wave detector with two live peers or more, else one, drawn as
// a lone victim always was. The counter detector keeps one: its passive
// ranks load the counter on rank 0 every round, and on dsim a pair's
// flushed loads are booked on rank 0's interface as they are issued, so
// the working ranks' blocking counter updates never find it free.
//
//scioto:noalloc
func (tc *TC) pickVictims() []int {
	p := tc.rt.p
	peers := tc.rt.NProcs() - 1
	if tc.rec != nil {
		peers = tc.rec.nAlive - 1
	}
	v := p.Rand().Intn(tc.rt.NProcs() - 1)
	if v >= tc.rt.Rank() {
		v++
	}
	if tc.rec != nil && !tc.rec.alive[v] {
		v = tc.nthPeer(p.Rand().Intn(peers), -1)
	}
	tc.pair[0] = v
	if peers < 2 || tc.cfg.QueueMode == ModeLocked || tc.ctd != nil {
		return tc.pair[:1]
	}
	tc.pair[1] = tc.nthPeer(p.Rand().Intn(peers-1), v)
	return tc.pair[:]
}

// nthPeer is the k-th live rank, counting from 0, other than this one and
// skip.
func (tc *TC) nthPeer(k, skip int) int {
	for r := 0; ; r++ {
		if r != tc.rt.Rank() && r != skip && (tc.rec == nil || tc.rec.alive[r]) {
			if k--; k < 0 {
				return r
			}
		}
	}
}
