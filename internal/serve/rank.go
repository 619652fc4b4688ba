package serve

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
)

// rank is one rank's side of the serve protocol: the completion burst it is
// filling, where it stands in the park handshake, and on the gateway the
// bookkeeping of the pump. It belongs to the rank's goroutine.
type rank struct {
	d  *Daemon
	p  pgas.Proc
	tc *core.TC
	h  core.Handle
	m  *metrics

	// flag is one word per rank: 1 from the moment a worker announces it
	// is about to park until it is awake again (or the gateway claims the
	// wake with a CAS back to 0).
	flag pgas.Seg

	burst []byte        // completion records not yet shipped
	held  time.Duration // execution time they account for

	idle int  // empty idle rounds in a row; parkAfter+1 once the flag is up
	cmd  byte // the standing order (see the wake commands)

	// Gateway only.
	pumping    bool   // inside a pump pass: the exec hook must not start another
	told       int    // next rank to tell r.cmd (a fault may unwind the telling)
	dealt      []bool // ranks handed a task since their flag was last looked at
	rr         int    // round-robin cursor for dependency-free placement
	recoveries int64  // recovery epochs already settled

	descs []*core.Task // the descriptor enqueueOne reuses, by body size
}

// Body is the SPMD body every rank runs: it wires the shared task
// collection and the hooks — the gateway's or a worker's — and enters
// TC.Process, once per phase, until the phase that ended on stop. Every
// rank leaves a phase holding the same order: the gateway sends the one it
// acts on to every worker before it lets the phase terminate. Collective:
// all ranks must call Body together (hand it to scioto.Run, or run it
// under pgas.World.Run via core.Attach).
func (d *Daemon) Body(rt *core.Runtime) {
	p := rt.Proc()
	tc := core.NewTC(rt, d.cfg.TC)
	r := &rank{d: d, p: p, tc: tc, h: tc.Register(execServeTask), dealt: make([]bool, p.NProcs())}
	// Metrics are registered here, before anything depends on the rank,
	// so every rank's registry carries the same schema (the
	// obsdeterminism congruence obligation).
	r.m = newMetrics(rt.Registry())
	r.flag = p.AllocWords(1)
	tc.SetExecHook(r.onExec)
	tc.SetIdleHook(r.workerIdle)
	shut := func() {}
	if p.Rank() == gatewayRank {
		tc.SetIdleHook(r.gatewayIdle)
		r.descs = make([]*core.Task, d.cfg.TC.MaxBodySize+1)
		shut = d.openGateway(r.m, p.NProcs())
	}
	for r.cmd != cmdStop {
		r.cmd, r.told = cmdResume, 0
		r.m.phases.Inc()
		tc.Process()
		if p.Rank() == gatewayRank {
			// Global termination: every rank shipped what it had before it
			// went passive, so the mailbox holds every record of the phase.
			r.collect(nil, 0)
			if s := tc.Stats(); s.Recoveries > r.recoveries {
				r.recoveries = s.Recoveries
				d.requeueLost()
			}
		}
	}
	shut()
}

// openGateway starts the ingest endpoint on the gateway rank and returns
// what closes it once the last phase has ended. The gateway owns all
// daemon state mutation and every task-collection call; HTTP handlers only
// touch state under d.mu and never touch the collection directly.
func (d *Daemon) openGateway(m *metrics, nprocs int) (shut func()) {
	d.mu.Lock()
	d.m = m
	d.mu.Unlock()
	stopHTTP, err := d.startHTTP(nprocs)
	if err != nil {
		// Panicking before the first barrier rides the crash-containment
		// path: the world poisons the collectives, the workers unwind,
		// and Run returns a rank-attributed error.
		panic(fmt.Errorf("serve: gateway endpoint: %w", err))
	}
	return func() {
		d.mu.Lock()
		d.stopped = true
		subs, results := d.serial, 0
		for _, sub := range d.order {
			results += sub.completed
		}
		d.mu.Unlock()
		stopHTTP()
		d.cfg.Logf("sciotod: drained (%d submissions, %d retained results)", subs, results)
	}
}

// execServeTask is the single task callback: run the kind in place, so
// the completion hook ships the scribbled result.
func execServeTask(tc *core.TC, t *core.Task) {
	runKind(tc.Proc().Compute, t.Body())
}

// onExec is every rank's completion hook: append the record to the burst
// and ship it if it has grown a batch's worth or a millisecond old. The
// elapsed time is the phase loop's own measurement, so buffering reads no
// clock.
func (r *rank) onExec(_ *core.TC, t *core.Task, elapsed time.Duration) {
	if r.idle > parkAfter {
		r.unpark() // found by the look behind the flag
	}
	r.idle = 0
	if t.ID() == 0 {
		return // not a serve-managed task
	}
	res := bodyData(t.Body())
	var hdr [recHdr]byte
	pgas.PutU64(hdr[:], t.ID())
	pgas.PutI64(hdr[8:], int64(elapsed))
	pgas.PutI32(hdr[16:], int32(len(res)))
	r.burst = append(append(r.burst, hdr[:]...), res...)
	r.held += elapsed
	if len(r.burst) >= burstBytes || r.held >= burstTime {
		r.ship()
	}
}

// ship sends the burst to the gateway as one message; on the gateway it
// is a pump pass, which delivers the burst first. Send is synchronous on
// every transport (tcp's opSend round-trips), so what a rank shipped
// before it went passive is in the gateway's mailbox when the phase ends.
// A fault that unwinds the Send leaves the burst in place for the next
// attempt.
func (r *rank) ship() {
	switch {
	case len(r.burst) == 0:
	case r.p.Rank() != gatewayRank:
		r.p.Send(gatewayRank, resultTag, r.burst)
		r.burst, r.held = r.burst[:0], 0
	case !r.pumping:
		r.pump(nil, 0)
	}
}

// unpark takes the flag down.
func (r *rank) unpark() {
	r.p.Store64(r.p.Rank(), r.flag, 0, 0)
	r.idle = 0
}

// workerIdle is a worker's idle hook. The order of the park handshake is
// the point: the flag goes up in one round, the phase loop's next pop
// reads this rank's queue word behind it, and only a round that still
// found nothing blocks. The gateway publishes a task and then reads the
// flag, so a task that pop missed is one whose adder saw the flag and
// sends the wake.
func (r *rank) workerIdle(*core.TC) bool {
	r.ship()
	switch {
	case r.cmd != cmdResume:
		return false // told to end the phase: idle is passive from here on
	case r.idle < parkAfter:
		r.idle++
	case r.idle == parkAfter:
		r.p.Store64(r.p.Rank(), r.flag, 0, 1)
		r.idle++
	default:
		msg, _ := r.p.Recv(gatewayRank, wakeTag)
		r.cmd = msg[0]
		r.unpark()
	}
	return true
}

// gatewayIdle is the gateway's idle hook: pump, and when parkAfter rounds
// in a row moved nothing, block — in Recv while tasks are in flight (a
// burst or the world fault must arrive), on the doorbell when none are.
// An idle daemon sits there, burning nothing, with the workers parked in
// Recv. It reports passive only under a standing order to end the phase,
// and then only on a pass that moved nothing.
func (r *rank) gatewayIdle(*core.TC) bool {
	if r.pump(nil, 0) {
		r.idle = 0
		return true
	}
	if r.cmd != cmdResume {
		return false
	}
	if r.idle++; r.idle < parkAfter {
		return true
	}
	r.idle = 0
	d := r.d
	d.mu.Lock()
	inFlight, waiting := d.inFlight, len(d.queue)+len(d.owed)
	d.mu.Unlock()
	switch {
	case inFlight > 0:
		msg, from := r.p.Recv(pgas.AnySource, resultTag)
		r.pump(msg, from)
	case waiting == 0:
		<-d.wake
	}
	return true
}

// pump is one pass of the gateway's work inside the phase: deliver the
// completions that have arrived (msg from rank from, if the caller was
// woken by one, first), hand the ingest queue to the collection, apply the
// Satisfy calls owed, wake the parked ranks that were dealt a task, and
// when the phase has to end — a recovery epoch to settle, or a drain with
// nothing left — tell the workers. It reports whether anything moved.
func (r *rank) pump(msg []byte, from int) bool {
	r.pumping = true
	defer func() { r.pumping = false }()
	moved := r.collect(msg, from)
	if r.cmd == cmdResume && r.tc.Stats().Recoveries > r.recoveries {
		// The collection healed around a dead rank. Let the phase
		// terminate: what is still in flight after that died with it.
		r.cmd = cmdEndPhase
	}
	if r.cmd == cmdResume {
		moved = r.feed() || moved
	}
	if r.cmd != cmdResume {
		for n := r.p.NProcs(); r.told < n; r.told++ {
			if r.told != gatewayRank {
				r.p.Send(r.told, wakeTag, []byte{r.cmd})
				moved = true
			}
		}
		return moved
	}
	woke := false
	for w, dealt := range r.dealt {
		if dealt {
			woke = r.wake(w) || woke
			r.dealt[w] = false
		}
	}
	// Surplus on this rank's own queue — deferred launches land here, and
	// so does what was dealt to a dead rank — with everyone else parked
	// would run serially: one more pair of hands.
	for n, k := r.p.NProcs(), 1; !woke && k < n && r.tc.PendingLocal() > 1; k++ {
		woke = r.wake((r.rr + k) % n)
	}
	return moved
}

// wake claims rank w's parked flag and, if it was up, sends the wake.
func (r *rank) wake(w int) bool {
	if w == gatewayRank || !r.p.CAS64(w, r.flag, 0, 1, 0) {
		return false
	}
	r.p.Send(w, wakeTag, []byte{cmdResume})
	return true
}

// collect drains the completion mailbox — this rank's own burst, the
// message the caller already holds, then whatever else has arrived — and
// routes each record, waking every touched stream once. It makes no
// task-collection call, so a fault can only unwind it between messages.
func (r *rank) collect(msg []byte, from int) (moved bool) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	var touched []*submission
	defer func() {
		for _, sub := range touched {
			sub.bump()
		}
		d.m.pending.Set(int64(d.pending))
	}()
	route := func(msg []byte, from int) {
		for len(msg) >= recHdr {
			n := recHdr + int(pgas.GetI32(msg[16:]))
			if n < recHdr || n > len(msg) {
				break
			}
			// Records of one submission come in runs, so looking at the
			// last one touched keeps the list to a stream per run.
			if sub := d.deliver(msg[:n], from, now); sub != nil && (len(touched) == 0 || touched[len(touched)-1] != sub) {
				touched = append(touched, sub)
			}
			msg = msg[n:]
			moved = true
		}
		if len(msg) != 0 {
			d.cfg.Logf("sciotod: dropping %d malformed bytes of a completion burst from rank %d", len(msg), from)
		}
	}
	if len(r.burst) > 0 {
		// Results alias the message they arrived in; the burst is reused.
		route(append([]byte(nil), r.burst...), gatewayRank)
		r.burst, r.held = r.burst[:0], 0
	}
	if msg != nil {
		route(msg, from)
	}
	for {
		msg, from, ok := r.p.TryRecv(pgas.AnySource, resultTag)
		if !ok {
			return moved
		}
		route(msg, from)
	}
}

// feed moves admitted work into the collection: the ingest queue first
// (registering a dependent may find prerequisites already done), then the
// Satisfy calls owed — those of a cancelled submission free its
// deferred-pool slots — and decides when a drain is complete. Runs with
// d.mu held: the collection calls contend with HTTP handlers for the
// daemon lock only.
func (r *rank) feed() (moved bool) {
	d := r.d
	d.mu.Lock()
	defer d.mu.Unlock()
	// A fault can unwind any Add or Satisfy below. What was not handed
	// over by then stays queued (or owed), so each loop consumes its list
	// only as far as it got.
	i, held := 0, 0
	defer func() {
		d.queue = append(d.queue[:held], d.queue[i:]...)
		d.m.ingestQueue.Set(int64(len(d.queue)))
	}()
	for ; i < len(d.queue); i++ {
		ref := d.queue[i]
		if ref.sub.tasks[ref.idx].phase != taskQueued {
			continue // dropped by a cancel while queued
		}
		if r.enqueueOne(ref) {
			moved = true
		} else {
			d.queue[held] = ref // deferred pool full; retry next pass
			held++
		}
	}
	for ; len(d.owed) > 0; d.owed = d.owed[1:] {
		sub, idx := d.owed[0].sub, d.owed[0].idx
		for t := &sub.tasks[idx]; t.phase == taskDeferred && t.applied < t.due(sub); {
			d.satisfyOne(r.tc, sub, idx)
			moved = true
		}
	}
	if d.draining && held == 0 && d.inFlight == 0 && d.deferred == 0 {
		// Nothing queued, nothing in flight, nothing parked in the
		// deferred pool: the drain handshake can complete.
		r.cmd = cmdStop
	}
	return moved
}

// enqueueOne hands one admitted task to the runtime. Dependency-gated
// tasks whose prerequisites have not all completed go through the
// deferred pool; everything else is dealt round-robin across ranks — the
// deal is only a hint, stealing rebalances — and a full queue runs the
// task inline, here, as Add documents. Reports false when the deferred
// pool is full and the task must wait. Caller holds d.mu.
func (r *rank) enqueueOne(ref taskRef) bool {
	d, sub, i := r.d, ref.sub, ref.idx
	t := &sub.tasks[i]
	size := bodyDataOff + max(len(t.payload), minResultBytes)
	// Add and AddDeferred copy the descriptor in, so one per body size
	// serves every task; clearing the body keeps an earlier task's bytes
	// from travelling with this one.
	task := r.descs[size]
	if task == nil {
		task = core.NewTask(r.h, size)
		r.descs[size] = task
	}
	clear(task.Body())
	task.SetID(packID(sub.serial, i))
	encodeTaskBody(task.Body(), t.kind, t.arg, t.payload)

	// A cancelled submission's task is only ever queued again by
	// requeueLost: it launched once, so its slot is long free.
	if len(t.deps) > t.satisfied && !sub.cancelled {
		dep, err := r.tc.AddDeferred(t.affinity, task, len(t.deps))
		if err != nil {
			return false // pool full; slots free as dependencies resolve
		}
		t.dep = dep
		t.phase = taskDeferred
		d.deferred++
		d.m.deferredWaiting.Set(int64(d.deferred))
		if t.satisfied > 0 {
			// Prerequisites that completed while this task was still
			// queued; the remainder arrive with results.
			d.owed = append(d.owed, ref)
		}
		return true
	}

	r.rr++
	dst := r.rr % r.p.NProcs()
	if err := r.tc.Add(dst, t.affinity, task); err != nil {
		panic(fmt.Errorf("serve: enqueue task %s[%d]: %w", sub.id, i, err))
	}
	r.dealt[dst] = true
	t.phase = taskInFlight
	d.inFlight++
	return true
}
