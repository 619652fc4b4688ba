package core

import (
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// Observer is where one rank's scheduler reports what happened: one
// method per occurrence — an execution, a steal attempt, an add, a
// split-pointer move, a queue-lock wait or hold, a termination wave, vote
// or signal, a recovery step — which updates the registry instruments
// (scraped live, merged across ranks by obs.Merger) and writes the rank's
// trace.Recorder together, so no site names either. It is the only file
// of the package that touches an instrument or the recorder.
//
// A nil *Observer is the disabled observer: every method is a no-op, and
// every timestamp that exists only to be reported is read inside a
// method, so a run without observability pays one nil check per site and
// no clock read. Instruments are created at construction, in a fixed
// order, keeping per-rank registries congruent for the cross-rank merge;
// every collection a rank creates shares the one observer, so the series
// reflect the rank's whole task-parallel activity.
type Observer struct {
	p   pgas.Proc // the rank's clock
	reg *obs.Registry
	rec *trace.Recorder

	tasksExecuted *obs.Counter
	taskLatency   *obs.Histogram
	inlineExecs   *obs.Counter
	tasksAdded    *obs.Counter

	stealLat    [3]*obs.Histogram // indexed by stealResult: ok, empty, busy
	tasksStolen *obs.Counter

	releases   *obs.Counter
	reacquires *obs.Counter
	queueDepth *obs.Gauge

	waves        *obs.Counter
	votes        *obs.Counter
	terminations *obs.Counter

	recoveries     *obs.Counter
	tasksRecovered *obs.Counter
	journalDepth   *obs.Gauge
}

// NewObserver creates rank p's observer over a metrics registry and a
// recorder, either of which may be nil (both nil yields the nil, disabled
// observer), and hands the recorder to the transport beneath p for its
// own spans (trace.Attacher, found through any wrappers).
func NewObserver(p pgas.Proc, reg *obs.Registry, rec *trace.Recorder) *Observer {
	if reg == nil && rec == nil {
		return nil
	}
	if a, ok := pgas.Find[trace.Attacher](p); ok {
		a.AttachRecorder(rec)
	}
	o := &Observer{p: p, reg: reg, rec: rec}
	o.tasksExecuted = reg.Counter("scioto_tasks_executed_total",
		"tasks executed by this rank")
	o.taskLatency = reg.Histogram("scioto_task_exec_seconds",
		"task callback execution latency")
	o.inlineExecs = reg.Counter("scioto_tasks_inline_total",
		"tasks executed inline because the local queue was full")
	o.tasksAdded = reg.Counter("scioto_tasks_added_total",
		"tasks added by this rank")
	for i, outcome := range [3]string{"ok", "empty", "busy"} {
		o.stealLat[i] = reg.Histogram(
			`scioto_steal_latency_seconds{outcome="`+outcome+`"}`,
			"steal attempt latency by outcome")
	}
	o.tasksStolen = reg.Counter("scioto_tasks_stolen_total",
		"tasks this rank stole from victims")
	o.releases = reg.Counter("scioto_queue_releases_total",
		"split-pointer releases making private tasks stealable")
	o.reacquires = reg.Counter("scioto_queue_reacquires_total",
		"split-pointer reacquires reclaiming shared tasks")
	o.queueDepth = reg.Gauge("scioto_queue_depth",
		"tasks pending in this rank's patch (refreshed when idle)")
	o.waves = reg.Counter("scioto_td_waves_total",
		"termination-detection waves observed")
	o.votes = reg.Counter("scioto_td_votes_total",
		"termination-detection votes cast")
	o.terminations = reg.Counter("scioto_td_terminations_total",
		"task-parallel phases terminated")
	o.recoveries = reg.Counter("scioto_recovery_epochs_total",
		"recovery epochs this rank participated in after a peer death")
	o.tasksRecovered = reg.Counter("scioto_recovery_tasks_replayed_total",
		"lost task descriptors re-inserted from the replay journal")
	o.journalDepth = reg.Gauge("scioto_journal_depth",
		"live descriptors in this rank's replay journal (refreshed when idle)")
	return o
}

// Registry returns the observer's metrics registry (nil when it has none,
// itself a valid disabled registry).
func (o *Observer) Registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// now reads the rank's clock for a span the caller will close through
// the observer; the disabled observer does not look.
func (o *Observer) now() time.Duration {
	if o == nil {
		return 0
	}
	return o.p.Now()
}

// instant records an occurrence of kind k at the current time, read only
// if the recorder will keep it.
func (o *Observer) instant(k trace.Kind, a1, a2 int64) {
	if o.rec.Retains() {
		now := o.p.Now()
		o.rec.Record(k, now, now, a1, a2)
	}
}

// exec reports one task execution: callback h, run over [t0, t0+d] on a
// descriptor added by rank origin.
func (o *Observer) exec(t0, d time.Duration, h, origin int) {
	if o == nil {
		return
	}
	o.tasksExecuted.Inc()
	o.taskLatency.Observe(d)
	o.rec.Record(trace.Exec, t0, t0+d, int64(h), int64(origin))
}

// steal reports one steal attempt begun at t0 and ending now — the whole
// pipelined exchange, victim choice through the final completion round —
// with its outcome and, on success, the batch of tasks taken.
func (o *Observer) steal(t0 time.Duration, victim int, res stealResult, b *stealBatch) {
	if o == nil {
		return
	}
	now := o.p.Now()
	o.stealLat[res].Observe(now - t0)
	var a2 int64
	switch res {
	case stealOK:
		a2 = int64(len(b.slots))
		o.tasksStolen.Add(a2)
	case stealEmpty:
		a2 = trace.StealEmpty
	case stealBusy:
		a2 = trace.StealBusy
	}
	o.rec.Record(trace.Steal, t0, now, int64(victim), a2)
}

func (o *Observer) add(proc int, affinity int32) {
	if o != nil {
		o.tasksAdded.Inc()
		o.instant(trace.Add, int64(proc), int64(affinity))
	}
}

func (o *Observer) inline() {
	if o != nil {
		o.inlineExecs.Inc()
	}
}

func (o *Observer) release(tasks int64) {
	if o != nil {
		o.releases.Inc()
		o.instant(trace.Release, tasks, 0)
	}
}

func (o *Observer) reacquire(tasks int64) {
	if o != nil {
		o.reacquires.Inc()
		o.instant(trace.Reacquire, tasks, 0)
	}
}

// lockWait reports the wait for rank proc's queue lock — a blocking Lock
// call or a failed TryLock probe — begun at t0 and over now, and returns
// now: the start of the hold when the lock was taken.
func (o *Observer) lockWait(t0 time.Duration, proc int) time.Duration {
	if o == nil {
		return 0
	}
	now := o.p.Now()
	o.rec.Record(trace.QueueLockWait, t0, now, int64(proc), 0)
	return now
}

// lockHeld reports a critical section on rank proc's queue lock, entered
// at lockT and left now.
func (o *Observer) lockHeld(lockT time.Duration, proc int) {
	if o != nil {
		o.rec.Record(trace.QueueLockHeld, lockT, o.p.Now(), int64(proc), 0)
	}
}

// tdWork reports what a detector step begun at t0 did for wave w — k, an
// instant now — and the step itself as wave work.
func (o *Observer) tdWork(t0 time.Duration, k trace.Kind, w, a2 int64) {
	now := o.p.Now()
	o.rec.Record(k, now, now, w, a2)
	o.rec.Record(trace.TDWave, t0, now, w, 0)
}

func (o *Observer) wave(t0 time.Duration, w int64) {
	if o != nil {
		o.waves.Inc()
		o.tdWork(t0, trace.WaveDown, w, 0)
	}
}

func (o *Observer) vote(t0 time.Duration, w, color int64) {
	if o != nil {
		o.votes.Inc()
		o.tdWork(t0, trace.Vote, w, color)
	}
}

func (o *Observer) terminate(t0 time.Duration, w int64) {
	if o != nil {
		o.terminations.Inc()
		o.tdWork(t0, trace.Terminate, w, 0)
	}
}

// waveRestart reports the root completing wave w-1 black and starting w:
// wave work with no instant of its own.
func (o *Observer) waveRestart(t0 time.Duration, w int64) {
	if o != nil {
		o.rec.Record(trace.TDWave, t0, o.p.Now(), w, 0)
	}
}

func (o *Observer) recoverBegin(dead int, epoch int64) {
	if o != nil {
		o.instant(trace.RecoverBegin, int64(dead), epoch)
	}
}

// recoverReplay reports the descriptors this rank replayed into its queue
// in a recovery epoch, beside its salvaged-completion tally.
func (o *Observer) recoverReplay(replayed, salvaged int64) {
	if o != nil {
		o.recoveries.Inc()
		o.tasksRecovered.Add(replayed)
		o.instant(trace.RecoverReplay, replayed, salvaged)
	}
}

func (o *Observer) recoverEnd(dead int, epoch int64) {
	if o != nil {
		o.instant(trace.RecoverEnd, int64(dead), epoch)
	}
}

func (o *Observer) setQueueDepth(n int64) {
	if o != nil {
		o.queueDepth.Set(n)
	}
}

func (o *Observer) setJournalDepth(n int64) {
	if o != nil {
		o.journalDepth.Set(n)
	}
}
