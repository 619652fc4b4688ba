// Package serve turns a live Scioto world into a persistent multi-tenant
// task-ingest service: a daemon whose ranks enter one task-parallel phase
// and stay in it while an HTTP/JSON API feeds the collection.
//
// Topology. One rank — the gateway, rank 0 — owns ingress: it runs the
// HTTP endpoint, assigns durable submission and task lifecycle IDs,
// applies admission control (per-tenant token buckets plus a bounded
// pending pool), and injects admitted tasks into the shared collection
// while it is being processed. Every other rank is a worker. All of them
// call TC.Process once; what keeps the phase open is the idle hook
// (core.TC.SetIdleHook) each rank installs, which the phase loop calls
// when the rank has no task and a steal found none:
//
//	gateway's hook (the pump)              worker's hook
//	-------------------------              -------------
//	deliver completion bursts              ship the buffered completions
//	admit the ingest queue: TC.Add         after parkAfter empty rounds:
//	apply Satisfy (deps, cancel flushes)     Store64(own flag, 1)
//	CAS(flag of each rank dealt to, 1→0)     one more look at the queue
//	  → Send(wake: resume)                   Recv(gateway, wake)  ← parked
//	nothing moved for parkAfter rounds:
//	  in flight: Recv(any, results)        wake = resume:    look again
//	  idle:      wait on the doorbell      wake = end-phase: go passive
//	drained, or a recovery to settle:      wake = stop:      go passive,
//	  Send(wake: stop | end-phase) to all                    then leave
//	  and report passive
//
// An active rank takes no part in termination detection, and the gateway
// is the detector's root, so no wave starts until the gateway reports
// passive: at drain, and after a recovery epoch. The runtime inside the
// phase is stock Scioto — split queues, work stealing — and an idle
// daemon is every rank blocked: the gateway on its doorbell, the workers
// in Recv.
//
// Park and wake lose no task: a worker publishes its flag and then reads
// its queue (the phase loop's next pop); the gateway publishes the task
// and then reads the flag. Both are ordered operations on every
// transport, so one of the two sees the other.
//
// Results ride the pgas two-sided message layer in bursts: a completion
// hook (core.TC.SetExecHook) on every rank appends each executed task's
// lifecycle ID, execution time and in-body result to a per-rank buffer,
// which travels to the gateway as one message when the rank's queue runs
// dry, when it holds burstBytes, or when it accounts for burstTime of
// execution; the gateway's pump routes the records to per-submission
// NDJSON streams and wakes each stream once per pass. Dependency-gated
// tasks use the deferred-task pool: the gateway registers them with
// AddDeferred and applies Satisfy as prerequisite completions arrive —
// the pending pool is invisible to termination detection, so a phase that
// ends with unsatisfied dependencies leaves them for the next one.
package serve

import (
	"fmt"
	"os"
	"sync"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
)

// gatewayRank is the rank that owns ingress. Fixed at 0: every rank must
// agree on it before any communication happens, so it is a protocol
// constant rather than configuration — and rank 0 is the root of the
// termination tree, which is what lets the gateway hold the phase open.
const gatewayRank = 0

// Message tags: completion bursts travel to the gateway, wake commands
// (one byte) from it.
const (
	resultTag int32 = 0x5c10
	wakeTag   int32 = 0x5c11
)

// Wake commands. They are also a rank's standing order: what the last
// wake told it (a worker) or what it has told the workers (the gateway).
const (
	cmdResume   byte = iota // there may be work: look again
	cmdEndPhase             // go passive; the phase ends and another follows (recovery settle)
	cmdStop                 // go passive; the phase ends and the rank leaves (drain complete)
)

const (
	// parkAfter is how many empty idle rounds — each a failed steal probe
	// and a yield — a rank sits through before it blocks.
	parkAfter = 2
	// burstBytes and burstTime bound what a completion burst holds back
	// while its rank still has tasks: a batch's worth of records (32 of
	// them with small results), or a millisecond of execution.
	burstBytes = 1 << 10
	burstTime  = time.Millisecond
	// recHdr is the fixed part of a completion record:
	//
	//	[0:8)   lifecycle ID
	//	[8:16)  execution time (ns)
	//	[16:20) result length
	//	[20:)   result bytes
	recHdr = 20
)

// Config parameterizes the daemon. The zero value serves on an ephemeral
// port with defaults sized for tests; cmd/sciotod exposes the knobs.
type Config struct {
	// Addr is the gateway's HTTP listen address (host:port; port 0 picks
	// an ephemeral port, announced on stderr and via Daemon.WaitReady).
	Addr string

	// TC configures the underlying task collection. MaxBodySize is
	// derived from MaxPayload; MaxDeferred defaults to 1024 (the
	// capacity bound on concurrently waiting dependency-gated tasks).
	TC core.Config

	// MaxPayload bounds one task's client payload in bytes (default 256).
	MaxPayload int
	// MaxTasksPerSubmit bounds one submission's task count (default 4096,
	// hard-capped at the lifecycle-ID index space).
	MaxTasksPerSubmit int
	// MaxPending bounds admitted-but-incomplete tasks across all tenants;
	// beyond it submissions are rejected with 429 (default 8192).
	MaxPending int
	// TenantRate is the per-tenant admission rate in tasks/second
	// (token-bucket refill; 0 disables per-tenant rate limiting).
	TenantRate float64
	// TenantBurst is the per-tenant token-bucket capacity (default
	// max(64, TenantRate)).
	TenantBurst int
	// RetainDone bounds completed submissions kept for listing/streaming
	// after completion (default 256; oldest evicted first).
	RetainDone int

	// Logf receives daemon lifecycle lines (default: stderr).
	Logf func(format string, args ...any)
}

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxPayload == 0 {
		c.MaxPayload = 256
	}
	if c.MaxTasksPerSubmit == 0 {
		c.MaxTasksPerSubmit = 4096
	}
	if c.MaxTasksPerSubmit > maxTasksHard {
		c.MaxTasksPerSubmit = maxTasksHard
	}
	if c.MaxPending == 0 {
		c.MaxPending = 8192
	}
	if c.TenantBurst == 0 {
		c.TenantBurst = 64
		if int(c.TenantRate) > c.TenantBurst {
			c.TenantBurst = int(c.TenantRate)
		}
	}
	if c.RetainDone == 0 {
		c.RetainDone = 256
	}
	if c.TC.MaxDeferred == 0 {
		c.TC.MaxDeferred = 1024
	}
	// Bodies hold the payload on the way in and the result on the way
	// out; reserve room for the larger of the two.
	need := bodyDataOff + c.MaxPayload
	if min := bodyDataOff + minResultBytes; need < min {
		need = min
	}
	if c.TC.MaxBodySize < need {
		c.TC.MaxBodySize = need
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return c
}

// Daemon is the serve-mode engine. Construct with New, then hand Body to
// every rank of a world (scioto.Run or pgas.World.Run + core.Attach); the
// gateway rank serves HTTP until Drain completes the shutdown handshake.
type Daemon struct {
	cfg Config

	mu       sync.Mutex
	subs     map[string]*submission
	bySerial map[uint64]*submission
	order    []*submission
	serial   uint64
	done     int       // terminal submissions among order (bounded by RetainDone)
	queue    []taskRef // admitted tasks awaiting the gateway's next pump pass
	owed     []taskRef // deferred tasks owed Satisfy calls: prerequisites done, or cancelled
	pending  int       // admission pool: admitted, not yet terminal
	inFlight int       // handed to the collection, result not yet collected
	deferred int       // registered in the deferred pool, waiting on deps
	buckets  map[string]*bucket
	draining bool
	stopped  bool
	addr     string

	wake  chan struct{} // gateway doorbell (1-buffered)
	ready chan struct{} // closed when the endpoint is listening

	start time.Time
	m     *metrics // gateway rank's instruments (nil until Body runs there)
}

// taskRef names one task of one submission.
type taskRef struct {
	sub *submission
	idx int
}

// New creates a daemon with the given configuration.
func New(cfg Config) *Daemon {
	return &Daemon{
		cfg:      cfg.withDefaults(),
		subs:     make(map[string]*submission),
		bySerial: make(map[uint64]*submission),
		buckets:  make(map[string]*bucket),
		wake:     make(chan struct{}, 1),
		ready:    make(chan struct{}),
		start:    time.Now(),
	}
}

// Config returns the daemon's resolved configuration.
func (d *Daemon) Config() Config { return d.cfg }

// WaitReady blocks until the gateway endpoint is listening and returns
// its address, or gives up after timeout.
func (d *Daemon) WaitReady(timeout time.Duration) (string, error) {
	select {
	case <-d.ready:
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.addr, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("serve: gateway endpoint not ready within %s", timeout)
	}
}

// Drain initiates graceful shutdown: new submissions are refused (503),
// admitted work runs to completion, result streams flush, the phase
// terminates and every rank exits its serve loop. Idempotent
// and safe from any goroutine (sciotod calls it from a signal handler).
func (d *Daemon) Drain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.ping()
}

// ping rings the gateway doorbell (non-blocking).
func (d *Daemon) ping() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// requeueLost re-queues every task still marked in flight after a phase
// that healed around a dead rank. Process returns only after global
// termination, and a live rank ships its burst before it goes passive, so
// post-collect a task can still be in flight for exactly one reason: the
// dead rank executed it (its durable completion is counted in
// SalvagedExecs) but died with the record in its burst. Serve kinds are
// pure computations, so re-running them is safe — the submission still
// gets every result instead of a 500 or a hung drain.
func (d *Daemon) requeueLost() {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, sub := range d.order {
		for i := range sub.tasks {
			if t := &sub.tasks[i]; t.phase == taskInFlight {
				t.phase = taskQueued
				d.inFlight--
				d.queue = append(d.queue, taskRef{sub: sub, idx: i})
				n++
			}
		}
	}
	if n > 0 {
		d.m.replayed.Add(int64(n))
		d.m.ingestQueue.Set(int64(len(d.queue)))
		d.cfg.Logf("sciotod: recovery: re-queued %d tasks whose results died with the failed rank", n)
	}
}

// satisfyOne applies one Satisfy to a deferred task. The call is counted
// before it is made, and the last one as a launch: with recovery armed a
// Satisfy that a fault unwinds still lands — owed by the collection until
// Process has healed the fault, or, unwound past its decrement, replayed
// with the task's record — so the gateway never issues one twice. Caller
// holds d.mu.
func (d *Daemon) satisfyOne(tc *core.TC, sub *submission, i int) {
	t := &sub.tasks[i]
	if t.applied++; t.applied == len(t.deps) {
		t.phase = taskInFlight
		d.deferred--
		d.inFlight++
		d.m.deferredWaiting.Set(int64(d.deferred))
	}
	tc.Satisfy(t.dep)
}

// deliver routes one completion record from rank: append to the
// submission's result log (unless cancelled; the result is kept as a
// slice of rec, which the caller must not reuse), note the dependents'
// satisfied prerequisites, finalize a completed submission. It returns
// the submission whose streams have something new. Caller holds d.mu.
func (d *Daemon) deliver(rec []byte, rank int, now time.Time) *submission {
	serial, idx := splitID(pgas.GetU64(rec))
	sub := d.bySerial[serial]
	if sub == nil || idx >= len(sub.tasks) {
		d.cfg.Logf("sciotod: dropping completion for unknown task %d[%d]", serial, idx)
		return nil
	}
	t := &sub.tasks[idx]
	if t.phase != taskInFlight {
		d.cfg.Logf("sciotod: duplicate completion for %s[%d] ignored", sub.id, idx)
		return nil
	}
	t.phase = taskDone
	d.inFlight--
	d.pending--
	sub.remaining--
	if sub.cancelled {
		d.m.discarded.Inc()
	} else {
		sub.results = append(sub.results, resultRec{
			Task:      idx,
			Kind:      kindName(t.kind),
			Rank:      rank,
			ElapsedUS: time.Duration(pgas.GetI64(rec[8:])).Microseconds(),
			Result:    rec[recHdr:len(rec):len(rec)],
		})
		sub.completed++
		d.m.completed.Inc()
		d.m.resultBytes.Add(int64(len(rec) - recHdr))
		d.m.turnaround.Observe(now.Sub(sub.created))
	}
	for _, di := range t.dependents {
		sub.tasks[di].satisfied++
		if sub.tasks[di].phase == taskDeferred {
			d.owed = append(d.owed, taskRef{sub, di})
		}
	}
	if sub.remaining == 0 {
		d.finalize(sub)
	}
	return sub
}
