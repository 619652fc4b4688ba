package serve

import (
	"fmt"
	"time"

	"scioto/internal/core"
)

// Lifecycle IDs. Every admitted task carries a durable 64-bit ID that
// travels with the descriptor through adds, steals, and deferred
// launches (core.Task.SetID): the submission serial in the high bits,
// the task's index within the submission in the low idxBits. Serial 0 is
// reserved so ID 0 can mean "not a serve task" in the completion hook.
const (
	idxBits      = 20
	maxTasksHard = 1 << idxBits
)

func packID(serial uint64, idx int) uint64 { return serial<<idxBits | uint64(idx) }

func splitID(id uint64) (serial uint64, idx int) {
	return id >> idxBits, int(id & (maxTasksHard - 1))
}

// taskPhase is one task's position in the ingest lifecycle.
type taskPhase uint8

const (
	taskQueued   taskPhase = iota // admitted, waiting for the gateway's next pump pass
	taskDeferred                  // in the deferred pool, waiting on dependencies
	taskInFlight                  // in the collection, result pending
	taskDone                      // result collected (or discarded after cancel)
	taskDropped                   // cancelled before reaching the runtime
)

// task is the gateway's record of one submitted task.
type task struct {
	kind       byte
	arg        uint64
	payload    []byte
	affinity   int32
	deps       []int // intra-submission prerequisite indices (all < own index)
	dependents []int // inverse edges, built at admission

	phase     taskPhase
	dep       core.Dep // valid while phase == taskDeferred
	satisfied int      // prerequisite completions observed
	applied   int      // Satisfy calls issued to the runtime
}

// due is how many Satisfy calls the runtime should have seen for a
// deferred t: one per completed prerequisite, or — the only way its pool
// slot frees — all of them once the submission is cancelled.
func (t *task) due(sub *submission) int {
	if sub.cancelled {
		return len(t.deps)
	}
	return t.satisfied
}

// submission is one client batch and its progress.
type submission struct {
	id        string
	serial    uint64
	tenant    string
	created   time.Time
	doneAt    time.Time
	tasks     []task
	remaining int // tasks not yet terminal
	completed int // results delivered
	dropped   int // tasks cancelled before execution
	cancelled bool
	results   []resultRec
	notify    chan struct{} // closed and replaced on every update
}

// resultRec is one completed task's record as streamed to the client.
// Result is raw bytes; encoding/json base64s it.
type resultRec struct {
	Task      int    `json:"task"`
	Kind      string `json:"kind"`
	Rank      int    `json:"rank"`
	ElapsedUS int64  `json:"elapsed_us"`
	Result    []byte `json:"result,omitempty"`
}

// bump wakes every stream blocked on this submission. Caller holds d.mu.
func (s *submission) bump() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// state reports the submission's coarse lifecycle state. Caller holds d.mu.
func (s *submission) state() string {
	switch {
	case s.cancelled:
		return "cancelled"
	case s.remaining == 0:
		return "done"
	default:
		return "running"
	}
}

// taskSpec is one task in the submit request body.
type taskSpec struct {
	Kind     string `json:"kind"`
	Arg      uint64 `json:"arg,omitempty"`
	Payload  []byte `json:"payload,omitempty"` // base64 in JSON
	Affinity *int32 `json:"affinity,omitempty"`
	Deps     []int  `json:"deps,omitempty"`
}

// submitReq is the submit request body.
type submitReq struct {
	Tenant string     `json:"tenant,omitempty"`
	Tasks  []taskSpec `json:"tasks"`
}

// validate checks a submit request against the daemon's limits. It
// reads only configuration, so it runs outside d.mu.
func (d *Daemon) validate(req *submitReq) error {
	if len(req.Tasks) == 0 {
		return fmt.Errorf("submission has no tasks")
	}
	if len(req.Tasks) > d.cfg.MaxTasksPerSubmit {
		return fmt.Errorf("submission has %d tasks, limit %d", len(req.Tasks), d.cfg.MaxTasksPerSubmit)
	}
	for i, ts := range req.Tasks {
		if _, ok := kindCode(ts.Kind); !ok {
			return fmt.Errorf("task %d: unknown kind %q", i, ts.Kind)
		}
		if len(ts.Payload) > d.cfg.MaxPayload {
			return fmt.Errorf("task %d: payload %dB exceeds limit %dB", i, len(ts.Payload), d.cfg.MaxPayload)
		}
		seen := make(map[int]bool, len(ts.Deps))
		for _, dep := range ts.Deps {
			if dep < 0 || dep >= i {
				return fmt.Errorf("task %d: dep %d out of range (deps must name earlier tasks)", i, dep)
			}
			if seen[dep] {
				return fmt.Errorf("task %d: duplicate dep %d", i, dep)
			}
			seen[dep] = true
		}
	}
	return nil
}

// admit applies admission control and, on success, registers the
// submission and queues its tasks for the gateway's next pump pass.
func (d *Daemon) admit(req *submitReq) (*submission, *admissionError) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	n := len(req.Tasks)

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return nil, &admissionError{status: 503, reason: "draining"}
	}
	if d.pending+n > d.cfg.MaxPending {
		d.m.rejected.Inc()
		return nil, &admissionError{
			status:     429,
			reason:     fmt.Sprintf("pending pool full (%d in flight, limit %d)", d.pending, d.cfg.MaxPending),
			retryAfter: 250 * time.Millisecond,
		}
	}
	b := d.bucketFor(tenant)
	if wait, ok := b.take(n, time.Now()); !ok {
		d.m.rejected.Inc()
		return nil, &admissionError{
			status:     429,
			reason:     fmt.Sprintf("tenant %q over admission rate", tenant),
			retryAfter: wait,
		}
	}

	d.serial++
	sub := &submission{
		id:        fmt.Sprintf("s-%06d", d.serial),
		serial:    d.serial,
		tenant:    tenant,
		created:   time.Now(),
		tasks:     make([]task, n),
		remaining: n,
		results:   make([]resultRec, 0, n),
		notify:    make(chan struct{}),
	}
	for i, ts := range req.Tasks {
		code, _ := kindCode(ts.Kind) // validated upstream
		t := &sub.tasks[i]
		t.kind = code
		t.arg = ts.Arg
		t.payload = ts.Payload
		t.affinity = core.AffinityLow
		if ts.Affinity != nil {
			t.affinity = *ts.Affinity
		}
		t.deps = ts.Deps
		for _, dep := range ts.Deps {
			sub.tasks[dep].dependents = append(sub.tasks[dep].dependents, i)
		}
		d.queue = append(d.queue, taskRef{sub, i})
	}
	d.subs[sub.id] = sub
	d.bySerial[sub.serial] = sub
	d.order = append(d.order, sub)
	d.pending += n
	d.m.pending.Set(int64(d.pending))
	d.m.ingestQueue.Set(int64(len(d.queue)))
	d.m.submissions.Inc()
	d.m.admitted.Add(int64(n))
	b.admitted.Add(int64(n))
	d.ping()
	return sub, nil
}

// cancel aborts a submission: still-queued tasks are dropped on the
// spot; dependency-parked tasks are scheduled for a Satisfy flush so
// their pool slots free up (their eventual results are discarded, as are
// results of tasks already in flight). Reports whether the submission
// exists and whether this call changed anything.
func (d *Daemon) cancel(id string) (found, changed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sub := d.subs[id]
	if sub == nil {
		return false, false
	}
	if sub.cancelled || sub.remaining == 0 {
		return true, false
	}
	sub.cancelled = true
	for i := range sub.tasks {
		t := &sub.tasks[i]
		switch t.phase {
		case taskQueued:
			t.phase = taskDropped
			sub.remaining--
			sub.dropped++
			d.pending--
			d.m.dropped.Inc()
		case taskDeferred:
			// Must run through the runtime to release its pool slot; the
			// gateway's next pump pass applies the outstanding satisfies
			// and the result is discarded on arrival.
			d.owed = append(d.owed, taskRef{sub, i})
		}
	}
	d.m.pending.Set(int64(d.pending))
	if sub.remaining == 0 {
		d.finalize(sub)
	}
	sub.bump()
	d.ping()
	return true, true
}

// finalize marks a submission terminal and evicts the oldest retained
// completed submissions beyond the RetainDone bound. Caller holds d.mu.
func (d *Daemon) finalize(sub *submission) {
	sub.doneAt = time.Now()
	d.done++
	for i := 0; d.done > d.cfg.RetainDone && i < len(d.order); {
		s := d.order[i]
		if s.remaining != 0 {
			i++
			continue
		}
		delete(d.subs, s.id)
		delete(d.bySerial, s.serial)
		d.order = append(d.order[:i], d.order[i+1:]...)
		d.done--
	}
}
