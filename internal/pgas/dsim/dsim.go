// Package dsim implements the pgas interface as a deterministic
// discrete-event simulation of a distributed-memory machine.
//
// Every simulated process runs in its own goroutine, but execution is
// cooperative: exactly one process holds the scheduler token at a time —
// always the runnable process with the smallest virtual clock (ties broken
// by rank) — so the simulation is single-threaded in effect and fully
// deterministic. There is no engine goroutine: a process that yields keeps
// the token while it is still the minimum, and otherwise hands it straight
// to the minimum of a heap of the other runnable processes.
//
// Correctness of the virtual-time semantics follows from the min-clock rule:
// a process performs a globally visible operation only while it holds the
// scheduler token, and it holds the token only while its clock is the
// global minimum. Hence all shared-state mutations are applied in
// non-decreasing virtual-time order, and a message sent at virtual time t
// can never be delivered "into the past" of any receiver: every other
// process's clock is already >= t when the send executes.
//
// Local, unshared work (Proc.Compute, private queue-slot writes, relaxed
// word operations) advances the local clock without yielding the token, so
// fine-grained task execution is cheap to simulate: a process only yields
// when it touches globally visible state. Relaxed reads
// observe shared state as of the process's last yield point, which models a
// relaxed memory system: they are hints that must be revalidated under a
// lock, exactly as in the real runtime.
//
// The cost model charges:
//
//   - LocalOpCost for an ordered operation on the process's own memory,
//   - Latency + PerByte*n for a one-sided operation on remote memory,
//   - MsgLatency + PerByte*n for two-sided message delivery,
//
// (a contended lock's back-off is charged by pgas.Front, through Charge)
// and scales Proc.Compute durations by a per-rank speed factor to model
// heterogeneous processors (the paper's half-Opteron, half-Xeon cluster).
package dsim

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"scioto/internal/pgas"
)

// Config parameterizes a simulated machine.
type Config struct {
	// NProcs is the number of simulated processes.
	NProcs int
	// Latency is the base virtual-time cost of a one-sided operation that
	// targets remote memory.
	Latency time.Duration
	// MsgLatency is the virtual-time delivery delay of a two-sided message.
	MsgLatency time.Duration
	// PerByte is the bandwidth term added per transferred byte.
	PerByte time.Duration
	// LocalOpCost is the cost of an ordered operation on local memory.
	LocalOpCost time.Duration
	// PollInterval is the cost charged per message poll.
	PollInterval time.Duration
	// Occupancy, when nonzero, models serialization at the target of
	// remote one-sided operations (NIC/memory-controller occupancy): each
	// remote operation against a process occupies that process's interface
	// for Occupancy + PerByte*n, and operations issued while it is busy
	// queue behind it, in issue order. This is what turns a shared global
	// counter into a hot spot at scale.
	Occupancy time.Duration
	// SpeedFactor, when non-nil, returns the computation cost multiplier
	// for a rank (1.0 = nominal, larger = slower processor).
	SpeedFactor func(rank int) float64
	// Seed seeds the per-process random sources.
	Seed int64
	// MaxVirtualTime aborts the simulation if any clock exceeds it
	// (a runaway guard); zero means no limit.
	MaxVirtualTime time.Duration
	// Survivable switches the failure model from abort-all to per-rank
	// containment: a rank death is delivered to each survivor exactly once
	// (as a *pgas.FaultError panic from its next yielding operation),
	// barriers disseminate over the live membership, and the dead rank's
	// memory stays reachable by every one-sided op, charged as any other
	// (a lock it held stays held until pgas.BreakLock). Deterministic:
	// deaths are registered when the dead rank gives up the token, a
	// fixed point in virtual time. Run returns nil when every surviving
	// rank finishes cleanly.
	Survivable bool
}

// withDefaults fills unset fields with the cluster calibration defaults.
func (c Config) withDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 4400 * time.Nanosecond
	}
	if c.MsgLatency == 0 {
		c.MsgLatency = 6 * time.Microsecond
	}
	if c.LocalOpCost == 0 {
		c.LocalOpCost = 80 * time.Nanosecond
	}
	if c.PollInterval == 0 {
		c.PollInterval = 1 * time.Microsecond
	}
	return c
}

type procState int

const (
	stateRunnable procState = iota
	stateWaiting            // blocked in Recv; woken by a matching send
	stateDone
)

type message struct {
	from    int
	tag     int32
	data    []byte
	arrival time.Duration
}

type world struct {
	cfg Config

	procs []*proc

	// ready holds the runnable procs that do not hold the token. Only the
	// token holder touches it (and the rest of the world's state); the
	// token moves over resumeCh.
	ready    readyHeap
	live     int           // procs not done
	aborting bool          // every proc that next takes the token unwinds
	done     chan struct{} // closed by the last proc to finish

	segs     pgas.Segments // the data segments' memory; Run releases it
	dataSegs [][][]byte
	wordSegs [][][]int64

	// busyUntil[r] is the virtual time until which process r's network
	// interface is occupied by remote operations (Occupancy model).
	busyUntil []time.Duration

	// Survivable-mode membership, mutated by the token holder. faultSeq
	// counts registered deaths; each proc acknowledges up to a sequence
	// number via SurviveFault, and yield() panics a fault clone once per
	// unacknowledged death.
	deadRanks []bool
	faultSeq  int64
	fault     *pgas.FaultError // the latest death not on another's fault (root attribution)

	err error
}

// abortPanic is panicked into process goroutines to unwind them when the
// simulation is aborted after another process failed.
type abortPanic struct{}

// NewWorld creates a simulated machine with the given configuration.
func NewWorld(cfg Config) pgas.World {
	if cfg.NProcs <= 0 {
		panic("dsim: NProcs must be positive")
	}
	return &world{cfg: cfg.withDefaults()}
}

func (w *world) NProcs() int { return w.cfg.NProcs }

// Run starts a fresh machine every time: no memory, membership, NIC horizon
// or error of an earlier run carries over. The large data segments are
// unmapped before Run returns, which ends the life of every Local slice.
func (w *world) Run(body func(p pgas.Proc)) error {
	n := w.cfg.NProcs
	*w = world{
		cfg:       w.cfg,
		procs:     make([]*proc, n),
		ready:     make(readyHeap, n),
		live:      n,
		done:      make(chan struct{}),
		busyUntil: make([]time.Duration, n),
		deadRanks: make([]bool, n),
	}
	defer w.segs.Release()
	defer w.recyclePending()
	for r := range w.procs {
		p := &proc{w: w, rank: r, resumeCh: make(chan struct{}), nb: *pending.Get().(*[]pgas.Op)}
		p.clk = pgas.NewClock(time.Time{}, &p.clock, w.cfg.Seed, r, w.cfg.SpeedFactor)
		p.clk.SetStep(w.cfg.LocalOpCost)
		w.procs[r], w.ready[r] = p, p // equal clocks in rank order: a heap
		go p.run(body)
	}
	w.ready.pop().resumeCh <- struct{}{}
	<-w.done
	if w.cfg.Survivable && w.err == nil && w.fault != nil {
		// Recovered run: every rank that exited with an error died of its
		// own *pgas.FaultError and one finished cleanly, so the survivors
		// healed around the death(s). One that died on another rank's
		// fault did not heal, and a plain panic is a failure, not a death.
		clean := false
		for _, p := range w.procs {
			if fe, ok := p.err.(*pgas.FaultError); p.err != nil && (!ok || fe.Rank != p.rank) {
				return w.fault
			}
			clean = clean || p.err == nil
		}
		if clean {
			return nil
		}
		return w.fault
	}
	return w.err
}

// pending keeps the procs' pending-op queues from one world to the next.
// A recovery reads a peer's journal with one NbLoad64 per word, so a queue
// that started empty in every world would be regrown, one zeroed large
// allocation after another, in every world that recovers.
var pending = sync.Pool{New: func() any { return new([]pgas.Op) }}

// recyclePending returns the procs' pending-op queues to the pool, once
// every body has ended. A rank that died may have left operations in its
// queue: they are dropped, and with them the buffers they reference.
func (w *world) recyclePending() {
	for _, p := range w.procs {
		clear(p.nb)
		nb := p.nb[:0]
		pending.Put(&nb)
	}
}

// run is a process goroutine: it waits for its first token, runs the body,
// and passes the token on when the body returns or unwinds.
func (p *proc) run(body func(p pgas.Proc)) {
	defer p.finish()
	<-p.resumeCh
	p.resumed()
	p.Bind(p)
	body(p)
}

// finish is what the token holder does when its body is done: record how
// it ended — a survivable death, or the error that aborts the world — and
// hand the token on, or tell Run that no process is left.
func (p *proc) finish() {
	if rec := recover(); rec != nil {
		switch v := rec.(type) {
		case abortPanic:
			// Cooperative shutdown, not a failure.
		case *pgas.FaultError:
			// Keep transport faults typed for errors.As.
			p.err = v
		default:
			buf := make([]byte, 16<<10)
			sn := runtime.Stack(buf, false)
			p.err = fmt.Errorf("dsim: rank %d panicked at vt=%v: %v\n%s",
				p.rank, p.clock, rec, buf[:sn])
		}
	}
	w := p.w
	p.state = stateDone
	w.live--
	if p.err != nil {
		if w.cfg.Survivable {
			w.registerDeath(p)
		} else if w.err == nil {
			w.err = p.err
			w.aborting = true
		}
	}
	if next := w.dispatch(p); next != nil {
		next.resumeCh <- struct{}{}
	} else {
		close(w.done)
	}
}

// less is the engine's one order: the smaller clock runs first, and of two
// equal clocks the lower rank.
func less(a, b *proc) bool {
	return a.clock < b.clock || a.clock == b.clock && a.rank < b.rank
}

// readyHeap is a binary min-heap of procs in less order. less is total
// (no two procs share a rank), so its minimum is unique and any correct
// heap yields the same schedule.
type readyHeap []*proc

func (h *readyHeap) push(p *proc) {
	*h = append(*h, p)
	q, i := *h, len(*h)-1
	for ; i > 0 && less(p, q[(i-1)/2]); i = (i - 1) / 2 {
		q[i] = q[(i-1)/2]
	}
	q[i] = p
}

func (h *readyHeap) pop() *proc {
	q := *h
	top, last := q[0], q[len(q)-1]
	if *h = q[:len(q)-1]; len(*h) > 0 {
		h.replaceTop(last)
	}
	return top
}

// replaceTop puts p in place of the minimum and sifts it down.
func (h readyHeap) replaceTop(p *proc) {
	i := 0
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], p) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = p
}

// dispatch picks who holds the token after p yields or finishes: p itself
// while it is runnable and below every ready proc, otherwise the minimum of
// the rest. nil means every process is done.
func (w *world) dispatch(p *proc) *proc {
	if p.state == stateRunnable {
		if len(w.ready) == 0 || less(p, w.ready[0]) {
			return p
		}
		next := w.ready[0]
		w.ready.replaceTop(p)
		return next
	}
	if len(w.ready) == 0 {
		if w.live == 0 {
			return nil
		}
		// No runnable process. All remaining live processes are blocked in
		// Recv: a communication deadlock (or the tail of an abort).
		if !w.aborting {
			w.err = w.deadlockError()
			w.aborting = true
		}
		for _, q := range w.procs {
			if q.state == stateWaiting {
				w.wake(q)
			}
		}
	}
	return w.ready.pop()
}

// wake makes a waiting proc runnable.
func (w *world) wake(p *proc) {
	p.state = stateRunnable
	w.ready.push(p)
}

// registerDeath records p's death in survivable mode: it bumps the fault
// sequence so every survivor observes it once, and wakes survivors parked
// in Recv so their next yield delivers the fault. A rank that dies on a
// clone of an earlier death (a cascade: the clone names the root rank) is
// registered too, so no survivor waits on it, while the world keeps the
// root's fault as its attribution.
func (w *world) registerDeath(p *proc) {
	fe, ok := p.err.(*pgas.FaultError)
	if !ok {
		fe = &pgas.FaultError{Rank: p.rank, Phase: "exit", Err: p.err}
	}
	w.deadRanks[p.rank] = true
	if fe.Rank == p.rank || w.fault == nil {
		w.fault = fe
	}
	w.faultSeq++
	for _, q := range w.procs {
		if q.state == stateWaiting {
			w.wake(q)
		}
	}
}

func (w *world) deadlockError() error {
	msg := "dsim: deadlock — all live processes blocked in Recv:"
	for _, p := range w.procs {
		if p.state == stateWaiting {
			msg += fmt.Sprintf(" [rank %d vt=%v from=%d tag=%d]", p.rank, p.clock, p.waitFrom, p.waitTag)
		}
	}
	return fmt.Errorf("%s", msg)
}
