// Package dsim implements the pgas interface as a deterministic
// discrete-event simulation of a distributed-memory machine.
//
// Every simulated process runs in its own goroutine, but execution is
// cooperative: a scheduler resumes exactly one process at a time — always the
// runnable process with the smallest virtual clock (ties broken by rank) —
// so the simulation is single-threaded in effect and fully deterministic.
//
// Correctness of the virtual-time semantics follows from the min-clock rule:
// a process performs a globally visible operation only while it holds the
// scheduler token, and it receives the token only when its clock is the
// global minimum. Hence all shared-state mutations are applied in
// non-decreasing virtual-time order, and a message sent at virtual time t
// can never be delivered "into the past" of any receiver: every other
// process's clock is already >= t when the send executes.
//
// Local, unshared work (Proc.Compute, private queue-slot writes, relaxed
// word operations) advances the local clock without yielding the token, so
// fine-grained task execution is cheap to simulate: a process only pays a
// scheduler handshake when it touches globally visible state. Relaxed reads
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
	"math/rand"
	"runtime"
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
	// for Occupancy + PerByte*n, and operations arriving while it is busy
	// queue behind it. This is what turns a shared global counter into a
	// hot spot at scale.
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
	// memory stays readable through the pgas.Resilient salvage operations
	// (a lock it held stays held until pgas.BreakLock). Deterministic:
	// deaths are registered by the engine at the dead rank's final yield, a
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

// resumeMsg is sent from the engine to a process goroutine.
type resumeMsg struct {
	abort bool
}

type message struct {
	from    int
	tag     int32
	data    []byte
	arrival time.Duration
}

type world struct {
	cfg Config

	procs []*proc

	dataSegs [][][]byte
	wordSegs [][][]int64

	// busyUntil[r] is the virtual time until which process r's network
	// interface is occupied by remote operations (Occupancy model).
	busyUntil []time.Duration

	// Survivable-mode membership. Mutated only by the engine (between
	// yields) and read by procs holding the scheduler token, so access is
	// ordered by the token handshake. faultSeq counts registered deaths;
	// each proc acknowledges up to a sequence number via SurviveFault, and
	// yield() panics a fault clone once per unacknowledged death.
	deadRanks []bool
	faultSeq  int64
	fault     *pgas.FaultError // latest registered death (root attribution)

	err error
}

// errAborted is panicked into process goroutines to unwind them when the
// simulation is aborted after another process failed.
type abortPanic struct{}

// NewWorld creates a simulated machine with the given configuration.
func NewWorld(cfg Config) pgas.World {
	if cfg.NProcs <= 0 {
		panic("dsim: NProcs must be positive")
	}
	cfg = cfg.withDefaults()
	w := &world{cfg: cfg}
	w.busyUntil = make([]time.Duration, cfg.NProcs)
	w.deadRanks = make([]bool, cfg.NProcs)
	return w
}

func (w *world) NProcs() int { return w.cfg.NProcs }

func (w *world) Run(body func(p pgas.Proc)) error {
	n := w.cfg.NProcs
	w.procs = make([]*proc, n)
	yieldCh := make(chan int) // proc -> engine: "rank r has yielded"
	for r := 0; r < n; r++ {
		speed := 1.0
		if w.cfg.SpeedFactor != nil {
			speed = w.cfg.SpeedFactor(r)
		}
		w.procs[r] = &proc{
			w:        w,
			rank:     r,
			speed:    speed,
			resumeCh: make(chan resumeMsg),
			yieldCh:  yieldCh,
			rng:      rand.New(rand.NewSource(w.cfg.Seed*7919 + int64(r) + 1)),
		}
	}
	for r := 0; r < n; r++ {
		p := w.procs[r]
		go func() {
			defer func() {
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
				p.state = stateDone
				p.yieldCh <- p.rank
			}()
			// Wait for the first token before touching anything.
			m := <-p.resumeCh
			if m.abort {
				panic(abortPanic{})
			}
			p.Bind(p)
			body(p)
		}()
	}
	return w.schedule(yieldCh)
}

// schedule is the engine loop: repeatedly resume the runnable process with
// the minimum clock and wait for it to yield.
func (w *world) schedule(yieldCh chan int) error {
	live := w.cfg.NProcs
	aborting := false
	for live > 0 {
		// Pick the runnable process with the smallest (clock, rank).
		var next *proc
		for _, p := range w.procs {
			if p.state != stateRunnable {
				continue
			}
			if next == nil || p.clock < next.clock {
				next = p
			}
		}
		if next == nil {
			// No runnable process. All remaining live processes are
			// blocked in Recv: a communication deadlock (or the tail of
			// an abort).
			if !aborting {
				w.err = w.deadlockError()
				aborting = true
			}
			for _, p := range w.procs {
				if p.state == stateWaiting {
					p.state = stateRunnable
					p.abort = true
				}
			}
			continue
		}
		if w.cfg.MaxVirtualTime > 0 && next.clock > w.cfg.MaxVirtualTime && !aborting {
			w.err = fmt.Errorf("dsim: virtual time %v exceeded MaxVirtualTime %v", next.clock, w.cfg.MaxVirtualTime)
			aborting = true
		}
		if aborting {
			next.abort = true
		}
		next.resumeCh <- resumeMsg{abort: next.abort}
		r := <-yieldCh
		p := w.procs[r]
		if p.state == stateDone {
			live--
			if p.err != nil {
				if w.cfg.Survivable {
					w.registerDeath(p)
				} else if w.err == nil {
					w.err = p.err
					aborting = true
				}
			}
		}
	}
	if w.cfg.Survivable && w.err == nil && w.fault != nil {
		// Recovered run: every rank that exited with an error is a
		// registered death, so the survivors healed around it.
		for _, p := range w.procs {
			if p.err != nil && !w.deadRanks[p.rank] {
				return w.fault
			}
		}
		return nil
	}
	return w.err
}

// registerDeath records a rank death in survivable mode: a fresh death
// (one not already attributed to an earlier-registered dead rank — the
// cascade of survivors dying on unrecoverable clones re-reports the same
// root rank) bumps the fault sequence so every survivor observes it once
// and wakes survivors parked in Recv so their next yield delivers the fault.
func (w *world) registerDeath(p *proc) {
	fe, ok := p.err.(*pgas.FaultError)
	if !ok {
		fe = &pgas.FaultError{Rank: p.rank, Phase: "exit", Err: p.err}
	}
	if fe.Rank < 0 || fe.Rank >= w.cfg.NProcs || w.deadRanks[fe.Rank] {
		return
	}
	w.deadRanks[fe.Rank] = true
	w.fault = fe
	w.faultSeq++
	for _, q := range w.procs {
		if q.state == stateWaiting {
			q.state = stateRunnable
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
