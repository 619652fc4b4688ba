// Package faulty wraps any pgas transport with deterministic, seed-driven
// fault injection, so the runtime's failure paths are unit-testable on the
// in-process transports (shm, dsim) as well as on tcp.
//
// Wrap composes over a World: every Proc handed to the SPMD body is
// wrapped, and each communication operation consults a per-rank
// deterministic random stream to decide whether to inject a fault before
// delegating to the real transport (a lock operation is the CAS64 it is
// built on — pgas/lock.go — and a barrier is the Sends and Recvs it is
// built on — pgas/barrier.go). Three fault classes are supported:
//
//   - Delayed frames: the operation stalls for a bounded, seed-determined
//     real-time duration before executing. Delays must be invisible to
//     program results — the conformance suite runs under delay-only
//     injection to prove it.
//   - Dropped frames: the operation panics with a *pgas.FaultError
//     attributed to the target rank (phase "injected-drop"), modeling a
//     lost frame whose deadline expired.
//   - One-shot rank crash: the CrashRank's CrashAfterOps-th operation
//     panics with a *pgas.FaultError attributed to the crashing rank
//     itself (phase "injected-crash"), modeling the process dying
//     mid-operation.
//
// Injection is deterministic: rank r's fault stream depends only on
// (Seed, r) and the sequence of operations rank r issues, so a failing
// schedule replays exactly. The wrapper holds no cross-rank state, which
// is what lets it compose over the tcp transport, where each rank's
// wrapped Proc lives in a separate OS process.
//
// Purely local accessors (Rank, NProcs, Local, LocalWords, Clock),
// collective allocation and Flush are never faulted: faults model the
// network, not the local heap. They are not even intercepted — the wrapper
// embeds the kernel below it and overrides only what it faults, so those
// calls are the inner kernel's own methods. The relaxed word ops and the
// clock methods (Compute, Charge, Now, Rand) are its Front's, over the
// inner kernel's LocalWords and Clock, so they see the transport's words
// and clock.
package faulty

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"scioto/internal/pgas"
)

// NoCrash disables crash injection when assigned to Config.CrashRank.
const NoCrash = -1

// Config parameterizes the injected faults. The zero value (with
// CrashRank normalized via Normalize or Wrap) injects nothing.
type Config struct {
	// Seed drives every per-rank fault stream. Worlds with equal seeds
	// and equal operation sequences inject identical faults.
	Seed int64
	// DelayProb is the probability in [0,1] that a communication
	// operation is delayed by up to MaxDelay.
	DelayProb float64
	// MaxDelay bounds an injected delay. Zero disables delays.
	MaxDelay time.Duration
	// DropProb is the probability in [0,1] that a communication
	// operation targeting a remote rank "loses its frame": the op panics
	// with a *pgas.FaultError naming the target.
	DropProb float64
	// CrashRank selects the rank whose CrashAfterOps-th operation
	// crashes it. NoCrash (or any negative value) disables.
	CrashRank int
	// CrashAfterOps is the 1-based operation count at which CrashRank
	// crashes. Zero means "first operation".
	CrashAfterOps int64
	// Observe, when non-nil, is called once per injected fault, before
	// the fault takes effect (before the panic for drops and crashes,
	// before the sleep for delays). kind is one of "drop", "crash",
	// "delay"; now is the
	// observing rank's transport clock; target is the rank the faulted
	// operation addressed. The observability layer hooks this to count
	// injected faults and stamp them into the rank's trace. Observe is
	// not an environment knob: it is wired programmatically by the
	// facade, and runs on the rank's own goroutine, so it may use
	// per-rank state without synchronization.
	Observe func(now time.Duration, rank int, kind, op string, target int)
}

// Environment knobs, read by FromEnv. Each maps to the Config field of
// the same name; durations use time.ParseDuration syntax.
const (
	EnvSeed          = "SCIOTO_FAULT_SEED"
	EnvDelayProb     = "SCIOTO_FAULT_DELAY_PROB"
	EnvMaxDelay      = "SCIOTO_FAULT_MAX_DELAY"
	EnvDropProb      = "SCIOTO_FAULT_DROP_PROB"
	EnvCrashRank     = "SCIOTO_FAULT_CRASH_RANK"
	EnvCrashAfterOps = "SCIOTO_FAULT_CRASH_AFTER"
)

// FromEnv assembles a Config from the SCIOTO_FAULT_* environment
// variables. ok reports whether any knob was set; when none is, callers
// should not wrap at all. Malformed values are reported and ignored so a
// typo cannot silently disable a chaos run's other knobs.
func FromEnv() (cfg Config, ok bool) {
	cfg.CrashRank = NoCrash
	set := false
	num := func(name string, dst *int64) {
		if v := os.Getenv(name); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faulty: ignoring malformed %s=%q: %v\n", name, v, err)
				return
			}
			*dst = n
			set = true
		}
	}
	prob := func(name string, dst *float64) {
		if v := os.Getenv(name); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				fmt.Fprintf(os.Stderr, "faulty: ignoring malformed %s=%q (want probability in [0,1])\n", name, v)
				return
			}
			*dst = f
			set = true
		}
	}
	dur := func(name string, dst *time.Duration) {
		if v := os.Getenv(name); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faulty: ignoring malformed %s=%q: %v\n", name, v, err)
				return
			}
			*dst = d
			set = true
		}
	}
	num(EnvSeed, &cfg.Seed)
	prob(EnvDelayProb, &cfg.DelayProb)
	dur(EnvMaxDelay, &cfg.MaxDelay)
	prob(EnvDropProb, &cfg.DropProb)
	var crash int64 = NoCrash
	num(EnvCrashRank, &crash)
	cfg.CrashRank = int(crash)
	num(EnvCrashAfterOps, &cfg.CrashAfterOps)
	return cfg, set
}

// Wrap composes fault injection over an existing world. The returned
// World delegates Run to the inner world with every Proc wrapped.
func Wrap(w pgas.World, cfg Config) pgas.World {
	return &world{inner: w, cfg: cfg}
}

type world struct {
	inner pgas.World
	cfg   Config
}

func (w *world) NProcs() int { return w.inner.NProcs() }

func (w *world) Run(body func(p pgas.Proc)) error {
	return w.inner.Run(func(inner pgas.Proc) {
		p := &proc{
			Kernel: inner,
			cfg:    w.cfg,
			rng:    rand.New(rand.NewSource(w.cfg.Seed*104729 + int64(inner.Rank()) + 17)),
		}
		p.Bind(p)
		body(p)
	})
}

// proc wraps one rank's handle: the embedded Kernel is the layer below,
// and only the operations that can fault are overridden — the typed
// one-sided methods reach Issue through the Front, everything purely
// local is the inner kernel's own method. It is used only from the
// goroutine that received it, so the rng and op counter need no
// synchronization.
type proc struct {
	pgas.Front
	pgas.Kernel
	cfg Config
	rng *rand.Rand
	ops int64
}

var _ pgas.Proc = (*proc)(nil)

// Unwrap exposes the wrapped layer to pgas.Find, which is how the inner
// transport's capabilities (pgas.Resilient, trace.Attacher) stay reachable.
// The salvage path is therefore never fault-injected: it models
// post-mortem memory access, not live network traffic, and runs during
// recovery when a second injected fault would just re-kill the healer.
func (p *proc) Unwrap() pgas.Kernel { return p.Kernel }

// observe reports one injected fault to the configured observer, just
// before the fault takes effect.
func (p *proc) observe(kind, op string, target int) {
	if p.cfg.Observe != nil {
		p.cfg.Observe(p.Now(), p.Rank(), kind, op, target)
	}
}

// inject runs the fault schedule for one communication operation: crash
// first (the process dies before the frame leaves), then drop, then
// delay. target is the rank the operation addresses; detail renders the
// operation with its operands and is only called when a fault fires.
func (p *proc) inject(target int, op string, detail func() string) {
	p.ops++
	if p.cfg.CrashRank == p.Rank() && p.ops >= max(p.cfg.CrashAfterOps, 1) {
		p.observe("crash", op, p.Rank())
		panic(&pgas.FaultError{
			Rank:  p.Rank(),
			Op:    detail(),
			Phase: "injected-crash",
			Err:   fmt.Errorf("faulty: rank %d crashed at op %d (seed %d)", p.Rank(), p.ops, p.cfg.Seed),
		})
	}
	if p.cfg.DropProb > 0 && target != p.Rank() && p.rng.Float64() < p.cfg.DropProb {
		p.observe("drop", op, target)
		panic(&pgas.FaultError{
			Rank:  target,
			Op:    detail(),
			Phase: "injected-drop",
			Err:   fmt.Errorf("faulty: frame to rank %d dropped at op %d (seed %d)", target, p.ops, p.cfg.Seed),
		})
	}
	if p.cfg.MaxDelay > 0 && p.cfg.DelayProb > 0 && p.rng.Float64() < p.cfg.DelayProb {
		p.observe("delay", op, target)
		// 1+Int63n keeps the delay nonzero so "delayed" always means
		// something observable in wall-clock traces.
		time.Sleep(time.Duration(1 + p.rng.Int63n(int64(p.cfg.MaxDelay))))
	}
}

// Ops reports the number of fault-eligible operations p has issued so
// far, when a faulty wrapper is among p's layers (0 otherwise). Chaos
// tests use it to pin CrashAfterOps values inside the execution window of
// interest instead of guessing at op counts.
func Ops(p pgas.Proc) int64 {
	if fp, ok := pgas.Find[*proc](p); ok {
		return fp.ops
	}
	return 0
}

// Communication operations: inject, then delegate.

// Issue injects at issue time for blocking and non-blocking operations
// alike — the fault stream sees the same operation sequence whether a
// program uses blocking or non-blocking forms, so an injected crash/drop
// schedule is insensitive to pipelining. Flush is a completion point, not
// a new operation, and is the inner kernel's own.
func (p *proc) Issue(op *pgas.Op) pgas.Nb {
	p.inject(op.Target, op.Name(), op.String)
	return p.Kernel.Issue(op)
}

func (p *proc) Send(to int, tag int32, data []byte) {
	p.inject(to, "Send", func() string { return fmt.Sprintf("Send(to=%d, tag=%d, n=%d)", to, tag, len(data)) })
	p.Kernel.Send(to, tag, data)
}

func (p *proc) Recv(from int, tag int32) ([]byte, int) {
	// Receives are local mailbox pops; only the delay class applies
	// (a delayed matching frame), never drops or crash accounting.
	if p.cfg.MaxDelay > 0 && p.cfg.DelayProb > 0 && p.rng.Float64() < p.cfg.DelayProb {
		p.observe("delay", "Recv", from)
		time.Sleep(time.Duration(1 + p.rng.Int63n(int64(p.cfg.MaxDelay))))
	}
	return p.Kernel.Recv(from, tag)
}
