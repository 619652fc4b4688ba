// Package pgas defines the one-sided communication interface that the Scioto
// runtime and its applications are written against.
//
// The interface mirrors the subset of ARMCI that the original Scioto
// implementation uses: a symmetric heap of remotely accessible memory
// segments, contiguous one-sided Get/Put transfers, atomic word operations
// (fetch-and-add, compare-and-swap, swap), remote locks, barriers, an
// all-reduce, and a small two-sided message layer (standing in for MPI
// point-to-point, used by the UTS-MPI work-stealing baseline, and carrying
// the two collectives).
//
// Two interfaces split the work. Proc is what a SPMD body calls. Kernel is
// what a transport implements: 12 methods, in which every one-sided
// operation, blocking or not, is one Op descriptor passed to Issue. Front
// derives the rest of Proc from a Kernel, once: the typed one-sided
// methods; the owner's relaxed word ops, sync/atomic on the slice
// LocalWords returns; the remote locks, an algorithm over CAS64 (lock.go); the
// collectives, a dissemination barrier and a recursive-doubling all-reduce
// over Send and Recv (barrier.go, allreduce.go); and
// time and randomness — a kernel hands out its rank's Clock (clock.go),
// and Front's Compute, Charge, Now and Rand run over it. None of these is
// a transport primitive. The wrappers (pgas/faulty, pgas/instr) are
// Kernels that embed the one below and override only the operations they
// act on; an optional capability of the transport (Resilient,
// trace.Attacher) is found behind them by Find.
//
// Four transports implement the Kernel:
//
//   - pgas/shm: real concurrency. Every simulated process is a goroutine and
//     all operations are performed with real atomics and mutexes. Optionally
//     a calibrated latency is injected on remote operations. This transport
//     is used for correctness testing (including under the race detector)
//     and for measuring the true cost of individual operations.
//
//   - pgas/dsim: deterministic discrete-event simulation in virtual time.
//     Every process is a goroutine scheduled cooperatively in virtual-time
//     order. Remote operations charge a configurable latency and bandwidth
//     cost, and per-process speed factors model heterogeneous clusters. This
//     transport reproduces the paper's scaling experiments (up to 512
//     processes) on any host.
//
//   - pgas/ipc: real distribution on one host, zero-copy. Every process is
//     a separate OS process (launched by re-executing the current binary)
//     and all of them mmap one shared file holding every rank's symmetric
//     heap plus a control region, so one-sided operations are plain copies
//     and atomics on the remote heap — no frames and no syscalls on the
//     data path. The niche is co-hosted ranks: shm's cost model with tcp's
//     process isolation.
//
//   - pgas/tcp: real distribution. Every process is a separate OS process
//     (launched by re-executing the current binary) and all remote
//     operations travel over TCP as length-prefixed request/reply frames,
//     applied to the owner's symmetric heap by a per-process service
//     goroutine — the ARMCI "data server" pattern. This transport turns
//     the runtime into an actually distributed system.
//
// Memory model. Each process owns, for every collectively allocated segment,
// a local instance of that segment (a "symmetric" allocation, as in ARMCI or
// SHMEM). A datum is addressed by the triple (process, segment, offset).
// Data segments hold bytes and are accessed with bulk Get/Put/AccF64; word
// segments hold 64-bit integers and are accessed with atomic operations.
// Bulk data operations are not atomic with respect to one another except as
// documented; callers synchronize with locks, exactly as ARMCI programs do.
// Every one-sided operation but AccF64 also has a non-blocking form
// (NbGet, NbPut, NbLoad64, NbStore64, NbFetchAdd64, NbCAS64) returning a
// handle completed by Wait/Flush; see the Proc interface for the overlap
// and ordering rules and Op for what a transport may do with the Nb flag.
//
// Failure model. A transport operation that cannot complete — the target
// process died, a frame was lost, a deadline expired — has no meaningful
// local recovery in a SPMD program, so Kernel methods report such failures by
// panicking with a *FaultError that attributes the fault to a rank and
// names the operation and phase in progress. World.Run recovers the panic
// and returns the *FaultError. What is tolerated differs per transport:
// shm and dsim share one address space, so only application panics occur
// there (a rank's death wakes the siblings parked in its Recv, a barrier's
// included); tcp detects peer death and converts it into a prompt,
// rank-attributed FaultError on every surviving rank. The pgas/faulty
// wrapper injects these failures deterministically on any transport so
// failure paths are unit-testable.
package pgas

import (
	"math/rand"
	"runtime"
	"time"
)

// AnySource may be passed as the source rank to Recv and TryRecv to accept a
// message from any sender.
const AnySource = -1

// Seg identifies a collectively allocated memory segment. Segment handles
// are small integers assigned in collective allocation order, so every
// process holds the same handle for the same logical segment.
type Seg int

// Nb identifies a pending non-blocking one-sided operation issued by a
// Proc, in the style of ARMCI's armci_hdl_t. Handles are only meaningful
// to the Proc that issued them and only until the operation completes.
type Nb uint64

// NbDone is the handle of an operation that completed at issue time (a
// self-targeting operation, or any operation on a transport that completes
// inline). Wait(NbDone) returns immediately.
const NbDone Nb = 0

// LockID identifies a collectively allocated lock. Each process hosts one
// instance of every lock; Lock(p, id) acquires the instance hosted on
// process p. A lock is a word segment of one cell (lock.go), so a LockID is
// that segment's handle.
type LockID int

// World represents a group of processes executing a SPMD program.
type World interface {
	// NProcs reports the number of processes in the world.
	NProcs() int

	// Run launches the SPMD body on every process and returns once all
	// processes have returned from it. It returns the first error produced
	// by a panicking process, or nil. When the failure is a transport
	// fault (peer death, lost frame, deadline), the returned error carries
	// a *FaultError in its chain; see AsFault. On the in-process kernels
	// (shm, dsim) every Run starts a fresh machine: no segment, message,
	// membership or error of an earlier run of the same world carries over.
	Run(body func(p Proc)) error
}

// Kernel is the transport SPI: the one interface a transport or a wrapper
// implements. Everything else a SPMD body calls — the typed one-sided
// methods of Proc, handle numbering, Wait, the clock's methods — is
// derived from it once, by Front — the collectives too, over Send and Recv.
// Adding a transport means implementing these 12 methods; see DESIGN.md
// "Transports" for the contract of each group.
//
// A Kernel must only be used from the goroutine that received it from
// World.Run.
type Kernel interface {
	// Rank reports this process's rank in [0, NProcs).
	Rank() int
	// NProcs reports the number of processes in the world.
	NProcs() int

	// AllocData collectively allocates a data segment of nbytes bytes on
	// every process and returns its handle. All processes must call
	// AllocData with equal sizes in the same order.
	AllocData(nbytes int) Seg
	// AllocWords collectively allocates a word segment of nwords 64-bit
	// cells on every process and returns its handle.
	AllocWords(nwords int) Seg
	// Local returns this process's own instance of data segment seg for
	// direct access. The caller must guarantee, at the application
	// protocol level, that no remote operation concurrently accesses the
	// bytes it touches.
	//
	// The slice is stable: every call for seg returns the same backing
	// array, length and capacity for the life of the world — across
	// barriers and later allocations, until Run returns (dsim unmaps its
	// large segments then) — so a caller may resolve it once
	// (pgastest's LocalStable case). Keeping it does not widen what it may
	// touch: that is still the protocol's to decide, and the localescape
	// lint asks for a justified exemption wherever a slice is kept.
	Local(seg Seg) []byte
	// LocalWords returns this process's own instance of word segment seg,
	// under Local's contract: stable for the life of the world, never
	// faulted, never timed. Its cells are shared with remote word ops, so
	// only sync/atomic touches them. Front resolves it once per segment for
	// RelaxedLoad64 and RelaxedStore64; the relaxedword lint flags a call
	// outside package pgas, where the slice would bypass its word rules.
	LocalWords(seg Seg) []int64

	// Issue performs the one-sided operation op describes (see Op). A
	// blocking op (op.Nb unset) is complete when Issue returns and the
	// result is NbDone. A non-blocking op may instead stay pending until
	// the next Flush, reported by a result other than NbDone; until then
	// op.Buf and *op.Out belong to the transport. The callee must not
	// retain op itself past returning: the caller reuses the descriptor.
	Issue(op *Op) Nb
	// Flush blocks until every pending non-blocking operation issued by
	// this process has completed.
	Flush()

	// Send delivers data (copied) to process to with the given tag.
	Send(to int, tag int32, data []byte)
	// Recv blocks until a message with the given tag from the given source
	// (or AnySource) is available and returns its payload and source rank.
	Recv(from int, tag int32) (data []byte, source int)
	// TryRecv is the non-blocking form of Recv; ok reports whether a
	// message was available.
	TryRecv(from int, tag int32) (data []byte, source int, ok bool)

	// Clock returns this process's clock, the one every layer of its
	// handle shares; Front's Compute, Charge, Now and Rand run over it.
	Clock() *Clock
}

// Proc is the per-process handle through which a SPMD body performs all
// communication: the Kernel plus the typed one-sided operations, which
// Front implements once over Kernel.Issue. Application and runtime code
// calls the typed methods; Issue is the level transports and wrappers
// meet at. A Proc must only be used from the goroutine that received it
// from World.Run.
type Proc interface {
	Kernel

	// Barrier blocks until every live process has entered the barrier: a
	// dissemination barrier over Send and Recv (barrier.go), so its cost
	// on dsim is ~log2(P) message latencies of virtual time.
	Barrier()
	// AllReduce combines every live process's vec with op and leaves the
	// result in vec on every one of them: recursive doubling over Send and
	// Recv (allreduce.go), ~log2(P) message latencies, like the barrier,
	// whose semantics it has — no process returns before every live one
	// has entered. Every process passes a vector of the same length; op
	// folds in into acc, must not keep in, and must be commutative and
	// associative, which makes the result identical on every process.
	AllReduce(vec []int64, op func(acc, in []int64))

	// RelaxedLoad64 reads word idx of this process's own instance of seg
	// without establishing a global ordering. It is intended for owner-side
	// fast paths on words that remote processes either never write or that
	// the caller treats as a hint to be re-validated under a lock.
	RelaxedLoad64(seg Seg, idx int) int64
	// RelaxedStore64 writes word idx of this process's own instance of seg
	// without establishing a global ordering. It must only be used for
	// words that remote processes never write.
	RelaxedStore64(seg Seg, idx int, val int64)

	// Compute models d units of local computation: on a virtual clock
	// (dsim) the process's time advances by d scaled by its speed factor;
	// on a wall clock the process spins for that long.
	Compute(d time.Duration)
	// Charge accounts d units of local bookkeeping cost without performing
	// work: a virtual clock advances (scaled by the speed factor); on a
	// wall clock it is a no-op, because the real bookkeeping being modeled
	// already consumed real time. Runtime-internal code uses Charge so that
	// modeled costs appear in virtual-time results without distorting
	// wall-clock measurements.
	Charge(d time.Duration)
	// Now reports elapsed time since World.Run began: virtual time on
	// dsim, wall-clock time on the other transports.
	Now() time.Duration
	// Rand returns this process's deterministic random source.
	Rand() *rand.Rand

	// Get copies len(dst) bytes starting at offset off of data segment seg
	// on process proc into dst.
	Get(dst []byte, proc int, seg Seg, off int)
	// Put copies src into data segment seg on process proc at offset off.
	Put(proc int, seg Seg, off int, src []byte)
	// AccF64 atomically adds vals element-wise into the float64 values
	// stored (little-endian IEEE-754, as codec.go's PutF64Slice and
	// GetF64Slice lay them out) at byte offset off of data segment seg on
	// process proc. The accumulate is atomic with
	// respect to other AccF64 calls targeting the same process, mirroring
	// ARMCI_Acc.
	AccF64(proc int, seg Seg, off int, vals []float64)

	// Load64 atomically reads word idx of word segment seg on process proc.
	Load64(proc int, seg Seg, idx int) int64
	// Store64 atomically writes word idx of word segment seg on process proc.
	Store64(proc int, seg Seg, idx int, val int64)
	// FetchAdd64 atomically adds delta to the word and returns the previous
	// value.
	FetchAdd64(proc int, seg Seg, idx int, delta int64) int64
	// CAS64 atomically compares-and-swaps the word, reporting success.
	CAS64(proc int, seg Seg, idx int, old, new int64) bool

	// AllocLock collectively allocates a lock (one instance per process).
	AllocLock() LockID
	// Lock acquires lock id on process proc, retrying with back-off until
	// it is free. Locks are not reentrant.
	Lock(proc int, id LockID)
	// TryLock attempts to acquire lock id on process proc once, reporting
	// success.
	TryLock(proc int, id LockID) bool
	// Unlock releases lock id on process proc; it panics when the caller
	// does not hold it.
	Unlock(proc int, id LockID)

	// Non-blocking one-sided operations, mirroring ARMCI_NbGet/NbPut.
	// Each Nb method initiates the transfer and returns a handle; the
	// operation is guaranteed complete only once Wait on its handle or
	// Flush has returned. Until then the caller must not read an output
	// location (dst of NbGet, out of NbLoad64, old of NbFetchAdd64, swapped
	// of NbCAS64) and must not modify an input buffer (src of NbPut).
	//
	// Ordering rules (the contract the split queue's pipelined steal
	// depends on; see DESIGN.md):
	//
	//   - Operations issued by one process to the SAME target rank are
	//     applied at the target in issue order, including relative to this
	//     process's blocking operations (per origin-target FIFO, the order
	//     of frames on one connection).
	//   - No ordering holds between operations to DIFFERENT targets until
	//     Wait or Flush returns.
	//   - Wait(h) completes h; it may complete other pending operations as
	//     well. Flush completes every pending operation of this Proc.
	//
	// Transports may complete an operation at issue time and return NbDone;
	// shm does so for every operation, keeping race-detector interleavings
	// identical to the blocking path.

	// NbGet initiates a Get of len(dst) bytes into dst.
	NbGet(dst []byte, proc int, seg Seg, off int) Nb
	// NbPut initiates a Put of src.
	NbPut(proc int, seg Seg, off int, src []byte) Nb
	// NbLoad64 initiates an atomic read whose result is stored into *out
	// at completion.
	NbLoad64(proc int, seg Seg, idx int, out *int64) Nb
	// NbStore64 initiates an atomic write.
	NbStore64(proc int, seg Seg, idx int, val int64) Nb
	// NbFetchAdd64 initiates an atomic fetch-and-add; the previous value is
	// stored into *old at completion.
	NbFetchAdd64(proc int, seg Seg, idx int, delta int64, old *int64) Nb
	// NbCAS64 initiates an atomic compare-and-swap; 1 or 0, as it did or
	// did not swap, is stored into *swapped at completion.
	NbCAS64(proc int, seg Seg, idx int, old, new int64, swapped *int64) Nb
	// Wait blocks until the operation identified by h has completed.
	Wait(h Nb)
}

// Resilient is the optional fault-survival extension of Proc. A transport
// that can outlive the death of a rank — marking it dead and reporting the
// live membership the collectives run over — implements Resilient on its
// Kernel type; the runtime and Front's collectives look it up with Find,
// which sees through the wrappers. Once SurviveFault has acknowledged a
// death, the dead rank's symmetric heap stays addressable by every
// ordinary one-sided op, because it is quiescent. The core runtime's
// work-replay recovery requires it; on a transport without it (or one
// that returns ok=false) a fault stays fatal and the job unwinds as
// before, and the collectives run over every rank.
type Resilient interface {
	// SurviveFault transitions the world into a recovery epoch after fe:
	// the faulted rank is marked dead and subsequent Barriers and
	// AllReduces synchronize only the live ranks (a lock the dead rank held stays held until a
	// survivor calls BreakLock on it). It returns the live-membership
	// bitmap (indexed by rank) and ok=true when the transport supports
	// survival; ok=false means the caller must treat the fault as fatal.
	// Idempotent: every surviving rank calls it with the same fault and
	// receives the same membership.
	SurviveFault(fe *FaultError) (alive []bool, ok bool)

	// Membership reports the fault epoch this rank has acknowledged — the
	// number of deaths its SurviveFault calls took in, 0 before any — and
	// the live bitmap (indexed by rank) as of now; nil means every rank.
	// Front's collectives rebuild their member list when the epoch changes.
	Membership() (alive []bool, epoch int64)
}

// Transport names a pgas implementation, for command-line selection.
type Transport string

// Transports selectable by tools and benchmarks.
const (
	TransportSHM  Transport = "shm"
	TransportDSim Transport = "dsim"
	TransportIPC  Transport = "ipc"
	TransportTCP  Transport = "tcp"
)

// Spin busy-waits for d. The wall-clock transports (shm, ipc, tcp) use it
// for Proc.Compute and modeled delays: busy waiting, rather than sleeping,
// models a process occupied with computation and is accurate at
// microsecond granularity where timer sleeps are not.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// Backoff is the spin-then-park waiter of every polling wait on a
// wall-clock transport (Front's Lock, ipc's rings and accumulate lock): a
// tight spin while the wait is likely short, a Gosched band that yields
// the core, then escalating microsecond sleeps capped low enough that a
// fault is still observed promptly.
type Backoff struct{ n int }

func (b *Backoff) Pause() {
	b.n++
	switch {
	case b.n < 64:
		// tight spin
	case b.n < 1024:
		runtime.Gosched()
	default:
		time.Sleep(min(time.Duration(b.n-1023)*time.Microsecond, 200*time.Microsecond))
	}
}
