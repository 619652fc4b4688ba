// Package core implements the Scioto task-parallel runtime: shared
// collections of task objects with locality-aware dynamic load balancing
// over a one-sided (pgas) communication substrate.
//
// The package reproduces the system described in "Scioto: A Framework for
// Global-View Task Parallelism" (Dinan et al., ICPP 2008):
//
//   - task collections distributed as per-process circular queues of
//     fixed-size task descriptors held in symmetric (remotely accessible)
//     memory,
//   - split queues with a lock-free private portion and a locked shared
//     portion, managed with release/reacquire operations that move the
//     split pointer without copying tasks,
//   - chunked work stealing from the shared tail of randomly chosen
//     victims, with affinity-based task placement so low-affinity tasks
//     are stolen first,
//   - wave-based termination detection over a binary spanning tree with
//     white/black token coloring and the paper's §5.3 dirty-marking
//     elision optimization,
//   - common local objects (CLOs) giving tasks access to a per-process
//     instance of collectively registered objects wherever they execute.
package core

import (
	"fmt"
	"sync"

	"scioto/internal/obs"
	"scioto/internal/pgas"
)

// Handle is a portable reference to a collectively registered task callback.
// Handles are small integers assigned in registration order, so a handle
// stored in a task body or header designates the same callback on every
// process.
type Handle int32

// CLOHandle is a portable reference to a collectively registered common
// local object. Wherever a task executes, the handle resolves to the
// process-local instance of the object.
type CLOHandle int32

// TaskFunc is a task execution callback. It receives the task collection
// the task is executing on (usable to spawn subtasks or reach the runtime)
// and the task descriptor holding the task's arguments. The descriptor is a
// private copy the runtime reuses for the next task: the callback may
// scribble on it freely and re-add it (Add copies in), but it is valid
// only until the callback (and the ExecHook after it) returns — copy out
// whatever must live longer.
type TaskFunc func(tc *TC, t *Task)

// Header layout inside a task descriptor slot (little-endian):
//
//	[0:4)   callback handle
//	[4:8)   affinity
//	[8:12)  body length
//	[12:16) origin rank (creator), for locality accounting
//	[16:24) lifecycle ID (caller-assigned, travels with the task)
//	[24:28) journal home rank (-1 when the task is not journaled)
//	[28:32) journal slot on the home rank
const (
	hdrHandle   = 0
	hdrAffinity = 4
	hdrBodyLen  = 8
	hdrOrigin   = 12
	hdrID       = 16
	hdrJHome    = 24
	hdrJSlot    = 28
	// HeaderBytes is the size of the standard task descriptor header.
	HeaderBytes = 32
)

// Task is a task descriptor: a standard header plus an opaque, user-defined
// body. The in-memory representation matches the wire representation, so
// adding a task to a collection is a single contiguous copy.
type Task struct {
	buf []byte // the wire image: header, then the body
}

// NewTask creates a task descriptor with the given callback handle and body
// size. The body is zeroed.
func NewTask(h Handle, bodySize int) *Task {
	if bodySize < 0 {
		panic("core: negative task body size")
	}
	t := &Task{buf: make([]byte, HeaderBytes+bodySize)}
	t.SetHandle(h)
	pgas.PutI32(t.buf[hdrBodyLen:], int32(bodySize))
	pgas.PutI32(t.buf[hdrJHome:], -1)
	return t
}

// jHome returns the rank whose journal tracks this task (-1: unjournaled).
func (t *Task) jHome() int { return int(pgas.GetI32(t.buf[hdrJHome:])) }

// jSlot returns the task's slot in its home rank's journal.
func (t *Task) jSlot() int { return int(pgas.GetI32(t.buf[hdrJSlot:])) }

// setJournalRef stamps the journal home/slot pair into the header.
func (t *Task) setJournalRef(home, slot int) {
	pgas.PutI32(t.buf[hdrJHome:], int32(home))
	pgas.PutI32(t.buf[hdrJSlot:], int32(slot))
}

// Handle returns the task's callback handle.
func (t *Task) Handle() Handle { return Handle(pgas.GetI32(t.buf[hdrHandle:])) }

// SetHandle sets the task's callback handle.
func (t *Task) SetHandle(h Handle) { pgas.PutI32(t.buf[hdrHandle:], int32(h)) }

// Affinity returns the task's affinity value.
func (t *Task) Affinity() int32 { return pgas.GetI32(t.buf[hdrAffinity:]) }

// setAffinity records the affinity the task was added with.
func (t *Task) setAffinity(a int32) { pgas.PutI32(t.buf[hdrAffinity:], a) }

// Origin returns the rank that created (added) the task.
func (t *Task) Origin() int { return int(pgas.GetI32(t.buf[hdrOrigin:])) }

func (t *Task) setOrigin(r int) { pgas.PutI32(t.buf[hdrOrigin:], int32(r)) }

// ID returns the task's lifecycle ID: an opaque 64-bit value assigned by
// the creator with SetID (0 when never set). The ID travels in the
// descriptor header, so it survives steals, deferral, and inline
// execution — external drivers (the serve gateway, a replay journal) use
// it to correlate a completion with the submission that produced the task.
func (t *Task) ID() uint64 { return pgas.GetU64(t.buf[hdrID:]) }

// SetID stamps the task's lifecycle ID.
func (t *Task) SetID(id uint64) { pgas.PutU64(t.buf[hdrID:], id) }

// Body returns the task's user-defined body. Callers may encode arguments
// in any format; the contents travel with the task.
func (t *Task) Body() []byte { return t.buf[HeaderBytes:] }

// BodyLen returns the length of the task body in bytes.
func (t *Task) BodyLen() int { return len(t.buf) - HeaderBytes }

// wire returns the descriptor's wire representation (header + body).
func (t *Task) wire() []byte { return t.buf }

// wireLen validates the header of the descriptor held in slot and returns
// the descriptor's wire length (header + body).
func wireLen(slot []byte) int {
	bodyLen := int(pgas.GetI32(slot[hdrBodyLen:]))
	if bodyLen < 0 || HeaderBytes+bodyLen > len(slot) {
		panic(fmt.Sprintf("core: corrupt task descriptor: body length %d in %d-byte slot", bodyLen, len(slot)))
	}
	return HeaderBytes + bodyLen
}

// decodeTask reconstructs a task descriptor from slot bytes into storage
// of its own. The owner's pop decodes into the queue's reusable descriptor
// instead (taskQueue.decode); this allocating form is for a descriptor
// that must outlive the pop or coexist with the popped one: the
// full-queue inline executions (they run inside an outer callback whose
// descriptor is live, to any depth), Satisfy's launch, and the recovery
// salvage paths.
func decodeTask(slot []byte) *Task {
	t := &Task{buf: make([]byte, wireLen(slot))}
	copy(t.buf, slot)
	return t
}

// Runtime is the per-process attachment point for the Scioto runtime. It
// wraps a pgas process handle and holds the process's common local objects
// and task-collection bookkeeping. Create one per process with Attach.
type Runtime struct {
	p    pgas.Proc
	clos []any

	rank, nprocs int // p's, read once: the Add and execute paths ask per task

	// obs is the rank's observer, attached by the facade when
	// observability is on; collections created afterwards report to it.
	// Nil is the disabled observer.
	obs *Observer

	// recoverOn arms work-replay recovery: collections created on this
	// runtime journal their insertions and heal around rank death when the
	// transport implements pgas.Resilient. Set by EnableRecovery or
	// inherited through RegisterProcRecovery.
	recoverOn bool
}

// Observers registered per proc handle. Application drivers
// (internal/uts, scf, tce) attach their own Runtime from a raw pgas.Proc,
// so the facade cannot hand them an observer-wired Runtime; instead it
// registers the observer against the proc and every Attach on that proc
// inherits it.
var (
	procObsMu sync.Mutex
	procObs   map[pgas.Proc]*Observer
)

// RegisterProcObserver makes every future Attach on p report to o. Pair
// with UnregisterProcObserver when the proc's run ends.
func RegisterProcObserver(p pgas.Proc, o *Observer) {
	procObsMu.Lock()
	if procObs == nil {
		procObs = make(map[pgas.Proc]*Observer)
	}
	procObs[p] = o
	procObsMu.Unlock()
}

// UnregisterProcObserver drops the observer registration for p.
func UnregisterProcObserver(p pgas.Proc) {
	procObsMu.Lock()
	delete(procObs, p)
	procObsMu.Unlock()
}

// Recovery arming registered per proc handle, mirroring the observer
// registry: application drivers attach their own Runtime from a raw
// pgas.Proc, so the facade arms recovery against the proc and every Attach
// on that proc inherits it.
var (
	procRecMu sync.Mutex
	procRec   map[pgas.Proc]bool
)

// RegisterProcRecovery makes every future Attach on p recovery-armed.
// Pair with UnregisterProcRecovery when the proc's run ends.
func RegisterProcRecovery(p pgas.Proc) {
	procRecMu.Lock()
	if procRec == nil {
		procRec = make(map[pgas.Proc]bool)
	}
	procRec[p] = true
	procRecMu.Unlock()
}

// UnregisterProcRecovery drops the recovery arming for p.
func UnregisterProcRecovery(p pgas.Proc) {
	procRecMu.Lock()
	delete(procRec, p)
	procRecMu.Unlock()
}

// EnableRecovery arms work-replay recovery on this runtime directly (the
// facade path goes through RegisterProcRecovery instead). Collections
// created afterwards journal insertions and heal around rank death,
// provided the transport implements pgas.Resilient and the collection uses
// wave termination.
func (rt *Runtime) EnableRecovery() { rt.recoverOn = true }

// Attach initializes the Scioto runtime on the calling process. Collective:
// all processes must attach before creating task collections.
func Attach(p pgas.Proc) *Runtime {
	rt := &Runtime{p: p}
	rt.rank, rt.nprocs = p.Rank(), p.NProcs()
	procObsMu.Lock()
	rt.obs = procObs[p]
	procObsMu.Unlock()
	procRecMu.Lock()
	rt.recoverOn = procRec[p]
	procRecMu.Unlock()
	return rt
}

// Proc exposes the underlying pgas process handle, for applications that
// mix task parallelism with direct one-sided communication (the common
// case: Global Arrays access from inside tasks).
func (rt *Runtime) Proc() pgas.Proc { return rt.p }

// SetObserver attaches this rank's observer (nil detaches). Task
// collections created afterwards report to it.
func (rt *Runtime) SetObserver(o *Observer) { rt.obs = o }

// Registry returns the observer's metrics registry (nil when
// observability is disabled — itself a valid, disabled registry).
func (rt *Runtime) Registry() *obs.Registry { return rt.obs.Registry() }

// Rank returns the calling process's rank.
func (rt *Runtime) Rank() int { return rt.rank }

// NProcs returns the number of processes.
func (rt *Runtime) NProcs() int { return rt.nprocs }

// RegisterCLO collectively registers a common local object and returns its
// portable handle. Every process must register its local instance in the
// same order; the handle then resolves to the process-local instance
// wherever a task executes (the only way tasks can produce node-local
// results under models, like MPI, with no global address space).
func (rt *Runtime) RegisterCLO(obj any) CLOHandle {
	rt.clos = append(rt.clos, obj)
	return CLOHandle(len(rt.clos) - 1)
}

// CLO resolves a common local object handle to this process's instance.
func (rt *Runtime) CLO(h CLOHandle) any {
	if int(h) < 0 || int(h) >= len(rt.clos) {
		panic(fmt.Sprintf("core: CLO handle %d not registered (have %d)", h, len(rt.clos)))
	}
	return rt.clos[h]
}
