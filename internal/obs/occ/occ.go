// Package occ is the occupancy-accounting layer: interval-based
// busy/idle/wait tracking per named runtime resource, recorded into
// lock-free per-rank buffers.
//
// Every instrumented site records [start, end) windows against a fixed,
// package-level resource catalogue (queue lock held/contended windows,
// termination-detection wave activity, the steal pipeline's
// outstanding-Nb window, the dsim NIC serialization horizon, the tcp
// flush window and writev stalls, ipc ring backpressure and barrier
// park time). Two sinks consume the recordings:
//
//   - the per-resource aggregate counters (busy nanoseconds and interval
//     count) are plain obs instruments, so they surface on /metrics and
//     merge cross-rank through obs.Merger like every other series;
//   - the raw intervals drain into the rank's trace dump (the recorder
//     exposes them through trace.Recorder.SetOccSource), where the
//     attribution engine in internal/trace computes occupancy fractions
//     and the serialized critical path.
//
// Recording follows the runtime's nil-object discipline — every method
// is a no-op on a nil *Buffer — and is alloc-free: interval slots live
// in one preallocated array claimed by an atomic cursor, and the
// aggregates are atomic adds. When the slot array fills, further
// intervals are dropped (counted in Dropped) while the aggregates stay
// exact, so a long run keeps truthful fractions even after the detailed
// timeline truncates.
package occ

import (
	"sort"
	"sync/atomic"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
)

// Resource identifies one tracked runtime resource. The catalogue is
// fixed at compile time: constant-named, registered unconditionally and
// in declaration order, so per-rank registries stay congruent for the
// cross-rank merge (see the obsdeterminism lint check).
type Resource uint8

// The resource catalogue. Declaration order is the attribution
// priority order: when a rank is inside several windows at once, the
// projection in internal/trace attributes the instant to the
// lowest-numbered active resource.
const (
	// TaskExec is task callback execution (the useful-work resource).
	TaskExec Resource = iota
	// QueueLockHeld is a queue-lock critical section (steal, remote add,
	// reacquire, locked-mode owner ops), from acquisition to release.
	QueueLockHeld
	// QueueLockWait is time spent contending for a queue lock: a blocking
	// Lock call's duration, or a failed TryLock probe.
	QueueLockWait
	// StealWindow is the steal pipeline's outstanding-Nb window: from the
	// idle rank choosing a victim to the last pipelined round completing.
	StealWindow
	// TDWave is termination-detection wave activity: observing a wave,
	// collecting child votes, casting a vote, or signalling termination.
	TDWave
	// DsimNIC is the simulated NIC's per-target serialization window on
	// the dsim transport (the Occupancy + PerByte service time).
	DsimNIC
	// TCPFlushWindow is the tcp transport's open flush window: from the
	// first frame queued after a flush to the flush that drains it.
	TCPFlushWindow
	// TCPWritev is a tcp writev stall: the syscall(s) pushing the
	// coalesced frame batch onto the socket.
	TCPWritev
	// IPCRingWait is ipc Send backpressure: spinning for ring space.
	IPCRingWait
	// IPCBarrierPark is ipc barrier park time: spinning for the epoch.
	IPCBarrierPark

	// NumResources is the catalogue size.
	NumResources
)

// resourceNames is the canonical catalogue spelling, used for metric
// label values, trace dump headers, and attribution reports.
var resourceNames = [NumResources]string{
	"task_exec",
	"queue_lock_held",
	"queue_lock_wait",
	"steal_window",
	"td_wave",
	"dsim_nic",
	"tcp_flush_window",
	"tcp_writev",
	"ipc_ring_wait",
	"ipc_barrier_park",
}

// String names the resource.
func (r Resource) String() string {
	if r < NumResources {
		return resourceNames[r]
	}
	return "resource(?)"
}

// Names returns the resource catalogue in declaration (priority) order.
func Names() []string {
	out := make([]string, NumResources)
	copy(out, resourceNames[:])
	return out
}

// DefaultCap is the interval-slot capacity of a Buffer created with
// capacity 0.
const DefaultCap = 1 << 15

// Buffer is one rank's occupancy recorder. A nil *Buffer is a valid,
// disabled recorder: every method is a no-op. A non-nil Buffer is safe
// for concurrent recorders (interval slots are claimed by an atomic
// cursor; aggregates are atomic adds), though the common case is the
// rank's own goroutine.
type Buffer struct {
	rank int

	cur     atomic.Int64 // next interval slot to claim
	dropped atomic.Int64
	iv      [][4]int64 // [resource, startNs, endNs, detail]

	busyNs [NumResources]atomic.Int64
	count  [NumResources]atomic.Int64

	// Mirrors of busyNs/count as obs instruments, nil when the buffer was
	// created without a registry. Kept as separate instruments rather than
	// views so the registry snapshot/merge path needs no occ knowledge.
	busyCtr  [NumResources]*obs.Counter
	countCtr [NumResources]*obs.Counter
}

// NewBuffer creates a buffer for the given rank holding up to capacity
// intervals (0 means DefaultCap). When reg is non-nil, the per-resource
// aggregates are additionally registered as obs counters
// (scioto_occ_busy_ns_total / scioto_occ_intervals_total, labelled by
// resource) in catalogue order, so every rank's registry stays
// congruent; a nil registry records aggregates locally only.
func NewBuffer(rank, capacity int, reg *obs.Registry) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	b := &Buffer{rank: rank, iv: make([][4]int64, capacity)}
	if reg != nil {
		for r := Resource(0); r < NumResources; r++ {
			b.busyCtr[r] = reg.Counter(
				`scioto_occ_busy_ns_total{resource="`+resourceNames[r]+`"}`,
				"nanoseconds this resource was busy/occupied on this rank")
			b.countCtr[r] = reg.Counter(
				`scioto_occ_intervals_total{resource="`+resourceNames[r]+`"}`,
				"occupancy intervals recorded for this resource")
		}
	}
	return b
}

// Rank reports the buffer's rank (-1 when disabled).
func (b *Buffer) Rank() int {
	if b == nil {
		return -1
	}
	return b.rank
}

// Record logs one occupancy interval [start, end) with an opaque detail
// word (conventionally the peer/victim/target rank of the operation).
// Zero- and negative-length intervals are ignored. Safe on a nil buffer
// and alloc-free: hot paths (the steal pipeline) record unconditionally.
func (b *Buffer) Record(res Resource, start, end time.Duration, detail int64) {
	if b == nil || res >= NumResources || end <= start {
		return
	}
	d := int64(end - start)
	b.busyNs[res].Add(d)
	b.count[res].Add(1)
	b.busyCtr[res].Add(d)
	b.countCtr[res].Inc()
	idx := b.cur.Add(1) - 1
	if idx >= int64(len(b.iv)) {
		b.dropped.Add(1)
		return
	}
	b.iv[idx] = [4]int64{int64(res), int64(start), int64(end), detail}
}

// BusyNs returns the aggregate busy nanoseconds recorded for res.
func (b *Buffer) BusyNs(res Resource) int64 {
	if b == nil || res >= NumResources {
		return 0
	}
	return b.busyNs[res].Load()
}

// Count returns the number of intervals recorded for res (including
// intervals whose slot was dropped).
func (b *Buffer) Count(res Resource) int64 {
	if b == nil || res >= NumResources {
		return 0
	}
	return b.count[res].Load()
}

// Len reports how many intervals are retained in the slot array.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	n := b.cur.Load()
	if n > int64(len(b.iv)) {
		n = int64(len(b.iv))
	}
	return int(n)
}

// OccIntervals snapshots the retained intervals as [resource, startNs,
// endNs, detail] quadruples, ordered by start time (ties: resource,
// then detail) so a deterministic run dumps a deterministic timeline.
// It implements trace.OccSource.
func (b *Buffer) OccIntervals() [][4]int64 {
	n := b.Len()
	if n == 0 {
		return nil
	}
	out := make([][4]int64, n)
	copy(out, b.iv[:n])
	sortIntervals(out)
	return out
}

// OccResourceNames returns the resource catalogue (trace.OccSource).
func (b *Buffer) OccResourceNames() []string { return Names() }

// OccDropped reports intervals dropped after the slot array filled
// (trace.OccSource).
func (b *Buffer) OccDropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// sortIntervals orders quadruples by (start, end, resource, detail),
// a total order over distinct intervals, so a deterministic run's
// snapshot is byte-stable regardless of slot claim interleaving.
func sortIntervals(iv [][4]int64) {
	sort.Slice(iv, func(i, j int) bool {
		a, b := iv[i], iv[j]
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[3] < b[3]
	})
}

// Attacher is implemented by transports that accept a per-rank occupancy
// buffer for transport-level resources: the dsim NIC model, the tcp flush
// window, the ipc ring and barrier.
type Attacher interface {
	AttachOcc(b *Buffer)
}

// Attach offers b to the transport-level occupancy hook of p or of
// whatever p wraps (pgas.Find walks the instrumentation and
// fault-injection wrappers). It reports whether the buffer was accepted.
// A nil buffer detaches.
func Attach(p any, b *Buffer) bool {
	a, ok := pgas.Find[Attacher](p)
	if ok {
		a.AttachOcc(b)
	}
	return ok
}
