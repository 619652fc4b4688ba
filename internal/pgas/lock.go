package pgas

import (
	"fmt"
	"time"
)

// The pgas lock, built once over CAS64 the way DART-MPI builds its locks
// over MPI_Compare_and_swap: a lock is a word segment of one cell, so every
// process hosts one instance, and the cell holds 0 when free and the
// holder's rank + 1 otherwise. No transport knows about locks. A wrapper
// sees lock traffic as the CAS64 operations it is, so injected faults and
// delays, the per-pair FIFO rule and tcp's operation deadline apply to it,
// and every acquire attempt runs the transport's fault check because it
// rides Issue. The holder tag is what lets Unlock refuse a lock the caller
// does not hold and BreakLock free one whose holder died.

// Lock back-off in modelled time: dsim's calibration of a remote spin, 1 µs
// doubling to 16 µs between attempts, charged through Charge so that it
// scales with the rank's speed factor like all bookkeeping.
const (
	lockBackoffMin = 1 * time.Microsecond
	lockBackoffMax = 16 * time.Microsecond
)

// VirtualClock marks a Kernel whose clock is virtual (dsim): time passes
// only through Charge, Compute and operations, so Front waits by charging
// and never spends wall-clock time waiting. Front finds it with Find, so
// wrappers need not forward it.
type VirtualClock interface{ VirtualClock() }

// AllocLock collectively allocates a lock: a word segment of one cell.
func (f *Front) AllocLock() LockID { return LockID(f.k.AllocWords(1)) }

// TryLock is one CAS64 of the lock cell from free to this rank's tag.
func (f *Front) TryLock(proc int, id LockID) bool {
	return f.CAS64(proc, Seg(id), 0, 0, f.tag)
}

// Lock retries TryLock, backing off between attempts: the modelled cost is
// charged on every transport (a no-op on the wall-clock ones), and on a
// wall-clock transport the rank also really waits.
func (f *Front) Lock(proc int, id LockID) {
	var bo Backoff
	for d := lockBackoffMin; !f.TryLock(proc, id); d = min(2*d, lockBackoffMax) {
		f.k.Charge(d)
		if !f.virtual {
			bo.Pause()
		}
	}
}

// Unlock is one CAS64 of the lock cell from this rank's tag to free. It is
// checked communication like any word operation: a rank that unwound from a
// fault with a lock held releases it once it has acknowledged the fault.
func (f *Front) Unlock(proc int, id LockID) {
	if !f.CAS64(proc, Seg(id), 0, f.tag, 0) {
		panic(fmt.Sprintf("pgas: rank %d unlocked lock %d@%d that it does not hold", f.tag-1, id, proc))
	}
}

// BreakLock frees lock id on process proc if the dead rank holds it,
// reporting whether it did. A holder that died mid-critical-section never
// unlocks; after SurviveFault, whoever is responsible for the lock (core:
// each survivor for its own queue's) breaks it before anyone waits on it
// again. A lock a live rank holds is left alone.
func BreakLock(p Proc, proc int, id LockID, dead int) bool {
	return p.CAS64(proc, Seg(id), 0, int64(dead)+1, 0)
}
