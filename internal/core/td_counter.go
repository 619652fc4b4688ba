package core

import (
	"scioto/internal/pgas"
)

// Counter-based termination detection, the classic alternative to the
// paper's token waves: a single global outstanding-task counter hosted on
// rank 0, incremented eagerly on every Add (before the task becomes
// visible anywhere) and decremented — in batches — after execution. The
// counter can only read zero when every added task has completed, and once
// zero it can never rise again (no active task exists to add more), so an
// idle process polling zero may terminate immediately.
//
// The scheme is simple and has low detection latency, but every single
// task costs one remote atomic on the counter host — the same hot-spot
// pathology as counter-based load balancing. The runtime offers it as
// Config.Termination = TermCounter so the trade-off against the paper's
// O(log P) wave algorithm is measurable (`sciotobench -exp ablations`,
// EXPERIMENTS.md).

// TerminationMode selects the global termination detection algorithm.
type TerminationMode int

const (
	// TermWave is the paper's wave-based algorithm with token coloring,
	// over a 4-ary spanning tree where the paper's is binary (default).
	TermWave TerminationMode = iota
	// TermCounter uses an eager global outstanding-task counter hosted on
	// rank 0.
	TermCounter
)

// String implements fmt.Stringer.
func (m TerminationMode) String() string {
	switch m {
	case TermWave:
		return "wave"
	case TermCounter:
		return "counter"
	default:
		return "unknown"
	}
}

// ctrDetector is the counter-based detector's per-process state.
type ctrDetector struct {
	p   pgas.Proc
	seg pgas.Seg // one word on rank 0: outstanding task count

	pendingDones int64 // executed tasks not yet flushed to the counter

	stats *Stats
}

// doneFlushBatch is the number of completions buffered before a flush.
const doneFlushBatch = 32

func newCtrDetector(p pgas.Proc, stats *Stats) *ctrDetector {
	return &ctrDetector{p: p, seg: p.AllocWords(1), stats: stats}
}

// reset clears the counter. Collective ordering is the caller's job.
func (cd *ctrDetector) reset() {
	cd.pendingDones = 0
	if cd.p.Rank() == 0 {
		cd.p.Store64(0, cd.seg, 0, 0)
	}
}

// noteAdd eagerly charges one outstanding task. Must be called before the
// task is enqueued anywhere.
func (cd *ctrDetector) noteAdd() {
	cd.update(1)
}

// update adds d to the counter in one round trip.
func (cd *ctrDetector) update(d int64) {
	cd.p.FetchAdd64(0, cd.seg, 0, d)
	cd.stats.TermCounterOps++
}

// noteDone records a completion, flushing in batches.
func (cd *ctrDetector) noteDone() {
	cd.pendingDones++
	if cd.pendingDones >= doneFlushBatch {
		cd.flush()
	}
}

// flush publishes buffered completions.
func (cd *ctrDetector) flush() {
	if cd.pendingDones == 0 {
		return
	}
	cd.update(-cd.pendingDones)
	cd.pendingDones = 0
}

// idleCheck is called by passive processes: flush and poll for zero.
func (cd *ctrDetector) idleCheck() bool {
	cd.flush()
	v := cd.p.Load64(0, cd.seg, 0)
	cd.stats.TermCounterOps++
	if v < 0 {
		panic("core: outstanding-task counter went negative")
	}
	return v == 0
}
