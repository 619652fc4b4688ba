package core

import (
	"fmt"
	"strings"
	"time"
)

// Stats holds per-process runtime counters for one task collection. All
// counters are cumulative across processing phases until Reset is called
// with clearStats.
type Stats struct {
	TasksAdded    int64 // tasks this process added (any destination)
	TasksExecuted int64 // tasks this process executed
	ExecutedLocal int64 // executed tasks whose origin was this process
	InlineExecs   int64 // tasks executed inline because a queue was full

	LocalInserts       int64 // lock-free private-end inserts
	LocalSharedInserts int64 // local inserts at the shared end (low affinity)
	RemoteInserts      int64 // one-sided inserts into another process's queue
	LocalGets          int64 // lock-free (or locked-mode) local gets

	Releases        int64 // split-pointer raises
	TasksReleased   int64
	Reacquires      int64 // split-pointer lowerings
	TasksReacquired int64

	// StealAttempts counts idle rounds that tried to steal: on a split
	// queue one probe round, which reads up to two victims' packed words.
	StealAttempts int64
	StealsOK      int64
	StealsEmpty   int64 // every probed victim's shared portion held nothing
	// StealsBusy: on a split queue, the only tasks the probe saw sat behind
	// another thief's claim still being copied or a remote adder at work,
	// or this thief's claim CAS lost to a concurrent change of the word; on
	// a locked queue, the TryLock failed. Either way the next idle round
	// draws fresh random victims.
	StealsBusy  int64
	TasksStolen int64
	// DirtyMarksSent and DirtyMarksElided count §5.3's decision for a
	// claim: on a split queue only when a claim is tried, for the victim it
	// is tried on; on a locked queue a mark is sent once the lock is held
	// and the queue is not empty, and elided on every attempt, as in the
	// paper's sequence.
	DirtyMarksSent   int64
	DirtyMarksElided int64

	WavesSeen      int64
	Votes          int64
	BlackVotes     int64
	TermCounterOps int64 // remote atomics issued by counter-based termination

	DeferredRegistered int64 // tasks registered with AddDeferred
	DeferredLaunched   int64 // deferred tasks this process launched via Satisfy

	Recoveries     int64 // recovery epochs this process participated in
	TasksRecovered int64 // lost descriptors this process re-inserted during healing
	SalvagedExecs  int64 // durable completions credited to dead ranks by this healer

	// WorkTime and IdleTime partition the phase loop of every Process call
	// that ran to termination: the loop is busy while it holds local work
	// (callbacks and the queue operations between them) and idle otherwise
	// (stealing, termination detection, yielding), and the clock is read
	// when it changes state, not per task. Exact per-task execution time
	// lives with whoever asked for it: the observer's
	// scioto_task_exec_seconds histogram and exec spans, or the ExecHook's
	// elapsed argument.
	IdleTime time.Duration // virtual/wall time the phase loop spent without local work
	WorkTime time.Duration // virtual/wall time the phase loop spent holding local work
}

// add accumulates other into s.
func (s *Stats) add(o *Stats) {
	s.TasksAdded += o.TasksAdded
	s.TasksExecuted += o.TasksExecuted
	s.ExecutedLocal += o.ExecutedLocal
	s.InlineExecs += o.InlineExecs
	s.LocalInserts += o.LocalInserts
	s.LocalSharedInserts += o.LocalSharedInserts
	s.RemoteInserts += o.RemoteInserts
	s.LocalGets += o.LocalGets
	s.Releases += o.Releases
	s.TasksReleased += o.TasksReleased
	s.Reacquires += o.Reacquires
	s.TasksReacquired += o.TasksReacquired
	s.StealAttempts += o.StealAttempts
	s.StealsOK += o.StealsOK
	s.StealsEmpty += o.StealsEmpty
	s.StealsBusy += o.StealsBusy
	s.TasksStolen += o.TasksStolen
	s.DirtyMarksSent += o.DirtyMarksSent
	s.DirtyMarksElided += o.DirtyMarksElided
	s.WavesSeen += o.WavesSeen
	s.Votes += o.Votes
	s.BlackVotes += o.BlackVotes
	s.TermCounterOps += o.TermCounterOps
	s.DeferredRegistered += o.DeferredRegistered
	s.DeferredLaunched += o.DeferredLaunched
	s.Recoveries += o.Recoveries
	s.TasksRecovered += o.TasksRecovered
	s.SalvagedExecs += o.SalvagedExecs
	s.IdleTime += o.IdleTime
	s.WorkTime += o.WorkTime
}

// asSlice flattens the counters for cross-process reduction. The order must
// match fromSlice.
func (s *Stats) asSlice() []int64 {
	return []int64{
		s.TasksAdded, s.TasksExecuted, s.ExecutedLocal, s.InlineExecs,
		s.LocalInserts, s.LocalSharedInserts, s.RemoteInserts, s.LocalGets,
		s.Releases, s.TasksReleased, s.Reacquires, s.TasksReacquired,
		s.StealAttempts, s.StealsOK, s.StealsEmpty, s.StealsBusy,
		s.TasksStolen, s.DirtyMarksSent, s.DirtyMarksElided,
		s.WavesSeen, s.Votes, s.BlackVotes, s.TermCounterOps,
		s.DeferredRegistered, s.DeferredLaunched,
		s.Recoveries, s.TasksRecovered, s.SalvagedExecs,
		int64(s.IdleTime), int64(s.WorkTime),
	}
}

// statsWords is the number of words asSlice produces.
const statsWords = 30

// fromSlice restores counters flattened by asSlice.
func (s *Stats) fromSlice(v []int64) {
	s.TasksAdded, s.TasksExecuted, s.ExecutedLocal, s.InlineExecs = v[0], v[1], v[2], v[3]
	s.LocalInserts, s.LocalSharedInserts, s.RemoteInserts, s.LocalGets = v[4], v[5], v[6], v[7]
	s.Releases, s.TasksReleased, s.Reacquires, s.TasksReacquired = v[8], v[9], v[10], v[11]
	s.StealAttempts, s.StealsOK, s.StealsEmpty, s.StealsBusy = v[12], v[13], v[14], v[15]
	s.TasksStolen, s.DirtyMarksSent, s.DirtyMarksElided = v[16], v[17], v[18]
	s.WavesSeen, s.Votes, s.BlackVotes, s.TermCounterOps = v[19], v[20], v[21], v[22]
	s.DeferredRegistered, s.DeferredLaunched = v[23], v[24]
	s.Recoveries, s.TasksRecovered, s.SalvagedExecs = v[25], v[26], v[27]
	s.IdleTime, s.WorkTime = time.Duration(v[28]), time.Duration(v[29])
}

// String renders the headline counters compactly.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec=%d (local %d, inline %d) added=%d", s.TasksExecuted, s.ExecutedLocal, s.InlineExecs, s.TasksAdded)
	fmt.Fprintf(&b, " steals=%d/%d (empty %d, busy %d) stolen=%d", s.StealsOK, s.StealAttempts, s.StealsEmpty, s.StealsBusy, s.TasksStolen)
	fmt.Fprintf(&b, " rel=%d reacq=%d dirty=%d(elided %d)", s.Releases, s.Reacquires, s.DirtyMarksSent, s.DirtyMarksElided)
	fmt.Fprintf(&b, " waves=%d votes=%d black=%d", s.WavesSeen, s.Votes, s.BlackVotes)
	if s.Recoveries > 0 {
		fmt.Fprintf(&b, " recov=%d replayed=%d salvaged=%d", s.Recoveries, s.TasksRecovered, s.SalvagedExecs)
	}
	fmt.Fprintf(&b, " work=%v idle=%v", s.WorkTime, s.IdleTime)
	return b.String()
}
