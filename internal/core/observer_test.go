package core_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// nowCounter is a proc that counts clock reads, queue-lock acquisitions
// and steal probes.
type nowCounter struct {
	pgas.Proc
	calls, locks int
	probes       *atomic.Int64 // remote Load64 calls — a split-queue thief's probe — when non-nil
}

func (c *nowCounter) Now() time.Duration {
	c.calls++
	return c.Proc.Now()
}

func (c *nowCounter) Lock(proc int, id pgas.LockID) {
	c.locks++
	c.Proc.Lock(proc, id)
}

func (c *nowCounter) Load64(proc int, seg pgas.Seg, idx int) int64 {
	if c.probes != nil && proc != c.Rank() {
		c.probes.Add(1)
	}
	return c.Proc.Load64(proc, seg, idx)
}

// TestObservabilityOffReadsNoClock accounts for every clock read of a
// one-rank phase. With nothing attached the scheduler reads the clock
// only where the phase loop changes state — entering the loop, going
// idle, leaving — which is what Stats.WorkTime and IdleTime partition:
// zero reads between two consecutive callbacks, and none on adds, the
// local pop, release, reacquire or the queue-lock brackets. A consumer of
// per-task durations — an exec hook or an observer — costs exactly two
// reads per execution, and an observer three more per queue-lock bracket
// it reports (ModeLocked: a split queue takes no lock, which is checked
// too) and one per termination-detector step.
func TestObservabilityOffReadsNoClock(t *testing.T) {
	const tasks = 64
	for _, mode := range []core.QueueMode{core.ModeSplit, core.ModeLocked} {
		for _, consumer := range []string{"none", "hook", "observer"} {
			err := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
				clock := &nowCounter{Proc: p}
				rt := core.Attach(clock)
				// One rank: loop entry, the one change to idle, loop exit.
				perExec, perLock, perPhase := 0, 0, 3
				if consumer == "observer" {
					rt.SetObserver(core.NewObserver(clock, nil, trace.NewRecorder(0, 0, nil)))
					// The phase's one detector step opens a span too.
					perExec, perLock, perPhase = 2, 3, 4
				}
				tc := core.NewTC(rt, core.Config{MaxBodySize: 8, QueueMode: mode})
				if consumer == "hook" {
					tc.SetExecHook(func(*core.TC, *core.Task, time.Duration) {})
					perExec = 2
				}
				// reads is the clock reads not explained by a lock bracket.
				reads := func() int { return clock.calls - perLock*clock.locks }
				lastExit, ran := -1, 0
				h := tc.Register(func(tc *core.TC, t *core.Task) {
					// Between one callback's return and the next one's
					// entry: nothing for the pop, the release check or a
					// reacquire, and execute's two only for a consumer.
					if lastExit >= 0 && reads()-lastExit != perExec {
						panic(fmt.Sprintf("%d clock reads between two callbacks, want %d", reads()-lastExit, perExec))
					}
					if ran++; ran > tasks/4 && t.Body()[0] == 1 {
						// A low-affinity add goes to the shared end (late, so
						// the first release finds the shared portion empty).
						t.Body()[0] = 0
						if err := tc.Add(0, core.AffinityLow, t); err != nil {
							panic(err)
						}
					}
					lastExit = reads()
				})
				task := core.NewTask(h, 8)
				task.Body()[0] = 1
				for i := 0; i < tasks/2; i++ {
					if err := tc.Add(0, core.AffinityHigh, task); err != nil {
						panic(err)
					}
				}
				if reads() != 0 {
					panic(fmt.Sprintf("%d adds read the clock %d times, want 0", tasks/2, reads()))
				}
				tc.Process()
				st := tc.Stats()
				if mode == core.ModeSplit && (st.Releases == 0 || st.Reacquires == 0 || st.LocalSharedInserts == 0 || clock.locks != 0) {
					panic(fmt.Sprintf("vacuous, or a split queue locking: %d releases, %d reacquires, %d shared-end adds, %d locks", st.Releases, st.Reacquires, st.LocalSharedInserts, clock.locks))
				}
				if mode == core.ModeLocked && clock.locks == 0 {
					panic("vacuous: the locked queue took no lock")
				}
				if want := perExec*int(st.TasksExecuted) + perPhase; st.TasksExecuted <= tasks/2 || reads() != want {
					panic(fmt.Sprintf("%d tasks, %d clock reads in all, want more than %d tasks and %d reads", st.TasksExecuted, reads(), tasks/2, want))
				}
			})
			if err != nil {
				t.Fatalf("%v queue, consumer %s: %v", mode, consumer, err)
			}
		}
	}
}

// TestIdleEpisodeReadsClockTwice: an idle episode — from running out of
// local work to finding some or terminating — costs two clock reads, one
// at each end, however many steal attempts fail inside it.
func TestIdleEpisodeReadsClockTwice(t *testing.T) {
	const attempts = 16
	var probes atomic.Int64
	err := shm.NewWorld(shm.Config{NProcs: 2, Seed: 1}).Run(func(p pgas.Proc) {
		clock := &nowCounter{Proc: p}
		if p.Rank() == 1 {
			clock.probes = &probes
		}
		tc := core.NewTC(core.Attach(clock), core.Config{MaxBodySize: 8})
		h := tc.Register(func(*core.TC, *core.Task) {
			// Rank 0's only task outlasts a run of failed steals by rank 1.
			for probes.Load() < attempts {
				runtime.Gosched()
			}
		})
		if p.Rank() == 0 {
			if err := tc.Add(0, core.AffinityHigh, core.NewTask(h, 8)); err != nil {
				panic(err)
			}
		}
		tc.Process()
		// Loop entry, then two per episode: one per successful steal and
		// the last, which ends in termination.
		st := tc.Stats()
		if want := 1 + 2*(int(st.StealsOK)+1); clock.calls != want {
			panic(fmt.Sprintf("%d clock reads over %d steal attempts (%d ok), want %d", clock.calls, st.StealAttempts, st.StealsOK, want))
		}
		if p.Rank() == 1 && st.StealAttempts < attempts {
			panic(fmt.Sprintf("vacuous: only %d steal attempts", st.StealAttempts))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInterruptedCallbackLeavesNoOpenSpan: a rank dies while survivors
// are inside task callbacks, so a FaultError panics out of execute and is
// recovered by Process. Spans are recorded closed, by the site holding
// both timestamps, so the interrupted execution leaves nothing behind for
// a consumer to stretch: every exec span on a survivor is exactly one
// callback that returned, with its true start and end.
func TestInterruptedCallbackLeavesNoOpenSpan(t *testing.T) {
	const n = 4
	// Op 63 is rank 2's checked Load64 of the cell on rank 0 inside one of
	// its callbacks, after two barriers of two Sends each.
	var crashedAt string
	w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true}), faulty.Config{
		Seed:          42,
		CrashRank:     2,
		CrashAfterOps: 63,
		Observe: func(_ time.Duration, _ int, kind, op string, _ int) {
			if kind == "crash" {
				crashedAt = op
			}
		},
	})
	type span struct{ start, end time.Duration }
	started := make([]int, n)
	returned := make([][]span, n)
	recs := make([]*trace.Recorder, n)
	executed := make([]int64, n)
	err := w.Run(func(p pgas.Proc) {
		me := p.Rank()
		rt := core.Attach(p)
		rt.EnableRecovery()
		recs[me] = trace.NewRecorder(me, 1<<14, nil)
		rt.SetObserver(core.NewObserver(p, nil, recs[me]))
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, ChunkSize: 2, MaxTasks: 2048})
		cell := p.AllocWords(1)
		var h core.Handle
		h = tc.Register(func(tc *core.TC, task *core.Task) {
			// No virtual time passes between execute's clock reads and the
			// callback's first and last statements.
			t0 := p.Now()
			started[me]++
			p.Compute(15 * time.Microsecond)
			// A checked one-sided operation: where a peer's death is
			// delivered, mid-callback.
			p.Load64(0, cell, 0)
			if depth := task.Body()[0]; depth > 0 {
				child := core.NewTask(h, 8)
				child.Body()[0] = depth - 1
				for i := 0; i < 3; i++ {
					if err := tc.Add(me, core.AffinityHigh, child); err != nil {
						panic(err)
					}
				}
			}
			returned[me] = append(returned[me], span{t0, p.Now()})
		})
		root := core.NewTask(h, 8)
		root.Body()[0] = 4
		if err := tc.Add(me, core.AffinityHigh, root); err != nil {
			panic(err)
		}
		tc.Process()
		executed[me] = tc.Stats().TasksExecuted
	})
	if err != nil {
		t.Fatalf("survivable world failed: %v", err)
	}
	if crashedAt != "Load64" {
		t.Fatalf("the pin interrupted a %q, want the callback's Load64 (re-pin CrashAfterOps)", crashedAt)
	}
	interrupted := 0
	for _, me := range []int{0, 1, 3} {
		interrupted += started[me] - len(returned[me])
		var spans []span
		for _, e := range recs[me].Records() {
			if e.Kind == trace.Exec {
				spans = append(spans, span{e.Start, e.End})
			}
		}
		if int64(len(spans)) != executed[me] || len(spans) != len(returned[me]) {
			t.Fatalf("rank %d: %d exec spans, %d executed, %d callbacks returned", me, len(spans), executed[me], len(returned[me]))
		}
		for i, s := range spans {
			if s != returned[me][i] {
				t.Fatalf("rank %d: exec span %d is %v, the callback ran over %v", me, i, s, returned[me][i])
			}
		}
	}
	if interrupted == 0 {
		t.Fatal("vacuous: no survivor was interrupted inside a callback; move the crash point")
	}
}
