package core_test

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/faulty"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// nowCounter is a proc that counts clock reads.
type nowCounter struct {
	pgas.Proc
	calls int
}

func (c *nowCounter) Now() time.Duration {
	c.calls++
	return c.Proc.Now()
}

// TestObservabilityOffReadsNoClock: with no observer attached the
// scheduler reads the clock only for its own statistics — twice per
// executed task (Stats.WorkTime) and twice per idle pass (Stats.IdleTime).
// Adds, the local pop, release and reacquire paths and the queue-lock
// brackets read it zero times: every timestamp that exists only to be
// reported is taken inside the observer.
func TestObservabilityOffReadsNoClock(t *testing.T) {
	const tasks = 64
	for _, mode := range []core.QueueMode{core.ModeSplit, core.ModeLocked} {
		err := shm.NewWorld(shm.Config{NProcs: 1, Seed: 1}).Run(func(p pgas.Proc) {
			clock := &nowCounter{Proc: p}
			tc := core.NewTC(core.Attach(clock), core.Config{MaxBodySize: 8, QueueMode: mode})
			lastExit, ran := -1, 0
			h := tc.Register(func(tc *core.TC, t *core.Task) {
				// Between one callback's return and the next one's entry:
				// the end of the first execution and the start of the
				// second, and nothing for the pop, the release check or a
				// reacquire in between.
				if lastExit >= 0 && clock.calls-lastExit != 2 {
					panic(fmt.Sprintf("%d clock reads between two callbacks, want execute's 2", clock.calls-lastExit))
				}
				if ran++; ran > tasks/4 && t.Body()[0] == 1 {
					// A low-affinity add goes to the shared end, through the
					// queue lock (late, so the first release finds the shared
					// portion empty).
					t.Body()[0] = 0
					if err := tc.Add(0, core.AffinityLow, t); err != nil {
						panic(err)
					}
				}
				lastExit = clock.calls
			})
			task := core.NewTask(h, 8)
			task.Body()[0] = 1
			for i := 0; i < tasks/2; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			if clock.calls != 0 {
				panic(fmt.Sprintf("%d adds read the clock %d times, want 0", tasks/2, clock.calls))
			}
			tc.Process()
			st := tc.Stats()
			if mode == core.ModeSplit && (st.Releases == 0 || st.Reacquires == 0) {
				panic(fmt.Sprintf("vacuous: %d releases, %d reacquires", st.Releases, st.Reacquires))
			}
			// One rank: a single idle pass ends the phase.
			if want := 2*int(st.TasksExecuted) + 2; st.TasksExecuted <= tasks/2 || clock.calls != want {
				panic(fmt.Sprintf("%d tasks, %d clock reads in all, want more than %d tasks and %d reads", st.TasksExecuted, clock.calls, tasks/2, want))
			}
		})
		if err != nil {
			t.Fatalf("%v queue: %v", mode, err)
		}
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
	w := faulty.Wrap(dsim.NewWorld(dsim.Config{NProcs: n, Seed: 3, Survivable: true}), faulty.Config{
		Seed:          42,
		CrashRank:     2,
		CrashAfterOps: 60,
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
