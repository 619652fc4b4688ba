package core_test

import (
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
)

// TestMetricsCaptureSchedule runs an imbalanced workload with an observer
// attached via Runtime.SetObserver and checks the scheduler metrics and
// the recorder agree with the runtime's own statistics, per rank and
// merged.
func TestMetricsCaptureSchedule(t *testing.T) {
	const n = 4
	const total = 200
	hub := obs.NewHub()
	// dsim: the deterministic schedule guarantees the imbalanced seed is
	// actually stolen (the shm schedule can drain rank 0 before thieves
	// win a probe, making steal assertions flaky).
	w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 17})
	if err := w.Run(func(p pgas.Proc) {
		me := p.Rank()
		rt := core.Attach(p)
		reg := hub.Registry(me)
		rec := trace.NewRecorder(me, 1<<16, reg)
		rt.SetObserver(core.NewObserver(p, reg, rec))
		if rt.Registry() != reg {
			panic("the runtime does not answer with its observer's registry")
		}

		// NewTC wires the collection to the runtime's observer: the
		// agreement checked below is the proof.
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024, ChunkSize: 4})
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			tc.Proc().Compute(15 * time.Microsecond)
		})
		if me == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < total; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()

		// Per-rank: counters mirror the Stats the runtime already keeps.
		st := tc.Stats()
		if got := reg.Counter("scioto_tasks_executed_total", "").Value(); got != st.TasksExecuted {
			panic("executed counter disagrees with stats")
		}
		if got := reg.Histogram("scioto_task_exec_seconds", "").Count(); got != st.TasksExecuted {
			panic("exec histogram count disagrees with stats")
		}
		if got := reg.Counter("scioto_tasks_stolen_total", "").Value(); got != st.TasksStolen {
			panic("stolen counter disagrees with stats")
		}
		stealAttempts := int64(0)
		for _, outcome := range []string{"ok", "empty", "busy"} {
			stealAttempts += reg.Histogram(`scioto_steal_latency_seconds{outcome="`+outcome+`"}`, "").Count()
		}
		if stealAttempts != st.StealAttempts {
			panic("steal latency counts disagree with stats")
		}

		// Each number is stored once: the span aggregates the registry
		// exports are the recorder's own, and they count every execution
		// and every steal attempt exactly once.
		if got := reg.Counter(`scioto_occ_intervals_total{resource="task_exec"}`, "").Value(); got != st.TasksExecuted {
			panic("task_exec interval series disagrees with stats")
		}
		if got := reg.Counter(`scioto_occ_intervals_total{resource="steal_window"}`, "").Value(); got != st.StealAttempts {
			panic("steal_window interval series disagrees with stats")
		}
		// Exact per-task time lives in the observer; Stats.WorkTime is the
		// busy share of the phase loop, which contains every callback.
		if got := reg.Histogram("scioto_task_exec_seconds", "").Sum(); int64(got) != rec.BusyNs(trace.Exec) || st.WorkTime < got {
			panic("exec time disagrees between histogram and recorder, or exceeds the loop's busy time")
		}
		if rec.Dropped() != 0 || counts(rec)[trace.Exec] != st.TasksExecuted {
			panic("retained exec spans disagree with stats")
		}

		// Merged: the global view adds up to the seeded workload.
		snap := obs.NewMerger(p, reg).Merge()
		if got := snap.Counter("scioto_tasks_executed_total"); got != total {
			panic("merged executed != seeded total")
		}
		if got := snap.Counter("scioto_tasks_added_total"); got < total {
			panic("merged added below seeded total")
		}
		if snap.Counter("scioto_td_terminations_total") != n {
			panic("every rank should record one termination")
		}
	}); err != nil {
		t.Fatal(err)
	}

	// The workload is seeded on one rank: somebody must have stolen, and
	// releases must have made that possible.
	var stolen, releases int64
	for rank := 0; rank < n; rank++ {
		reg := hub.Registry(rank)
		stolen += reg.Counter("scioto_tasks_stolen_total", "").Value()
		releases += reg.Counter("scioto_queue_releases_total", "").Value()
	}
	if stolen == 0 {
		t.Error("no rank recorded stolen tasks on an imbalanced workload")
	}
	if releases == 0 {
		t.Error("no rank recorded split-pointer releases")
	}
}

// TestMetricsNilSafe: a collection without an observer must run with every
// report a no-op — this is the disabled-by-default path every existing
// test already exercises, asserted here explicitly.
func TestMetricsNilSafe(t *testing.T) {
	w := shm.NewWorld(shm.Config{NProcs: 2, Seed: 5})
	if err := w.Run(func(p pgas.Proc) {
		if core.NewObserver(p, nil, nil) != nil {
			panic("an observer with nothing to report to must be nil")
		}
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8})
		if rt.Registry() != nil {
			panic("observability must default to disabled")
		}
		h := tc.Register(func(tc *core.TC, t *core.Task) {})
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < 50; i++ {
				if err := tc.Add(0, core.AffinityLow, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
	}); err != nil {
		t.Fatal(err)
	}
}
