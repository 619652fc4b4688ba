package uts_test

import (
	"bytes"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/pgas/shm"
	"scioto/internal/trace"
	"scioto/internal/uts"
)

// TestSciotoMatchesSequential: the parallel traversal must enumerate exactly
// the sequential node/leaf counts on both transports and several P.
func TestSciotoMatchesSequential(t *testing.T) {
	want, err := uts.Sequential(uts.TreeSmall, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tree: %+v", want)
	cfg := uts.DriverConfig{
		Tree:        uts.TreeSmall,
		PerNodeCost: 300 * time.Nanosecond,
		TC:          core.Config{ChunkSize: 5, MaxTasks: 1 << 15},
	}
	for _, n := range []int{1, 2, 4, 8} {
		worlds := map[string]pgas.World{
			"shm":  shm.NewWorld(shm.Config{NProcs: n, Seed: 9}),
			"dsim": dsim.NewWorld(dsim.Config{NProcs: n, Seed: 9}),
		}
		for name, w := range worlds {
			err := w.Run(func(p pgas.Proc) {
				got, _, err := uts.RunScioto(p, cfg)
				if err != nil {
					panic(err)
				}
				if got != want {
					panic("parallel traversal mismatch")
				}
			})
			if err != nil {
				t.Fatalf("P=%d %s: %v", n, name, err)
			}
		}
	}
}

// TestSciotoLockedQueue: the no-split ablation also enumerates correctly.
func TestSciotoLockedQueue(t *testing.T) {
	want, err := uts.Sequential(uts.TreeSmall, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uts.DriverConfig{
		Tree: uts.TreeSmall,
		TC:   core.Config{ChunkSize: 5, MaxTasks: 1 << 15, QueueMode: core.ModeLocked},
	}
	w := dsim.NewWorld(dsim.Config{NProcs: 4, Seed: 2})
	if err := w.Run(func(p pgas.Proc) {
		got, _, err := uts.RunScioto(p, cfg)
		if err != nil {
			panic(err)
		}
		if got != want {
			panic("locked-mode traversal mismatch")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSciotoBinomialTree: binomial trees exercise the bursty spawn pattern.
func TestSciotoBinomialTree(t *testing.T) {
	tree := uts.Params{Kind: uts.Binomial, RootSeed: 11, B0: 20, Q: 0.2, M: 4}
	want, err := uts.Sequential(tree, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uts.DriverConfig{Tree: tree, TC: core.Config{ChunkSize: 3, MaxTasks: 1 << 14}}
	w := dsim.NewWorld(dsim.Config{NProcs: 4, Seed: 2})
	if err := w.Run(func(p pgas.Proc) {
		got, _, err := uts.RunScioto(p, cfg)
		if err != nil {
			panic(err)
		}
		if got != want {
			panic("binomial traversal mismatch")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSciotoTinyQueueInlineFallback: a deliberately small queue forces
// inline execution without corrupting counts.
func TestSciotoTinyQueueInlineFallback(t *testing.T) {
	want, err := uts.Sequential(uts.TreeSmall, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uts.DriverConfig{Tree: uts.TreeSmall, TC: core.Config{ChunkSize: 2, MaxTasks: 64}}
	w := dsim.NewWorld(dsim.Config{NProcs: 3, Seed: 2})
	if err := w.Run(func(p pgas.Proc) {
		got, st, err := uts.RunScioto(p, cfg)
		if err != nil {
			panic(err)
		}
		if got != want {
			panic("tiny-queue traversal mismatch")
		}
		_ = st
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAttributionCountsEachOccurrenceOnce: a 2-rank traversal on dsim with
// recording on. From the per-rank dumps alone, the attribution report
// must count one task_exec interval per executed task, and the dumps must
// hold one steal record per steal attempt, of which the report counts
// every one that took time as one steal_window interval — every
// occurrence is one closed span record, not a begin/end event pair beside
// an interval. (A round on words read ahead that were not claimable sends
// nothing and takes no virtual time: a record, but no busy interval.)
func TestAttributionCountsEachOccurrenceOnce(t *testing.T) {
	const n = 2
	cfg := uts.DriverConfig{
		Tree:        uts.TreeSmall,
		PerNodeCost: 300 * time.Nanosecond,
		TC:          core.Config{ChunkSize: 5, MaxTasks: 1 << 15},
	}
	dumps := make([]*trace.Dump, n)
	var tasks core.Stats
	err := dsim.NewWorld(dsim.Config{NProcs: n, Seed: 9, Latency: 2 * time.Microsecond}).Run(func(p pgas.Proc) {
		rec := trace.NewRecorder(p.Rank(), 1<<16, nil)
		core.RegisterProcObserver(p, core.NewObserver(p, nil, rec))
		defer core.UnregisterProcObserver(p)
		_, st, err := uts.RunScioto(p, cfg)
		if err != nil {
			panic(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			panic(err)
		}
		d, err := trace.ReadDump(&buf)
		if err != nil {
			panic(err)
		}
		dumps[p.Rank()] = d
		if p.Rank() == 0 {
			tasks = st
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Attribute(dumps, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated {
		t.Fatal("the recorder dropped records; raise the test's limit")
	}
	intervals := map[string]int64{}
	for _, ra := range rep.Ranks {
		for _, b := range ra.Busy {
			intervals[b.Resource] += b.Intervals
		}
	}
	if tasks.TasksExecuted == 0 || tasks.StealAttempts == 0 {
		t.Fatalf("vacuous run: %d tasks, %d steal attempts", tasks.TasksExecuted, tasks.StealAttempts)
	}
	if got := intervals["task_exec"]; got != tasks.TasksExecuted {
		t.Errorf("task_exec intervals = %d, want one per executed task (%d)", got, tasks.TasksExecuted)
	}
	var steals, timed int64
	for _, d := range dumps {
		for _, r := range d.Records {
			if d.Kinds[r[0]].Name == "steal_window" {
				steals++
				if r[2] > r[1] {
					timed++
				}
			}
		}
	}
	if steals != tasks.StealAttempts || timed == 0 {
		t.Errorf("%d steal records (%d of them timed), want one per steal attempt (%d)", steals, timed, tasks.StealAttempts)
	}
	if got := intervals["steal_window"]; got != timed {
		t.Errorf("steal_window intervals = %d, want one per timed steal record (%d)", got, timed)
	}
}
