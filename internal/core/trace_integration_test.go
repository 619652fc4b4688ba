package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/trace"
)

// tracedRun executes an imbalanced workload with tracers attached and
// returns the merged timeline plus the per-rank recorders.
func tracedRun(t *testing.T, seed int64) (string, []*trace.Recorder) {
	t.Helper()
	const n = 4
	const total = 150
	recs := make([]*trace.Recorder, n)
	w := dsim.NewWorld(dsim.Config{NProcs: n, Seed: seed})
	if err := w.Run(func(p pgas.Proc) {
		rt := core.Attach(p)
		tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: 1024, ChunkSize: 4})
		rec := trace.NewRecorder(p.Rank(), 1<<16, nil)
		tc.SetObserver(core.NewObserver(p, nil, rec))
		recs[p.Rank()] = rec
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			tc.Proc().Compute(15 * time.Microsecond)
		})
		if p.Rank() == 0 {
			task := core.NewTask(h, 8)
			for i := 0; i < total; i++ {
				if err := tc.Add(0, core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
		}
		tc.Process()
		// Cross-check: one exec span and one steal span per occurrence.
		st := tc.Stats()
		if c := counts(rec); c[trace.Exec] != st.TasksExecuted || c[trace.Steal] != st.StealAttempts {
			panic(fmt.Sprintf("rank %d: trace execs/steals %d/%d != stats %d/%d",
				p.Rank(), c[trace.Exec], c[trace.Steal], st.TasksExecuted, st.StealAttempts))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// The merged timeline: every rank's records by (start, rank).
	var rows []string
	for rank, rec := range recs {
		for _, e := range rec.Records() {
			rows = append(rows, fmt.Sprintf("%12d rank%-3d %-16s %d %d %d", e.Start, rank, e.Kind, e.End, e.A1, e.A2))
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n"), recs
}

// counts tallies a recorder's retained records per kind.
func counts(rec *trace.Recorder) map[trace.Kind]int64 {
	out := make(map[trace.Kind]int64)
	for _, e := range rec.Records() {
		out[e.Kind]++
	}
	return out
}

// TestTraceCapturesSchedule: every rank terminates, steals are recorded,
// and the event totals match runtime statistics.
func TestTraceCapturesSchedule(t *testing.T) {
	timeline, recs := tracedRun(t, 31)
	var totalExec int64
	for rank, rec := range recs {
		c := counts(rec)
		totalExec += c[trace.Exec]
		if c[trace.Terminate] == 0 {
			t.Errorf("rank %d never recorded termination", rank)
		}
		if rank != 0 && c[trace.WaveDown] == 0 {
			t.Errorf("rank %d saw no waves", rank)
		}
	}
	if totalExec != 150 {
		t.Errorf("traced %d executions, want 150", totalExec)
	}
	if !strings.Contains(timeline, "steal") || !strings.Contains(timeline, "release") {
		t.Error("timeline missing steal/release events")
	}
}

// TestTraceDeterministicOnDsim: identical seeds yield byte-identical merged
// timelines — the property that makes trace diffs usable for debugging.
func TestTraceDeterministicOnDsim(t *testing.T) {
	a, _ := tracedRun(t, 77)
	b, _ := tracedRun(t, 77)
	if a != b {
		t.Error("timelines differ across identically seeded runs")
	}
	c, _ := tracedRun(t, 78)
	if a == c {
		t.Error("different seeds produced identical timelines (suspicious)")
	}
}
