package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/trace"
)

// dumpOf builds a Dump through a live recorder, the same way the facade
// produces the on-disk files.
func dumpOf(t *testing.T, rank int, record func(r *trace.Recorder)) *trace.Dump {
	t.Helper()
	rec := trace.NewRecorder(rank, 64, nil)
	record(rec)
	dir := t.TempDir()
	path, err := rec.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return readDump(t, path)
}

func readDump(t *testing.T, path string) *trace.Dump {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := trace.ReadDump(f)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func find(events []chromeEvent, match func(chromeEvent) bool) []chromeEvent {
	var out []chromeEvent
	for _, e := range events {
		if match(e) {
			out = append(out, e)
		}
	}
	return out
}

func TestConvertSpansFlowsAndInstants(t *testing.T) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	// Rank 1 (thief): a failed probe, then a successful steal from rank 0
	// under the victim's queue lock, then executes the stolen task.
	thief := dumpOf(t, 1, func(r *trace.Recorder) {
		r.Record(trace.Steal, us(10), us(12), 0, trace.StealEmpty)
		r.Record(trace.QueueLockHeld, us(21), us(24), 0, 0)
		r.Record(trace.Steal, us(20), us(25), 0, 4)
		r.Record(trace.Exec, us(30), us(40), 7, 0)
		r.Record(trace.Vote, us(41), us(41), 1, 1)
	})
	// Rank 0 (victim): adds work, releases, sees a fault that ends its last
	// task mid-callback — that execution never closed, so it is not drawn;
	// the fault instant is.
	victim := dumpOf(t, 0, func(r *trace.Recorder) {
		r.Record(trace.Add, us(1), us(1), 0, 100)
		r.Record(trace.Release, us(2), us(2), 4, 0)
		r.Record(trace.Exec, us(3), us(4), 7, 0)
		r.Record(trace.Fault, us(5), us(5), obs.FaultDelay, 1)
		r.Record(trace.Terminate, us(50), us(50), 1, 0)
	})

	events := convert([]*trace.Dump{victim, thief})

	steals := find(events, func(e chromeEvent) bool { return e.Ph == "X" && e.Cat == "steal" })
	if len(steals) != 2 || steals[0].Name != "steal" {
		t.Fatalf("got %d steal spans %+v, want 2 named steal", len(steals), steals)
	}
	byOutcome := map[string]chromeEvent{}
	for _, e := range steals {
		byOutcome[e.Args["outcome"].(string)] = e
	}
	ok, found := byOutcome["ok"]
	if !found {
		t.Fatal("no ok-outcome steal span")
	}
	if ok.Ts != 20 || ok.Dur == nil || *ok.Dur != 5 || ok.Args["tasks"] != int64(4) || ok.Args["victim"] != int64(0) {
		t.Fatalf("ok steal span ts=%v dur=%v, want ts=20 dur=5", ok.Ts, ok.Dur)
	}
	if _, found := byOutcome["empty"]; !found {
		t.Fatal("no empty-outcome steal span")
	}

	flows := find(events, func(e chromeEvent) bool { return e.Cat == "flow" })
	if len(flows) != 2 {
		t.Fatalf("got %d flow events, want a start/finish pair", len(flows))
	}
	var start, finish chromeEvent
	for _, e := range flows {
		switch e.Ph {
		case "s":
			start = e
		case "f":
			finish = e
		}
	}
	if start.Tid != 1 || finish.Tid != 0 || start.ID != finish.ID || finish.BP != "e" {
		t.Fatalf("flow pair malformed: start=%+v finish=%+v", start, finish)
	}

	// Each execution is drawn once, with its recorded length.
	execs := find(events, func(e chromeEvent) bool { return e.Ph == "X" && e.Name == "exec" && e.Cat == "task" })
	if len(execs) != 2 {
		t.Fatalf("got %d exec spans, want 2", len(execs))
	}
	for _, e := range execs {
		if want := map[int][2]float64{1: {30, 10}, 0: {3, 1}}[e.Tid]; e.Ts != want[0] || *e.Dur != want[1] || e.Pid != 1 {
			t.Fatalf("rank %d exec span ts=%v dur=%v pid=%d, want %v on the rank row", e.Tid, e.Ts, *e.Dur, e.Pid, want)
		}
	}
	if execs[0].Args["handle"] != int64(7) {
		t.Fatalf("exec args = %v, want the catalogue's labels", execs[0].Args)
	}

	// The other span kinds go to the occupancy rows.
	occ := find(events, func(e chromeEvent) bool { return e.Cat == "occ" })
	if len(occ) != 1 || occ[0].Name != "queue_lock_held" || occ[0].Ph != "X" || occ[0].Pid != 2 || occ[0].Tid != 1 || *occ[0].Dur != 3 {
		t.Fatalf("occupancy spans: %+v", occ)
	}

	faults := find(events, func(e chromeEvent) bool { return e.Cat == "fault" })
	if len(faults) != 1 || faults[0].Args["kind"] != "delay" {
		t.Fatalf("fault instants: %+v", faults)
	}
	if got := find(events, func(e chromeEvent) bool { return e.Ph == "i" && e.Name == "vote" }); len(got) != 1 {
		t.Fatalf("vote instants: %+v", got)
	}

	// Timestamps are microseconds and globally sorted.
	lastTs := -1.0
	for _, e := range events {
		if e.Ts < lastTs {
			t.Fatalf("events not sorted: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
}

func TestResolveInputsDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, rank := range []int{2, 0, 1} {
		rec := trace.NewRecorder(rank, 1, nil)
		rec.Record(trace.UserEvent, time.Microsecond, time.Microsecond, 0, 0)
		if _, err := rec.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := resolveInputs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for i, p := range paths {
		want := filepath.Join(dir, "trace-rank000"+string(rune('0'+i))+".json")
		if p != want {
			t.Fatalf("paths[%d] = %s, want %s (sorted by rank)", i, p, want)
		}
	}
	if _, err := resolveInputs([]string{t.TempDir()}); err == nil {
		t.Fatal("empty directory must be an error")
	}
}
