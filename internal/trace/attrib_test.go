package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// occDump builds a dump of span records [kind, start, end, detail] over
// a kind table restricted to the names the test uses, with the
// catalogue's priorities.
func occDump(rank int, names []string, iv [][4]int64) *Dump {
	d := &Dump{Rank: rank}
	for _, n := range names {
		info := KindInfo{Name: n, Prio: 99}
		for _, c := range catalogue {
			if c.Name == n {
				info = c
			}
		}
		d.Kinds = append(d.Kinds, info)
	}
	for _, q := range iv {
		d.Records = append(d.Records, [5]int64{q[0], q[1], q[2], q[3], 0})
	}
	return d
}

func share(ra RankAttrib, resource string) ResourceShare {
	for _, b := range ra.Busy {
		if b.Resource == resource {
			return b
		}
	}
	return ResourceShare{Resource: resource}
}

func TestProjectionIsDisjoint(t *testing.T) {
	// Nested windows: a steal window encloses a lock-held window encloses
	// part of a task-exec stretch. The single-state projection must charge
	// every instant to exactly one resource — the most specific one.
	names := []string{"task_exec", "queue_lock_held", "steal_window"}
	d := occDump(0, names, [][4]int64{
		{0, 0, 100, 1},  // task_exec   [0,100)
		{1, 50, 150, 2}, // lock_held   [50,150)
		{2, 40, 160, 3}, // steal_window[40,160)
	})
	rep, err := Attribute([]*Dump{d}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WindowStartNs != 0 || rep.WindowEndNs != 160 {
		t.Fatalf("hull = [%d,%d), want [0,160)", rep.WindowStartNs, rep.WindowEndNs)
	}
	ra := rep.Ranks[0]
	if got := share(ra, "task_exec").Ns; got != 100 {
		t.Errorf("task_exec = %d ns, want 100 (wins every overlap)", got)
	}
	if got := share(ra, "queue_lock_held").Ns; got != 50 {
		t.Errorf("queue_lock_held = %d ns, want 50 (only past exec's end)", got)
	}
	if got := share(ra, "steal_window").Ns; got != 10 {
		t.Errorf("steal_window = %d ns, want 10 (only past lock's end)", got)
	}
	var sum float64
	for _, b := range ra.Busy {
		sum += b.Fraction
	}
	sum += ra.IdleFraction
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1.0", sum)
	}
	if ra.IdleNs != 0 {
		t.Errorf("idle = %d ns, want 0 (rank always inside some window)", ra.IdleNs)
	}
}

func TestCriticalPathBlame(t *testing.T) {
	// Rank 0 executes [0,100); rank 1 executes [0,50) then waits on the
	// queue lock [50,200). The machine stalls exactly on [100,200), and
	// the blame lands on rank 1's lock wait with its detail word.
	names := []string{"task_exec", "queue_lock_wait"}
	d0 := occDump(0, names, [][4]int64{{0, 0, 100, 0}})
	d1 := occDump(1, names, [][4]int64{
		{0, 0, 50, 0},
		{1, 50, 200, 7},
	})
	rep, err := Attribute([]*Dump{d0, d1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecNs != 100 || rep.StallNs != 100 {
		t.Fatalf("exec/stall = %d/%d, want 100/100", rep.ExecNs, rep.StallNs)
	}
	if rep.TopBottleneck() != "queue_lock_wait" {
		t.Fatalf("top bottleneck = %q, want queue_lock_wait", rep.TopBottleneck())
	}
	bn := rep.Bottlenecks[0]
	if bn.Ns != 100 || bn.Rank != 1 || bn.Detail != 7 {
		t.Errorf("bottleneck = %+v, want ns=100 rank=1 detail=7", bn)
	}
	if math.Abs(bn.Fraction-0.5) > 1e-9 {
		t.Errorf("fraction = %v, want 0.5 of the window", bn.Fraction)
	}
	// Idle tail where NO rank holds any window is idle stall, not blame.
	if rep.IdleNs != 0 {
		t.Errorf("idle stall = %d, want 0", rep.IdleNs)
	}
}

func TestInstantsAreNotAttributed(t *testing.T) {
	// Instants extend the run's hull but are charged to nothing, and each
	// span record is exactly one interval.
	r := NewRecorder(0, 16, nil)
	r.Record(Add, 0, 0, 0, 2)
	r.Record(Exec, 10, 60, 1, 0)
	r.Record(Steal, 60, 90, 2, 5)
	r.Record(Terminate, 100, 100, 1, 0)
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Attribute([]*Dump{d}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ra := rep.Ranks[0]
	if rep.WindowStartNs != 0 || rep.WindowEndNs != 100 || ra.IdleNs != 20 {
		t.Errorf("window [%d,%d) idle %d, want [0,100) idle 20", rep.WindowStartNs, rep.WindowEndNs, ra.IdleNs)
	}
	if got := share(ra, "task_exec"); got.Ns != 50 || got.Intervals != 1 {
		t.Errorf("task_exec = %+v, want 50 ns in 1 interval", got)
	}
	if got := share(ra, "steal_window"); got.Ns != 30 || got.Intervals != 1 {
		t.Errorf("steal_window = %+v, want 30 ns in 1 interval", got)
	}
	if len(ra.Busy) != 2 {
		t.Errorf("busy = %+v, want exec and steal only", ra.Busy)
	}
}

func TestExplicitWindowClips(t *testing.T) {
	names := []string{"task_exec"}
	d := occDump(0, names, [][4]int64{{0, 0, 100, 0}})
	rep, err := Attribute([]*Dump{d}, 25, 75)
	if err != nil {
		t.Fatal(err)
	}
	ra := rep.Ranks[0]
	if got := share(ra, "task_exec").Ns; got != 50 {
		t.Errorf("clipped exec = %d ns, want 50", got)
	}
	if math.Abs(share(ra, "task_exec").Fraction-1.0) > 1e-9 {
		t.Errorf("clipped fraction = %v, want 1.0", share(ra, "task_exec").Fraction)
	}
}

func TestPriorityComesFromTheDump(t *testing.T) {
	// A kind the compiled-in catalogue has never heard of attributes by the
	// priority its own dump gives it: after every more specific resource,
	// so any such window shadows it.
	names := []string{"task_exec", "warp_drive"}
	d := occDump(0, names, [][4]int64{
		{1, 0, 100, 0},
		{0, 0, 50, 0},
	})
	rep, err := Attribute([]*Dump{d}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ra := rep.Ranks[0]
	if got := share(ra, "task_exec").Ns; got != 50 {
		t.Errorf("task_exec = %d ns, want 50", got)
	}
	if got := share(ra, "warp_drive").Ns; got != 50 {
		t.Errorf("warp_drive = %d ns, want 50 (shadowed by exec up to 50)", got)
	}
	// Dumps need not number their kinds alike: resources meet by name.
	d1 := occDump(1, []string{"warp_drive", "task_exec"}, [][4]int64{{0, 0, 100, 0}})
	rep, err = Attribute([]*Dump{d, d1}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := share(rep.Ranks[1], "warp_drive").Ns; got != 100 {
		t.Errorf("rank 1 warp_drive = %d ns, want 100", got)
	}
	// Without a priority-1 kind nothing counts as useful work: all stall.
	rep, err = Attribute([]*Dump{occDump(0, []string{"warp_drive"}, [][4]int64{{0, 0, 100, 0}})}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecNs != 0 || rep.StallNs != 100 || rep.TopBottleneck() != "warp_drive" {
		t.Errorf("exec/stall = %d/%d top %q, want 0/100 warp_drive", rep.ExecNs, rep.StallNs, rep.TopBottleneck())
	}
}

func TestTruncationFlag(t *testing.T) {
	d := occDump(0, []string{"task_exec"}, [][4]int64{{0, 0, 10, 0}})
	d.Dropped = 4
	rep, err := Attribute([]*Dump{d}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.Ranks[0].Dropped != 4 {
		t.Errorf("truncation not reported: %+v", rep.Ranks[0])
	}
}

func TestAttributeDeterministic(t *testing.T) {
	names := []string{"task_exec", "queue_lock_wait", "steal_window"}
	mk := func() []*Dump {
		return []*Dump{
			occDump(1, names, [][4]int64{{0, 0, 80, 0}, {2, 80, 130, 3}}),
			occDump(0, names, [][4]int64{{0, 10, 90, 0}, {1, 90, 130, 2}}),
		}
	}
	a, err := Attribute(mk(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Attribute(mk(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("same dumps, different reports:\n%s\n%s", ja, jb)
	}
	// Rank order in the report is by rank, not input order.
	if a.Ranks[0].Rank != 0 || a.Ranks[1].Rank != 1 {
		t.Errorf("ranks out of order: %d, %d", a.Ranks[0].Rank, a.Ranks[1].Rank)
	}
}

func TestOccupancyTimelineBuckets(t *testing.T) {
	names := []string{"task_exec"}
	d := occDump(0, names, [][4]int64{{0, 0, 100, 0}})
	tl := OccupancyTimeline([]*Dump{d}, 4)
	if tl.BucketNs != 25 {
		t.Fatalf("bucket = %d ns, want 25", tl.BucketNs)
	}
	if len(tl.Ranks) != 1 {
		t.Fatalf("%d rank timelines, want 1", len(tl.Ranks))
	}
	execRow := -1
	for i, n := range tl.Resources {
		if n == "task_exec" {
			execRow = i
		}
	}
	if execRow < 0 {
		t.Fatal("no task_exec row in timeline resources")
	}
	var sum int64
	for b, ns := range tl.Ranks[0].Busy[execRow] {
		if ns != 25 {
			t.Errorf("bucket %d = %d ns, want 25", b, ns)
		}
		sum += ns
	}
	if sum != 100 {
		t.Errorf("bucketed busy sums to %d, want the full 100", sum)
	}
}

func TestAttributeEmptyInput(t *testing.T) {
	if _, err := Attribute(nil, 0, 0); err == nil {
		t.Fatal("expected error on no dumps")
	}
	// A dump with no records: empty hull, empty report, no panic.
	rep, err := Attribute([]*Dump{{Rank: 0}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecNs != 0 || rep.StallNs != 0 || len(rep.Bottlenecks) != 0 {
		t.Errorf("empty run produced a non-empty report: %+v", rep)
	}
}
