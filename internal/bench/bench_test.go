package bench

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/uts"
)

// TestTransportsShapeAndOrdering runs `sciotobench -exp transports -quick`
// and holds what is host-independent about it: four operations on three
// transports, every cell a positive number, and a steal over ipc's shared
// mapping cheaper than one over tcp's loopback sockets.
//
// It spawns real OS processes — the ipc and tcp worlds re-execute this test
// binary once per rank (internal/pgas/launch) — and every rank process runs
// the tests declared before the one that creates its world. So this test
// stays the first in the package's first test file, nothing here may run
// in parallel, and no other test of the package creates an ipc or tcp
// world.
func TestTransportsShapeAndOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns four rank processes; skipped in -short")
	}
	tb := Transports(Table1Options{Iters: 100})
	if len(tb.Rows) != 4 || len(tb.Columns) != 4 {
		t.Fatalf("want 4 operations x (name + 3 transports):\n%s", tb)
	}
	steal := map[string]float64{} // Remote Steal µs by transport
	for _, row := range tb.Rows {
		for i, c := range row[1:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil || v <= 0 {
				t.Errorf("%s on %s: cell %q is not a positive number", row[0], tb.Columns[i+1], c)
			}
			if row[0] == "Remote Steal" {
				steal[tb.Columns[i+1]] = v
			}
		}
	}
	if steal["ipc"] >= steal["tcp"] {
		t.Errorf("ipc Remote Steal %.4f µs is not below tcp's %.4f µs", steal["ipc"], steal["tcp"])
	}
	t.Logf("\n%s", tb)
}

// Small-scale smoke runs of every experiment: shapes must hold even at
// reduced size.

func TestTable1Smoke(t *testing.T) {
	tb := Table1(Table1Options{Iters: 50})
	s := tb.String()
	if !strings.Contains(s, "Remote Steal") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	t.Logf("\n%s", s)
}

func TestTable1Ordering(t *testing.T) {
	o := Table1Options{Iters: 50}.withDefaults()
	cl := measureOpsOn(ClusterWorld(2, 1), o)
	if cl.LocalInsert >= cl.RemoteInsert {
		t.Errorf("local insert (%v) should be far cheaper than remote insert (%v)", cl.LocalInsert, cl.RemoteInsert)
	}
	if cl.LocalGet >= cl.RemoteSteal {
		t.Errorf("local get (%v) should be far cheaper than a steal (%v)", cl.LocalGet, cl.RemoteSteal)
	}
	if cl.LocalInsert > 2*time.Microsecond {
		t.Errorf("local insert should be sub-2µs, got %v", cl.LocalInsert)
	}
	// Two rounds of the cluster model's 2.9 µs latency and a 1 kB Put: the
	// split queue adds without the queue lock, whose two more round trips
	// put the paper's insert at ~18 µs (EXPERIMENTS.md, Table 1).
	if cl.RemoteInsert < 5*time.Microsecond || cl.RemoteInsert > 40*time.Microsecond {
		t.Errorf("remote insert should cost about two network round trips, got %v", cl.RemoteInsert)
	}
	if cl.RemoteSteal < cl.RemoteInsert {
		t.Errorf("steal (%v) should cost at least a remote insert (%v)", cl.RemoteSteal, cl.RemoteInsert)
	}
}

func TestFig4Shape(t *testing.T) {
	p2 := MeasureFig4Point(2, 4)
	p16 := MeasureFig4Point(16, 4)
	if p16.ARMCIBar <= p2.ARMCIBar {
		t.Errorf("barrier cost must grow with P: %v vs %v", p2.ARMCIBar, p16.ARMCIBar)
	}
	if p16.Termination <= 0 {
		t.Errorf("termination estimate should be positive, got %v", p16.Termination)
	}
	// Detection should be within a small multiple of the barrier cost.
	if p16.Termination > 20*p16.ARMCIBar {
		t.Errorf("termination (%v) wildly above barrier (%v)", p16.Termination, p16.ARMCIBar)
	}
	t.Logf("P=2 %+v", p2)
	t.Logf("P=16 %+v", p16)
}

func TestFig56Shape(t *testing.T) {
	o := AppSweepOptions{
		Ps:       []int{1, 8},
		SCFAtoms: 24, SCFBlock: 4, SCFMaxIter: 2,
	}
	o.TCEParams.NB = 10
	o.TCEParams.BS = 4
	o.TCEParams.Density = 0.4
	o.TCEParams.Band = 1
	o.TCEParams.Seed = 11
	s := RunAppSweep(o)
	t.Logf("\n%s\n%s", s.Fig5(), s.Fig6())
	// Both methods must speed up from 1 to 8 processes.
	if s.SCF[1] >= s.SCF[0] {
		t.Errorf("scioto SCF did not speed up: %v -> %v", s.SCF[0], s.SCF[1])
	}
	if s.TCE[1] >= s.TCE[0] {
		t.Errorf("scioto TCE did not speed up: %v -> %v", s.TCE[0], s.TCE[1])
	}
}

func TestFig7Shape(t *testing.T) {
	o := UTSOptions{Tree: uts.TreeSmall}.withDefaults()
	nodes, d1, occ1 := runUTSPoint(ClusterWorld(1, 5), o, seriesSciotoSplit, OpteronNodeCost)
	if nodes == 0 {
		t.Fatal("no nodes enumerated")
	}
	_, d8split, occ8 := runUTSPoint(ClusterWorld(8, 5), o, seriesSciotoSplit, OpteronNodeCost)
	_, d8mpi, _ := runUTSPoint(ClusterWorld(8, 5), o, seriesMPIWS, OpteronNodeCost)
	_, d8lock, _ := runUTSPoint(ClusterWorld(8, 5), o, seriesSciotoNoSplit, OpteronNodeCost)
	t.Logf("P=1 split %v; P=8 split %v mpi %v locked %v", d1, d8split, d8mpi, d8lock)
	if d8split >= d1 {
		t.Errorf("split queues did not speed up: %v -> %v", d1, d8split)
	}
	if d8lock < d8split {
		t.Errorf("locked queues (%v) should not beat split queues (%v)", d8lock, d8split)
	}
	// Occupancy plumbing: the run must have charged task execution, and a
	// single-rank run (no victims to steal from) must charge virtually all
	// of its busy time to exec.
	if occ1.exec.Load() == 0 || occ8.exec.Load() == 0 {
		t.Errorf("occupancy totals missing task execution: P=1 %d ns, P=8 %d ns",
			occ1.exec.Load(), occ8.exec.Load())
	}
	if occ8.steal.Load() == 0 {
		t.Errorf("8-rank run recorded no steal-window occupancy")
	}
}

var update = flag.Bool("update", false, "re-record testdata/*.golden from this run")

// checkGolden compares got with the recorded file, after re-recording it
// under -update. dsim is deterministic, so the virtual times in these
// files repeat to the nanosecond on any host: a difference is a change to
// what the runtime, an application or the machine model charges. A PR that
// means to move them re-records with
//
//	go test ./internal/bench -run Golden -update
//
// and says why in EXPERIMENTS.md; the diff of the golden file then shows
// which columns moved and which did not.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("virtual time moved (re-record with -update if it was meant to):\ngot:\n%swant:\n%s", got, want)
	}
}

// TestFig56QuickGolden pins the application figures in virtual time: the
// -quick Figure 5/6 sweep must reproduce the elapsed times recorded in
// testdata/fig56_quick.golden.
func TestFig56QuickGolden(t *testing.T) {
	s := RunAppSweep(QuickAppSweep())
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp fig5 -quick`; see TestFig56QuickGolden\n")
	for i, n := range s.Ps {
		fmt.Fprintf(&b, "P=%d SCF=%d SCF-Original=%d TCE=%d TCE-Original=%d\n",
			n, s.SCF[i], s.SCFOrig[i], s.TCE[i], s.TCEOrig[i])
	}
	checkGolden(t, "testdata/fig56_quick.golden", b.String())
}

// TestFig7QuickGolden pins the three UTS series of `sciotobench -exp fig7
// -quick` in virtual time. The MPI-WS and No-Split columns are the paper's
// baselines: a change to the split queue must leave them as recorded.
func TestFig7QuickGolden(t *testing.T) {
	o := UTSOptions{Tree: uts.TreeSmall}.withDefaults()
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp fig7 -quick`; see TestFig7QuickGolden\n")
	for _, n := range []int{1, 2, 4, 8} {
		nodes, split, _ := runUTSPoint(ClusterWorld(n, 5), o, seriesSciotoSplit, OpteronNodeCost)
		_, mpi, _ := runUTSPoint(ClusterWorld(n, 5), o, seriesMPIWS, OpteronNodeCost)
		_, locked, _ := runUTSPoint(ClusterWorld(n, 5), o, seriesSciotoNoSplit, OpteronNodeCost)
		fmt.Fprintf(&b, "P=%d nodes=%d Split-Queues=%d MPI-WS=%d No-Split=%d\n", n, nodes, split, mpi, locked)
	}
	checkGolden(t, "testdata/fig7_quick.golden", b.String())
}

// TestTable1Golden pins the two model columns of `sciotobench -exp table1`
// in virtual time (the microbenchmark runs on a split queue; the shm
// column is wall-clock and not recorded).
func TestTable1Golden(t *testing.T) {
	o := Table1Options{}.withDefaults()
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp table1`, model columns; see TestTable1Golden\n")
	for _, m := range []struct {
		name string
		w    pgas.World
	}{{"cluster", ClusterWorld(2, 1)}, {"xt4", XT4World(2, 1)}} {
		tm := measureOpsOn(m.w, o)
		fmt.Fprintf(&b, "%s LocalInsert=%d RemoteInsert=%d LocalGet=%d RemoteSteal=%d\n", m.name,
			tm.LocalInsert, tm.RemoteInsert, tm.LocalGet, tm.RemoteSteal)
	}
	checkGolden(t, "testdata/table1.golden", b.String())
}

// TestFig4QuickGolden pins `sciotobench -exp fig4 -quick` in virtual time:
// termination detection beside both barrier flavours.
func TestFig4QuickGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp fig4 -quick`; see TestFig4QuickGolden\n")
	for _, n := range []int{1, 2, 4, 8} {
		pt := MeasureFig4Point(n, 10)
		fmt.Fprintf(&b, "P=%d Termination=%d ARMCI-Barrier=%d MPI-Barrier=%d\n", n,
			pt.Termination, pt.ARMCIBar, pt.MPIBar)
	}
	checkGolden(t, "testdata/fig4_quick.golden", b.String())
}

// TestFig8QuickGolden pins both UTS series of `sciotobench -exp fig8
// -quick` on the XT4 model in virtual time.
func TestFig8QuickGolden(t *testing.T) {
	o := UTSOptions{Tree: uts.TreeSmall}.withDefaults()
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp fig8 -quick`; see TestFig8QuickGolden\n")
	for _, n := range []int{1, 4, 16, 64} {
		nodes, scioto, _ := runUTSPoint(XT4World(n, 5), o, seriesSciotoSplit, XT4NodeCost)
		_, mpi, _ := runUTSPoint(XT4World(n, 5), o, seriesMPIWS, XT4NodeCost)
		fmt.Fprintf(&b, "P=%d nodes=%d UTS-Scioto=%d UTS-MPI=%d\n", n, nodes, scioto, mpi)
	}
	checkGolden(t, "testdata/fig8_quick.golden", b.String())
}

// TestAblationsQuickGolden pins every row of `sciotobench -exp ablations
// -quick`: elapsed virtual ns and the globally reduced counters the five
// tables are formatted from.
func TestAblationsQuickGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# virtual ns and counters of `sciotobench -exp ablations -quick`; see TestAblationsQuickGolden\n")
	for _, a := range ablations(true) {
		for _, r := range a.measure() {
			s := r.stats
			fmt.Fprintf(&b, "%s %q nodes=%d elapsed=%d steal_attempts=%d steals_ok=%d tasks_stolen=%d"+
				" dirty_marks=%d marks_elided=%d waves=%d black_votes=%d counter_ops=%d\n",
				a.ID, r.variant, r.nodes, r.elapsed, s.StealAttempts, s.StealsOK, s.TasksStolen,
				s.DirtyMarksSent, s.DirtyMarksElided, s.WavesSeen, s.BlackVotes, s.TermCounterOps)
		}
	}
	checkGolden(t, "testdata/ablations_quick.golden", b.String())
}

// TestRecoveryQuickGolden pins `sciotobench -exp recovery -quick`: each
// tree's nodes and elapsed virtual ns with recovery off and armed, so a
// change to what arming costs shows as a moved armed column.
func TestRecoveryQuickGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# virtual ns of `sciotobench -exp recovery -quick`; see TestRecoveryQuickGolden\n")
	for _, pt := range recoveryPoints(true) {
		fmt.Fprintf(&b, "seed=%d nodes=%d off=%d armed=%d\n", pt.seed, pt.nodes, pt.off, pt.armed)
	}
	checkGolden(t, "testdata/recovery_quick.golden", b.String())
}

// TestCounterAblationTerminates runs the full-size counter row of
// `sciotobench -exp ablations` (P = 16: two victims a round and a blocking
// counter update per task) under a bound of about eight times its virtual
// time. Every passive rank polls the counter's host while the working
// ranks update it; if the host's interface let later polls overtake an
// update, the run would never detect termination.
func TestCounterAblationTerminates(t *testing.T) {
	want, err := uts.Sequential(uts.TreeMedium, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig(16, 5)
	cfg.MaxVirtualTime = time.Second
	var nodes int64
	if err := dsim.NewWorld(cfg).Run(func(p pgas.Proc) {
		st, _, err := uts.RunScioto(p, uts.DriverConfig{
			Tree:        uts.TreeMedium,
			PerNodeCost: OpteronNodeCost,
			TC:          core.Config{ChunkSize: 10, MaxTasks: 1 << 15, Termination: core.TermCounter},
		})
		if err != nil {
			panic(err)
		}
		if p.Rank() == 0 {
			nodes = st.Nodes
		}
	}); err != nil {
		t.Fatal(err)
	}
	if nodes != want.Nodes {
		t.Errorf("counted %d nodes, want %d", nodes, want.Nodes)
	}
}
