package pgastest

import (
	"fmt"
	"testing"
	"time"

	"scioto/internal/obs"
	"scioto/internal/pgas"
	"scioto/internal/trace"
)

// testObsMerge: the metrics merge collective must produce the exact global
// view on every transport. Each rank builds a congruent registry, records
// rank-distinct values, and validates the merged closed-form totals — all
// inside the body, so the check also runs in the separate OS processes of
// multi-process transports.
func testObsMerge(t *testing.T, f Factory) {
	const n = 4
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		me := p.Rank()
		reg := obs.NewRegistry(me)
		// Instruments created in the same order on every rank: congruence
		// is what makes the word-level merge meaningful.
		c := reg.Counter("pgastest_ops_total", "test counter")
		g := reg.Gauge("pgastest_depth", "test gauge")
		h := reg.Histogram("pgastest_latency_seconds", "test histogram")

		c.Add(int64(me+1) * 10)
		g.Set(int64(me + 5))
		for i := 0; i < me+1; i++ {
			h.Observe(time.Duration(me+1) * time.Microsecond)
		}

		m := obs.NewMerger(p, reg)
		snap := m.Merge()
		if snap.Ranks() != n {
			panic(fmt.Sprintf("rank %d: merged snapshot covers %d ranks, want %d", me, snap.Ranks(), n))
		}
		var wantC, wantG, wantHC int64
		var wantHS time.Duration
		for r := 0; r < n; r++ {
			wantC += int64(r+1) * 10
			wantG += int64(r + 5)
			wantHC += int64(r + 1)
			wantHS += time.Duration(r+1) * time.Duration(r+1) * time.Microsecond
		}
		if got := snap.Counter("pgastest_ops_total"); got != wantC {
			panic(fmt.Sprintf("rank %d: merged counter %d, want %d", me, got, wantC))
		}
		if got := snap.Gauge("pgastest_depth"); got != wantG {
			panic(fmt.Sprintf("rank %d: merged gauge %d, want %d", me, got, wantG))
		}
		if got := snap.HistCount("pgastest_latency_seconds"); got != wantHC {
			panic(fmt.Sprintf("rank %d: merged hist count %d, want %d", me, got, wantHC))
		}
		if got := snap.HistSum("pgastest_latency_seconds"); got != wantHS {
			panic(fmt.Sprintf("rank %d: merged hist sum %v, want %v", me, got, wantHS))
		}

		// A second merge through the same merger must observe fresh values:
		// each merge reduces the registry as it is, not a construction-time
		// copy.
		c.Inc()
		snap = m.Merge()
		if got := snap.Counter("pgastest_ops_total"); got != wantC+n {
			panic(fmt.Sprintf("rank %d: re-merged counter %d, want %d", me, got, wantC+n))
		}
	})
}

// testOccMerge: the recorder's span aggregates are registry counters, so
// they must merge cross-rank exactly like hand-registered instruments.
// Each rank records a closed-form span pattern into a registry-backed
// trace.Recorder and validates the merged busy-ns and interval-count
// totals per resource — again entirely inside the body, so the check
// exercises the separate OS processes of multi-process transports too.
func testOccMerge(t *testing.T, f Factory) {
	const n = 4
	w := f(n)
	run(t, w, func(p pgas.Proc) {
		me := p.Rank()
		reg := obs.NewRegistry(me)
		b := trace.NewRecorder(me, 64, reg)

		// Rank r: r+1 lock-held intervals of (r+1)µs each, and one
		// task-exec interval of 10·(r+1)µs.
		us := func(k int64) time.Duration { return time.Duration(k) * time.Microsecond }
		for i := int64(0); i <= int64(me); i++ {
			b.Record(trace.QueueLockHeld, us(100*i), us(100*i)+us(int64(me)+1), int64(me), 0)
		}
		b.Record(trace.Exec, 0, us(10*(int64(me)+1)), 0, 0)

		m := obs.NewMerger(p, reg)
		snap := m.Merge()
		if snap.Ranks() != n {
			panic(fmt.Sprintf("rank %d: merged snapshot covers %d ranks, want %d", me, snap.Ranks(), n))
		}
		var wantHeldNs, wantHeldCount, wantExecNs int64
		for r := int64(0); r < n; r++ {
			wantHeldNs += (r + 1) * (r + 1) * 1000
			wantHeldCount += r + 1
			wantExecNs += 10 * (r + 1) * 1000
		}
		heldBusy := `scioto_occ_busy_ns_total{resource="queue_lock_held"}`
		heldCount := `scioto_occ_intervals_total{resource="queue_lock_held"}`
		execBusy := `scioto_occ_busy_ns_total{resource="task_exec"}`
		if got := snap.Counter(heldBusy); got != wantHeldNs {
			panic(fmt.Sprintf("rank %d: merged lock-held busy ns %d, want %d", me, got, wantHeldNs))
		}
		if got := snap.Counter(heldCount); got != wantHeldCount {
			panic(fmt.Sprintf("rank %d: merged lock-held interval count %d, want %d", me, got, wantHeldCount))
		}
		if got := snap.Counter(execBusy); got != wantExecNs {
			panic(fmt.Sprintf("rank %d: merged task-exec busy ns %d, want %d", me, got, wantExecNs))
		}

		// The retained records must agree with the aggregates: me+2
		// spans, none dropped.
		if got := int64(len(b.Records())); got != int64(me)+2 {
			panic(fmt.Sprintf("rank %d: %d retained records, want %d", me, got, me+2))
		}
		if b.Dropped() != 0 {
			panic(fmt.Sprintf("rank %d: unexpected record drops", me))
		}
	})
}

// RunCapabilities checks that wrapping a transport does not change what
// the runtime can ask of it. newWorld must build its worlds wrapped at
// least twice (instr over faulty over the transport, as the facade does);
// inside the body the case unwraps to the bare transport and requires that
// pgas.Find reaches, through the wrappers, the very capability values the
// bare transport offers: the same pgas.Resilient with the same verdict,
// and the same trace.Attacher, so the rank's recorder is delivered to the
// transport or to nobody exactly as it would be unwrapped.
func RunCapabilities(t *testing.T, newWorld Factory) {
	t.Helper()
	run(t, newWorld(2), func(p pgas.Proc) {
		var bare pgas.Kernel = p
		depth := 0
		for {
			w, ok := bare.(interface{ Unwrap() pgas.Kernel })
			if !ok {
				break
			}
			bare, depth = w.Unwrap(), depth+1
		}
		if depth < 2 {
			panic(fmt.Sprintf("world is wrapped %d deep; the case needs instr over faulty", depth))
		}

		res, ok := pgas.Find[pgas.Resilient](p)
		bareRes, bareOK := pgas.Find[pgas.Resilient](bare)
		if ok != bareOK || res != bareRes {
			panic(fmt.Sprintf("Resilient through the wrappers = (%v, %t), bare transport = (%v, %t)", res, ok, bareRes, bareOK))
		}
		if ok {
			fe := &pgas.FaultError{Rank: -1}
			alive, verdict := res.SurviveFault(fe)
			bareAlive, bareVerdict := bareRes.SurviveFault(fe)
			if verdict != bareVerdict || fmt.Sprint(alive) != fmt.Sprint(bareAlive) {
				panic(fmt.Sprintf("SurviveFault through the wrappers = (%v, %t), bare = (%v, %t)", alive, verdict, bareAlive, bareVerdict))
			}
		}

		att, ok := pgas.Find[trace.Attacher](p)
		bareAtt, bareOK := pgas.Find[trace.Attacher](bare)
		if ok != bareOK || att != bareAtt {
			panic(fmt.Sprintf("trace.Attacher through the wrappers = (%v, %t), bare transport = (%v, %t)", att, ok, bareAtt, bareOK))
		}
		if ok {
			att.AttachRecorder(trace.NewRecorder(p.Rank(), 64, obs.NewRegistry(p.Rank())))
		}
		// Traffic with the recorder attached: delivery must not disturb the ops.
		ws := p.AllocWords(1)
		p.Barrier()
		p.FetchAdd64(0, ws, 0, 1)
		p.Barrier()
		if got := p.Load64(0, ws, 0); got != 2 {
			panic(fmt.Sprintf("counter = %d after both ranks incremented it", got))
		}
		if ok {
			att.AttachRecorder(nil)
		}
		p.Barrier()
	})
}
