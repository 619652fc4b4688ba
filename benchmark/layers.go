package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerMetric names one per-layer metric of the traced run. The list is
// BENCHMARK.json's per_layer, in the same order; a metric that does not
// apply to a workload (scf.* on UTS, pgas.tcp.* off tcp) reads 0 there.
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	// core, queue path: micro-stages, plus the in-workload overhead per task
	{"core.local_insert_us", "us", "lower"}, {"core.local_get_us", "us", "lower"},
	{"core.remote_insert_us", "us", "lower"}, {"core.remote_steal_us", "us", "lower"},
	{"core.add_ns", "ns", "lower"}, {"core.self_ns_per_task", "ns", "lower"}, {"core.inline_execs", "count", "lower"},
	// core, stealing
	{"core.steal_attempts", "count", "lower"}, {"core.steals_ok", "count", "lower"}, {"core.steal_success_ratio", "ratio", "higher"},
	{"core.tasks_per_steal", "count", "higher"}, {"core.releases", "count", "lower"}, {"core.reacquires", "count", "lower"},
	{"core.idle_frac", "ratio", "lower"}, {"core.work_frac", "ratio", "higher"},
	// core, termination detection and phase entry/exit
	{"core.td_waves", "count", "lower"}, {"core.td_votes", "count", "lower"},
	{"core.empty_phase_us", "us", "lower"}, {"core.reset_us", "us", "lower"},
	// pgas and the transport under it
	{"pgas.ops_per_task", "count", "lower"}, {"pgas.busy_frac", "ratio", "lower"},
	{"pgas.get_n", "count", "lower"}, {"pgas.get_us", "us", "lower"}, {"pgas.put_n", "count", "lower"}, {"pgas.put_us", "us", "lower"},
	{"pgas.acc_n", "count", "lower"}, {"pgas.acc_us", "us", "lower"}, {"pgas.atomic_n", "count", "lower"}, {"pgas.atomic_us", "us", "lower"},
	{"pgas.lock_n", "count", "lower"}, {"pgas.lock_us", "us", "lower"}, {"pgas.trylock_fail_ratio", "ratio", "lower"},
	{"pgas.barrier_n", "count", "lower"}, {"pgas.barrier_us", "us", "lower"}, {"pgas.flush_n", "count", "lower"}, {"pgas.flush_us", "us", "lower"},
	{"pgas.msg_n", "count", "lower"}, {"pgas.msg_us", "us", "lower"},
	{"pgas.bytes_get", "B", "lower"}, {"pgas.bytes_put", "B", "lower"}, {"pgas.bytes_acc", "B", "lower"},
	{"pgas.tcp.frames_per_write", "count", "higher"},
	{"pgas.dsim.wall_s", "s", "lower"}, {"pgas.dsim.tasks_per_wall_s", "1/s", "higher"},
	// ga at the SCF block size
	{"ga.get_us", "us", "lower"}, {"ga.acc_us", "us", "lower"}, {"ga.gather_us", "us", "lower"}, {"ga.scatter_us", "us", "lower"},
	// the applications: denominators of speedup
	{"scf.fock_s", "s", "lower"}, {"scf.post_ms", "ms", "lower"}, {"scf.serial_s", "s", "lower"}, {"scf.integrals", "count", "lower"},
	{"uts.serial_nodes_per_s", "1/s", "higher"}, {"uts.nodes", "count", "higher"},
	// serve
	{"serve.submit_ms", "ms", "lower"}, {"serve.first_result_ms", "ms", "lower"}, {"serve.stream_ms", "ms", "lower"},
	{"serve.tasks_per_phase", "count", "higher"}, {"serve.rejected", "count", "lower"},
	// the observers
	{"obs.overhead_frac", "ratio", "lower"}, {"trace.overhead_frac", "ratio", "lower"}, {"proc.peak_rss_mb", "MB", "lower"},
	// the host: how much slower than the reference the interleaved
	// baseline ran during the median round (1 in virtual time)
	{"host.slowdown", "x", "lower"},
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Ledger   *ledger     `json:"ledger"`
	Ranks    []*recorder `json:"ranks"`
}

// tracedRun produces the per-layer metrics: an untraced reference
// window, the traced window, a window under the repo's own observability
// layer, and the micro-stages. The end-to-end metrics never come from
// here.
func tracedRun(e *env, w *workload) output {
	total := time.Duration(e.seconds * float64(time.Second))
	ref := w.run(e, plain, total*3/10)
	tr := w.run(e, traced, total*4/10)
	recs := e.takeTraces()
	ob := w.run(e, observed, total*3/10)
	micro := microStages(e, w.world(e))
	if e.child {
		return output{}
	}

	layer := map[string]float64{}
	for _, src := range []map[string]float64{micro, ob.Layer, tr.Layer} {
		for k, v := range src {
			layer[k] = v
		}
	}
	l := buildLedger(recs)
	var ops, tryN, tryFail int64
	for k := opKind(0); k < numKinds; k++ {
		a := l.Ops[k]
		ops += a.N
		layer["pgas."+kindNames[k]+"_n"] = float64(a.N)
		if a.Sampled > 0 {
			layer["pgas."+kindNames[k]+"_us"] = float64(a.SampledNs) / float64(a.Sampled) / 1e3
		}
	}
	for _, r := range recs {
		tryN += r.TryLock[0]
		tryFail += r.TryLock[1]
	}
	if tryN > 0 {
		layer["pgas.trylock_fail_ratio"] = float64(tryFail) / float64(tryN)
	}
	layer["pgas.bytes_get"] = float64(l.Ops[kGet].Bytes)
	layer["pgas.bytes_put"] = float64(l.Ops[kPut].Bytes)
	layer["pgas.bytes_acc"] = float64(l.Ops[kAcc].Bytes)
	if tr.Tasks > 0 {
		layer["pgas.ops_per_task"] = float64(ops) / float64(tr.Tasks)
		if w.selfSpan != "" {
			layer["core.self_ns_per_task"] = l.rowNs(w.selfSpan) / float64(tr.Tasks)
		}
	}
	if l.WindowNs > 0 {
		layer["pgas.busy_frac"] = l.opsNs() / l.WindowNs
	}
	layer["host.slowdown"] = median(append(append(ref.slowdown(), tr.slowdown()...), ob.slowdown()...))
	if r := ref.rate(); r > 0 {
		layer["trace.overhead_frac"] = 1 - tr.rate()/r
		layer["obs.overhead_frac"] = 1 - ob.rate()/r
	}

	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	must(writeJSON(path, traceFile{Workload: w.name, Seed: e.seed, Ledger: l, Ranks: recs}))
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d rounds (%d failed) over %.2f s; reference %.0f tasks/s, traced %.0f, observed %.0f; spans in %s\n",
		w.name, e.seed, tr.Attempted, tr.Failed, tr.WallS, ref.rate(), tr.rate(), ob.rate(), path)
	l.print(os.Stderr)

	out := output{Metrics: map[string]metric{}}
	for _, win := range []*window{ref, tr, ob} {
		out.Attempted += win.Attempted
		out.Failed += win.Failed
		if win.Note != "" {
			fmt.Fprintln(os.Stderr, "failed rounds:"+win.Note)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, lm := range layerMetrics {
		out.Metrics[lm.name] = metric{layer[lm.name], lm.unit}
	}
	return out
}
