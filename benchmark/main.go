// Command benchmark is the repository's performance instrument: four
// whole-application workloads, five end-to-end metrics each, and — in a
// separate traced run — a per-layer ledger. See README.md in this
// directory for what each workload isolates and how to read the output.
//
//	bash benchmark/run.sh --workload uts-ipc --seed 1 --seconds 20 --trace 0
//
// One invocation runs one workload. The ipc and tcp transports launch
// their ranks by re-executing this binary with the same arguments, so the
// program is a deterministic sequence of world launches: a rank process
// replays the sequence, runs the body of the one world it was spawned for
// and exits there; it never reaches the reporting code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"scioto"
	"scioto/internal/bench"
	"scioto/internal/coll"
	"scioto/internal/pgas"
)

// mode selects how a window's world is built and what its ranks record.
type mode int

const (
	plain    mode = iota // no tracing: the end-to-end metrics come from here
	traced               // tracedProc + spans from the benchmark's own files
	observed             // scioto.Config.Obs set: the repo's own observability layer
)

// env is one invocation's configuration.
type env struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	outDir   string
	child    bool // a re-executed ipc/tcp rank process

	worlds int // launches so far; names the files ranks ship results in

	mu     sync.Mutex
	traces []*recorder // in-process ranks deposit their recorders here
}

// window is what rank 0 reports for one timed window.
//
// The host this benchmark runs on is a small guest of a shared machine
// whose processors slow down by up to 1.7x for seconds at a time when a
// neighbour is busy (README.md, "Why times are at reference speed"), so
// a round's wall time says more about the neighbour than about the
// program. Every round therefore carries the time of the baseline that
// was interleaved with it — the same problem, the same instruction mix,
// the same moment — and the time that baseline takes on the reference
// host: their ratio is the host's slowdown during the round, and the
// round's time divided by it is the round's time at reference speed.
type window struct {
	RoundMs    []float64 `json:"round_ms"`         // verified rounds only, as measured
	SerialMs   []float64 `json:"serial_ms"`        // the baseline interleaved with each round, as measured
	RefMs      []float64 `json:"ref_ms,omitempty"` // that baseline on the reference host; absent in virtual time
	RoundTasks []float64 `json:"round_tasks"`      // tasks each round executed
	Tasks      int64     `json:"tasks"`            // their sum
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	// StallMs, when set, marks the rounds that waited out a timer: a
	// round that took longer, as measured, is as long at reference speed.
	StallMs float64 `json:"stall_ms,omitempty"`
	// serve-shm's rounds overlap: RefWallS, when set, is the window's
	// length at reference speed and tasks_per_s is Tasks over it, not the
	// median round's rate; Speedups, when set, are the samples speedup is
	// the median of.
	RefWallS float64            `json:"ref_wall_s,omitempty"`
	Speedups []float64          `json:"speedups,omitempty"`
	WallS    float64            `json:"wall_s"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	Note     string             `json:"note,omitempty"`
}

func (w *window) roundS() float64 { return sum(w.RoundMs) / 1e3 }

// slowdown returns the host's slowdown during each round: 1 on the
// reference host with nothing else running, and in virtual time.
func (w *window) slowdown() []float64 {
	out := make([]float64, len(w.RoundMs))
	for i := range out {
		out[i] = 1
		if i < len(w.RefMs) && w.RefMs[i] > 0 {
			out[i] = w.SerialMs[i] / w.RefMs[i]
		}
	}
	return out
}

// refRoundMs returns the round times at reference speed.
func (w *window) refRoundMs() []float64 {
	out := w.slowdown()
	for i, h := range out {
		if t := w.RoundMs[i]; w.StallMs > 0 && t > w.StallMs {
			out[i] = t
		} else {
			out[i] = t / h
		}
	}
	return out
}

// tasksPerS is the median round's throughput at reference speed.
func (w *window) tasksPerS() float64 {
	if w.RefWallS > 0 {
		return float64(w.Tasks) / w.RefWallS
	}
	var rates []float64
	for i, t := range w.refRoundMs() {
		rates = append(rates, w.RoundTasks[i]/t*1e3)
	}
	return median(rates)
}

// speedup is the median over rounds of baseline time over round time;
// both are measured back to back, so the host's speed cancels.
func (w *window) speedup() float64 {
	sp := w.Speedups
	if sp == nil {
		for i, t := range w.RoundMs {
			sp = append(sp, w.SerialMs[i]/t)
		}
	}
	return median(sp)
}

// rate is the throughput the overhead fractions compare: tasks per wall
// second of simulation on dsim, whose virtual time no observer can move.
func (w *window) rate() float64 {
	if v := w.Layer["pgas.dsim.tasks_per_wall_s"]; v > 0 {
		return v
	}
	return w.tasksPerS()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// tail is the percentile round_tail_ms reports: among p75/p90/p95/p99
	// the highest that leaves at least ten samples beyond it at the
	// workload's round count and still repeats within its bound on a
	// noisy host (p50 where even p75 has fewer than ten beyond).
	tail float64
	// world is the machine the workload runs on.
	world func(e *env) scioto.Config
	// selfSpan, when set, names the span whose ledger self time divided
	// by the task count is core.self_ns_per_task.
	selfSpan string
	// setup runs one fresh set-up/tear-down cycle.
	setup func(e *env)
	// run measures one window of about d in a fresh world.
	run func(e *env, m mode, d time.Duration) *window
}

var workloads = []*workload{utsIPC, scfTCP, serveSHM, utsDsim}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// launch runs body on every rank of the world cfg describes and returns
// what rank 0 handed to report. In a rank process the call either is a
// no-op (an earlier world) or never returns (the rank's own world).
func (e *env) launch(cfg scioto.Config, m mode, body func(p pgas.Proc, rec *recorder, report func(*window))) *window {
	e.worlds++
	launcher := os.Getpid() // names the scratch files, so invocations sharing -out do not collide
	if e.child {
		launcher = os.Getppid()
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("window-%d-%d.json", launcher, e.worlds))
	tracePath := func(rank int) string {
		return filepath.Join(e.outDir, fmt.Sprintf("ranktrace-%d-%d-%d.json", launcher, e.worlds, rank))
	}
	var got *window
	rankBody := func(p pgas.Proc) {
		var rec *recorder
		if m == traced {
			rec = newRecorder(p.Rank(), p.Now)
			p = &tracedProc{Proc: p, r: rec}
		}
		body(p, rec, func(w *window) {
			if e.child {
				must(writeJSON(path, w))
			} else {
				got = w
			}
		})
		if rec == nil {
			return
		}
		if e.child {
			must(writeJSON(tracePath(rec.Rank), rec))
		} else {
			e.mu.Lock()
			e.traces = append(e.traces, rec)
			e.mu.Unlock()
		}
	}
	var err error
	if m == observed {
		cfg.Obs = &scioto.ObsConfig{}
		err = scioto.Run(cfg, func(rt *scioto.Runtime) { rankBody(rt.Proc()) })
	} else {
		var w pgas.World
		if w, err = cfg.NewWorld(); err == nil {
			err = w.Run(rankBody)
		}
	}
	if e.child {
		return nil
	}
	if err != nil {
		fatalf("%s: world %d failed: %v", e.workload, e.worlds, err)
	}
	if got == nil { // multi-process world: rank 0 shipped a file
		got = &window{}
		if err := readJSON(path, got); os.IsNotExist(err) {
			return nil // a set-up cycle: nothing to report
		} else if err != nil {
			fatalf("%s: world %d: %v", e.workload, e.worlds, err)
		}
		os.Remove(path)
		for r := 0; m == traced && r < cfg.Procs; r++ {
			rec := &recorder{}
			must(readJSON(tracePath(r), rec))
			os.Remove(tracePath(r))
			e.traces = append(e.traces, rec)
		}
	}
	return got
}

// roundFns is one batch workload's round, split where the shared loop
// needs to put its clocks.
type roundFns struct {
	warmedUp func()      // every rank, once: warm-up is over, clear counters
	serial   func(i int) // every rank: the single-goroutine baseline, also the expected result
	parallel func(i int) // every rank: the round
	// check, rank 0: the round's verified task count and what its serial
	// baseline takes on the reference host, or what was wrong.
	check func(i int) (tasks int64, refMs float64, err error)
}

// wallRounds is the SPMD loop of a wall-clock batch window: warm rounds
// unrecorded, then rounds until rank 0 has seen d pass, each preceded on
// every rank by the interleaved serial baseline. It returns the window
// (filled in on rank 0 only).
func wallRounds(p pgas.Proc, rec *recorder, comm *coll.Comm, warm int, d time.Duration, f roundFns) *window {
	win := &window{Layer: map[string]float64{}}
	ctl := make([]int64, 1)
	var start time.Time
	for i := 0; ; i++ {
		if i == warm {
			start = time.Now()
			f.warmedUp()
		}
		ctl[0] = 0
		if p.Rank() == 0 && (i < warm || time.Since(start) < d) {
			ctl[0] = 1
		}
		comm.Bcast(ctl, 0)
		if ctl[0] == 0 {
			break
		}
		// The baseline runs on every rank at once, so the host's speed is
		// sampled on each processor the round is about to use.
		t0 := time.Now()
		f.serial(i)
		serial := make([]int64, p.NProcs())
		serial[p.Rank()] = int64(time.Since(t0))
		p.Barrier()
		if rec != nil && i >= warm {
			rec.round = i - warm
			rec.begin("round")
		}
		r0 := p.Now()
		f.parallel(i)
		el := p.Now() - r0
		if rec != nil && i >= warm {
			rec.end()
		}
		comm.AllReduce(serial, coll.Sum)
		if p.Rank() != 0 || i < warm {
			continue
		}
		win.Attempted++
		tasks, refMs, err := f.check(i)
		if err != nil {
			win.Failed++
			win.Note += fmt.Sprintf(" [round %d: %v]", i-warm, err)
			continue
		}
		win.RoundMs = append(win.RoundMs, ms(el))
		win.SerialMs = append(win.SerialMs, harmonicMs(serial))
		win.RefMs = append(win.RefMs, refMs)
		win.RoundTasks = append(win.RoundTasks, float64(tasks))
		win.Tasks += tasks
	}
	win.WallS = time.Since(start).Seconds()
	return win
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// harmonicMs is the harmonic mean of the ranks' baseline times: the time
// one goroutine takes at the mean speed of the processors the ranks ran
// on, which is what a round that balances its load across them sees.
func harmonicMs(ns []int64) float64 {
	var inv float64
	for _, t := range ns {
		inv += 1 / float64(t)
	}
	return float64(len(ns)) / inv / 1e6
}

// takeTraces returns and clears the recorders deposited so far.
func (e *env) takeTraces() []*recorder {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.traces
	e.traces = nil
	sort.Slice(t, func(i, j int) bool { return t[i].Rank < t[j].Rank })
	return t
}

// setupCycles is how many fresh set-up/tear-down cycles setup_s is the
// median of. Fixed, not timed: rank processes replay the launch sequence.
func (e *env) setupCycles() int {
	if e.quick {
		return 5
	}
	return 100
}

// setupRefSpawnS is the reference host's speed on the set-up baseline:
// spawnIdle on an otherwise idle 2-vCPU 2.1 GHz Xeon guest (go1.24), the
// fastest tenth of 2,000 spawns.
const setupRefSpawnS = 3.4e-3

// idleFlag makes the program exit before it does anything.
const idleFlag = "-idle-child"

// spawnIdle is the set-up baseline: two processes of this binary started
// at once, each exiting as soon as the Go runtime is up. It costs what a
// world launch is mostly made of — exec, page faults, runtime start,
// exit, reaping — and none of the repository's code runs in it.
func spawnIdle() {
	exe, err := os.Executable()
	must(err)
	var cmds [2]*exec.Cmd
	for i := range cmds {
		cmds[i] = exec.Command(exe, idleFlag)
		must(cmds[i].Start())
	}
	for _, c := range cmds {
		must(c.Wait())
	}
}

// measureSetup returns set-up time at reference speed: over the set-up
// cycles, the median of the cycle's wall time divided by the host's
// slowdown, which the spawn baseline timed right after the cycle gives.
// A collection is forced between cycles so no cycle pays for its
// predecessor's garbage. The second value is the median cycle as measured.
func measureSetup(e *env, w *workload) (refS, rawS float64) {
	var cycles, atRef []float64
	for i := 0; i < e.setupCycles(); i++ {
		if e.child { // a rank process only replays the launches
			w.setup(e)
			continue
		}
		runtime.GC()
		t0 := time.Now()
		w.setup(e)
		cycle := time.Since(t0).Seconds()
		t0 = time.Now()
		spawnIdle()
		cycles = append(cycles, cycle)
		atRef = append(atRef, cycle/(time.Since(t0).Seconds()/setupRefSpawnS))
	}
	return median(atRef), median(cycles)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEnd(w *workload, win *window, setupS float64) map[string]metric {
	rounds := win.refRoundMs()
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"tasks_per_s":   {win.tasksPerS(), "1/s"},
		"speedup":       {win.speedup(), "x"},
		"round_p50_ms":  {median(rounds), "ms"},
		"round_tail_ms": {quantile(rounds, w.tail), "ms"},
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == idleFlag {
		return
	}
	e := &env{}
	var traceFlag, aa int
	var scan string
	flag.StringVar(&e.workload, "workload", "", "workload: uts-ipc, scf-tcp, serve-shm or uts-dsim64")
	flag.Int64Var(&e.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&e.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, prints the per-layer metrics and the ledger")
	flag.BoolVar(&e.quick, "quick", false, "test-sized inputs (seconds-scale run, numbers not comparable)")
	flag.StringVar(&e.outDir, "out", "benchmark/out", "directory for trace files and rank scratch files")
	flag.IntVar(&aa, "aa", 0, "run this many sets of ten runs per workload (all, or -workload) and report every metric's spread")
	flag.StringVar(&scan, "scan", "", "print the vetted input table of a workload (uts-ipc, scf-tcp, uts-dsim64)")
	flag.Parse()
	e.child = os.Getenv("SCIOTO_IPC_RANK") != "" || os.Getenv("SCIOTO_TCP_RANK") != ""

	if scan != "" {
		scanTable(scan)
		return
	}
	if aa > 0 {
		os.Exit(selfCheck(e, aa))
	}
	w := findWorkload(e.workload)
	if w == nil {
		fatalf("unknown workload %q", e.workload)
	}
	if e.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	abs, err := filepath.Abs(e.outDir)
	must(err)
	e.outDir = abs
	if !e.child {
		must(os.MkdirAll(e.outDir, 0o755))
		// The ipc transport maps a file shared by its ranks; keep it in
		// the benchmark's own directory instead of /dev/shm.
		os.Setenv("SCIOTO_IPC_DIR", e.outDir)
	}

	var out output
	if traceFlag != 0 {
		out = tracedRun(e, w)
	} else {
		setupS, setupRawS := measureSetup(e, w)
		win := w.run(e, plain, time.Duration(e.seconds*float64(time.Second)))
		if e.child {
			return
		}
		out = output{
			Correct:   win.Failed == 0 && win.Attempted > 0,
			Attempted: win.Attempted,
			Failed:    win.Failed,
			Metrics:   endToEnd(w, win, setupS),
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %d rounds (%d failed), %d tasks, window %.2f s; as measured: set-up %.4g ms, round p50 %.4g ms, host slowdown p50 %.3f (p10 %.3f, p90 %.3f)%s\n",
			w.name, e.seed, win.Attempted, win.Failed, win.Tasks, win.WallS, setupRawS*1e3, median(win.RoundMs),
			median(win.slowdown()), quantile(win.slowdown(), 0.1), quantile(win.slowdown(), 0.9), win.Note)
	}
	if e.child {
		return
	}
	printMetrics(w.world(e).Procs, w != utsDsim, out)
	line, err := json.Marshal(out)
	must(err)
	fmt.Println(string(line))
}

// printMetrics writes the human-readable report: the host, then every
// metric by name and unit.
func printMetrics(ranks int, wallClock bool, out output) {
	m := bench.MachineInfo()
	fmt.Fprintf(os.Stderr, "machine: numcpu %d gomaxprocs %d %s %s/%s ranks %d oversubscribed %v\n",
		m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GOOS, m.GOARCH, ranks, wallClock && ranks > m.NumCPU)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
