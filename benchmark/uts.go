package main

import (
	"fmt"
	"math/rand"
	"time"

	"scioto"
	"scioto/internal/bench"
	"scioto/internal/coll"
	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/uts"
)

// utsTC is the task collection both UTS workloads traverse with: one
// task per tree node, steal chunk 10.
func utsTC(maxTasks int) core.Config {
	return core.Config{MaxBodySize: uts.NodeBytes, ChunkSize: 10, MaxTasks: maxTasks}
}

// utsTraversal is one rank's reusable UTS traversal over one task
// collection: the callback of uts.RunScioto (visit, count into a
// per-rank tally, spawn one task per child), kept here so the collection
// is created once and Reset between rounds (pgas has no free).
type utsTraversal struct {
	tc    *core.TC
	h     core.Handle
	comm  *coll.Comm
	tally uts.Stats

	// Traced runs time one callback in sampleEvery: what the callback
	// spends outside tc.Add is the application's share of the phase.
	rec      *recorder
	tick     uint32
	sampled  int64
	userNs   int64
	executed int64
}

func newUTSTraversal(p pgas.Proc, shape uts.Params, nodeCost time.Duration, maxTasks int, rec *recorder) *utsTraversal {
	rt := core.Attach(p)
	u := &utsTraversal{tc: core.NewTC(rt, utsTC(maxTasks)), comm: coll.New(p, 4), rec: rec}
	child := core.NewTask(0, uts.NodeBytes)
	u.h = u.tc.Register(func(tc *core.TC, t *core.Task) {
		var t0, inAdd time.Duration
		u.tick++
		timed := rec != nil && u.tick%sampleEvery == 0
		if timed {
			t0 = p.Now()
		}
		n := uts.DecodeNode(t.Body())
		c := u.tally.Visit(shape, n)
		if nodeCost > 0 {
			p.Compute(nodeCost)
		}
		for i := 0; i < c; i++ {
			cn := uts.Child(n, i)
			cn.Encode(child.Body())
			var a0 time.Duration
			if timed {
				a0 = p.Now()
			}
			if err := tc.Add(p.Rank(), core.AffinityHigh, child); err != nil {
				panic(fmt.Sprintf("benchmark: uts add child: %v", err))
			}
			if timed {
				inAdd += p.Now() - a0
			}
		}
		u.executed++
		if timed {
			u.sampled++
			u.userNs += int64(p.Now() - t0 - inAdd)
		}
	})
	child.SetHandle(u.h)
	return u
}

// round traverses one tree and returns the globally reduced counts; the
// collection is left Reset for the next round.
func (u *utsTraversal) round(p pgas.Proc, tree uts.Params) uts.Stats {
	u.rec.span("core.add", func() {
		if p.Rank() == 0 {
			root := core.NewTask(u.h, uts.NodeBytes)
			rn := tree.Root()
			rn.Encode(root.Body())
			if err := u.tc.Add(0, core.AffinityHigh, root); err != nil {
				panic(fmt.Sprintf("benchmark: uts seed root: %v", err))
			}
		}
	})
	u.rec.span("core.process", u.tc.Process)
	vec := []int64{u.tally.Nodes, u.tally.Leaves, u.tally.MaxDepth}
	u.rec.span("coll.reduce", func() {
		u.comm.AllReduce(vec, func(acc, in []int64) {
			acc[0] += in[0]
			acc[1] += in[1]
			if in[2] > acc[2] {
				acc[2] = in[2]
			}
		})
	})
	u.rec.span("core.reset", u.tc.Reset)
	u.tally = uts.Stats{}
	return uts.Stats{Nodes: vec[0], Leaves: vec[1], MaxDepth: vec[2]}
}

// utsSmokeTree is the 1,130-node tree a set-up cycle ends with.
var utsSmokeTree = uts.Params{Kind: uts.Geometric, RootSeed: 29, B0: 2.0, MaxDepth: 8}

// utsSmokeRound is the body of a UTS set-up cycle: the collective
// structures, a first barrier and one tiny verified traversal, so the
// cycle ends when the world has produced its first result.
func utsSmokeRound(p pgas.Proc, maxTasks int) {
	u := newUTSTraversal(p, utsSmokeTree, 0, maxTasks, nil)
	p.Barrier()
	want, _ := uts.Sequential(utsSmokeTree, 0)
	if got := u.round(p, utsSmokeTree); got != want {
		panic(fmt.Sprintf("benchmark: set-up traversal counted %+v, want %+v", got, want))
	}
}

// finishTrace books the sampled callback time under the phase span, so
// core.process's self time is what core itself spent.
func (u *utsTraversal) finishTrace() {
	if u.rec != nil && u.sampled > 0 {
		u.rec.attribute("core.process", "uts.visit (task callback)", float64(u.userNs)/float64(u.sampled)*float64(u.executed))
	}
}

// coreLayer turns globally reduced task-collection counters into the
// per-layer metrics every workload reports. rankS is the summed time the
// ranks spent inside phases.
func coreLayer(layer map[string]float64, g core.Stats, rankS float64) {
	layer["core.inline_execs"] = float64(g.InlineExecs)
	layer["core.steal_attempts"] = float64(g.StealAttempts)
	layer["core.steals_ok"] = float64(g.StealsOK)
	if g.StealAttempts > 0 {
		layer["core.steal_success_ratio"] = float64(g.StealsOK) / float64(g.StealAttempts)
	}
	if g.StealsOK > 0 {
		layer["core.tasks_per_steal"] = float64(g.TasksStolen) / float64(g.StealsOK)
	}
	layer["core.releases"] = float64(g.Releases)
	layer["core.reacquires"] = float64(g.Reacquires)
	layer["core.td_waves"] = float64(g.WavesSeen)
	layer["core.td_votes"] = float64(g.Votes)
	if rankS > 0 {
		layer["core.idle_frac"] = g.IdleTime.Seconds() / rankS
		layer["core.work_frac"] = g.WorkTime.Seconds() / rankS
	}
}

// shuffled returns the table in an order the seed decides.
func shuffled[T any](table []T, seed int64) []T {
	out := append([]T(nil), table...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---- uts-ipc ---------------------------------------------------------

var utsIPC = &workload{name: "uts-ipc", tail: 0.75, world: utsIPCWorld, selfSpan: "core.process"}

func init() {
	utsIPC.setup = func(e *env) {
		e.launch(utsIPCWorld(e), plain, func(p pgas.Proc, _ *recorder, _ func(*window)) {
			utsSmokeRound(p, utsIPCMaxTasks)
		})
	}
	utsIPC.run = func(e *env, m mode, d time.Duration) *window {
		trees := utsIPCTrees(e)
		return e.launch(utsIPCWorld(e), m, func(p pgas.Proc, rec *recorder, report func(*window)) {
			utsWallWindow(p, rec, trees, d, report)
		})
	}
}

const utsIPCMaxTasks = 1 << 16

// utsRefNodesPerS is the reference host's speed on this workload's
// baseline: uts.Sequential over the geometric trees on both vCPUs at once
// of an otherwise idle 2.1 GHz Xeon guest (go1.24), the fastest tenth of
// 1,200 rounds.
const utsRefNodesPerS = 4.95e6

func utsIPCWorld(e *env) scioto.Config {
	return scioto.Config{Procs: 2, Transport: scioto.TransportIPC, Seed: e.seed}
}

// utsIPCTrees is the run's input: geometric trees (B0 2, depth 16) of
// 285-315 thousand nodes — zero modelled node cost, so a task is ~0.2 µs
// of hashing and the queue path is most of the time — in seed order.
func utsIPCTrees(e *env) []uts.Params {
	shape := uts.Params{Kind: uts.Geometric, B0: 2.0, MaxDepth: 16}
	seeds := geoRootSeeds
	if e.quick {
		shape.MaxDepth = 11
		seeds = seeds[:4]
	}
	trees := make([]uts.Params, len(seeds))
	for i, s := range seeds {
		trees[i] = shape
		trees[i].RootSeed = s
	}
	return shuffled(trees, e.seed)
}

// utsWallWindow is the SPMD body of a wall-clock UTS window: each round
// is preceded on every rank by the single-goroutine traversal of the same
// tree, which is both the speedup baseline and the expected result.
func utsWallWindow(p pgas.Proc, rec *recorder, trees []uts.Params, d time.Duration, report func(*window)) {
	u := newUTSTraversal(p, trees[0], 0, utsIPCMaxTasks, rec)
	tree := func(i int) uts.Params { return trees[i%len(trees)] }
	var want, got uts.Stats
	var serialNodes int64
	win := wallRounds(p, rec, u.comm, 2, d, roundFns{
		warmedUp: u.tc.ClearStats,
		serial:   func(i int) { want, _ = uts.Sequential(tree(i), 0) },
		parallel: func(i int) { got = u.round(p, tree(i)) },
		check: func(i int) (int64, float64, error) {
			if got != want {
				return 0, 0, fmt.Errorf("root %d: counted %+v, want %+v", tree(i).RootSeed, got, want)
			}
			serialNodes += want.Nodes
			return got.Nodes, float64(want.Nodes) / utsRefNodesPerS * 1e3, nil
		},
	})
	u.finishTrace()
	g := u.tc.GlobalStats()
	if p.Rank() == 0 {
		coreLayer(win.Layer, g, float64(p.NProcs())*win.roundS())
		win.Layer["uts.nodes"] = float64(win.Tasks)
		if s := sum(win.SerialMs); s > 0 {
			win.Layer["uts.serial_nodes_per_s"] = float64(serialNodes) / (s / 1e3)
		}
		win.Layer["proc.peak_rss_mb"] = peakRSSMB()
		report(win)
	}
}

// ---- uts-dsim64 ------------------------------------------------------

var utsDsim = &workload{name: "uts-dsim64", tail: 0.50, selfSpan: "core.process",
	world: func(e *env) scioto.Config { return dsimWorld(64, e.seed) }}

// dsimRoundsPerSecond sizes the window: the round count is a function of
// -seconds alone, never of the host's speed, so every virtual-time metric
// repeats exactly. One round (a 64-rank and a 1-rank simulation of a
// ~250,000-node tree) takes about 0.65 s of wall time on the reference host.
const dsimRoundsPerSecond = 1.5

func init() {
	utsDsim.setup = func(e *env) {
		// No smoke traversal here: 64 simulated ranks hunting for 1,130
		// nodes cost more wall time than the rest of the cycle together.
		e.launch(dsimWorld(64, e.seed), plain, func(p pgas.Proc, _ *recorder, _ func(*window)) {
			core.NewTC(core.Attach(p), utsTC(dsimMaxTasks))
			p.Barrier()
		})
	}
	utsDsim.run = utsDsimWindow
}

const dsimMaxTasks = 1 << 13

// dsimWorld is bench.ClusterConfig — the paper's heterogeneous InfiniBand
// cluster calibration — expressed through the facade so the observed
// mode can switch Config.Obs on.
func dsimWorld(n int, seed int64) scioto.Config {
	cc := bench.ClusterConfig(n, seed)
	return scioto.Config{
		Procs: n, Transport: scioto.TransportDSim, Seed: seed,
		Latency: cc.Latency, MsgLatency: cc.MsgLatency, PerByte: cc.PerByte,
		Occupancy: cc.Occupancy, SpeedFactor: cc.SpeedFactor,
	}
}

// dsimResult is one simulated traversal.
type dsimResult struct {
	stats   uts.Stats
	elapsed time.Duration // virtual
	global  core.Stats
}

// dsimTraverse simulates one traversal of tree on n virtual ranks.
func dsimTraverse(e *env, m mode, n int, tree uts.Params, round int) dsimResult {
	var res dsimResult
	e.launch(dsimWorld(n, e.seed+int64(round)), m, func(p pgas.Proc, rec *recorder, _ func(*window)) {
		u := newUTSTraversal(p, tree, bench.OpteronNodeCost, dsimMaxTasks, rec)
		p.Barrier()
		if rec != nil {
			rec.round = round
			rec.begin("round")
		}
		t0 := p.Now()
		got := u.round(p, tree)
		el := p.Now() - t0
		if rec != nil {
			rec.end()
		}
		u.finishTrace()
		g := u.tc.GlobalStats()
		if p.Rank() == 0 {
			res = dsimResult{stats: got, elapsed: el, global: g}
		}
	})
	return res
}

func utsDsimWindow(e *env, m mode, d time.Duration) *window {
	shape := uts.Params{Kind: uts.Binomial, B0: 1000, Q: 0.249999, M: 4}
	seeds := binRootSeeds
	rounds := int(d.Seconds()*dsimRoundsPerSecond + 0.5)
	if e.quick {
		shape.B0 = 100
		seeds = quickBinRootSeeds
	}
	if rounds < 2 {
		rounds = 2
	}
	seeds = shuffled(seeds, e.seed)
	win := &window{Layer: map[string]float64{}}
	var global core.Stats
	var virtS, wall64 float64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		tree := shape
		tree.RootSeed = seeds[i%len(seeds)]
		want, _ := uts.Sequential(tree, 0)
		w0 := time.Now()
		par := dsimTraverse(e, m, 64, tree, i)
		wall64 += time.Since(w0).Seconds()
		one := dsimTraverse(e, plain, 1, tree, i)
		win.Attempted++
		ok := par.stats == want && one.stats == want
		if ok && i == 0 {
			// dsim is bit-deterministic: a repeat must agree to the nanosecond.
			again := dsimTraverse(e, plain, 64, tree, i)
			if m == plain {
				ok = again.elapsed == par.elapsed && again.global == par.global
			} else {
				ok = again.stats == want
			}
		}
		if !ok {
			win.Failed++
			win.Note += fmt.Sprintf(" [round %d root %d: got %+v/%+v want %+v]", i, tree.RootSeed, par.stats, one.stats, want)
			continue
		}
		win.RoundMs = append(win.RoundMs, ms(par.elapsed))
		win.SerialMs = append(win.SerialMs, ms(one.elapsed))
		win.RoundTasks = append(win.RoundTasks, float64(want.Nodes))
		win.Tasks += want.Nodes
		virtS += par.elapsed.Seconds()
		addStats(&global, par.global)
	}
	win.WallS = time.Since(start).Seconds()
	coreLayer(win.Layer, global, 64*virtS)
	win.Layer["uts.nodes"] = float64(win.Tasks)
	if s := sum(win.SerialMs); s > 0 {
		win.Layer["uts.serial_nodes_per_s"] = float64(win.Tasks) / (s / 1e3)
	}
	win.Layer["pgas.dsim.wall_s"] = wall64
	if wall64 > 0 {
		win.Layer["pgas.dsim.tasks_per_wall_s"] = float64(win.Tasks) / wall64
	}
	win.Layer["proc.peak_rss_mb"] = peakRSSMB()
	return win
}

// addStats accumulates the counters coreLayer reads.
func addStats(acc *core.Stats, s core.Stats) {
	acc.InlineExecs += s.InlineExecs
	acc.StealAttempts += s.StealAttempts
	acc.StealsOK += s.StealsOK
	acc.TasksStolen += s.TasksStolen
	acc.Releases += s.Releases
	acc.Reacquires += s.Reacquires
	acc.WavesSeen += s.WavesSeen
	acc.Votes += s.Votes
	acc.IdleTime += s.IdleTime
	acc.WorkTime += s.WorkTime
}
