package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"scioto/internal/core"
	"scioto/internal/mpiws"
	"scioto/internal/pgas"
	"scioto/internal/trace"
	"scioto/internal/uts"
)

// UTSOptions scales the Figure 7/8 UTS experiments.
type UTSOptions struct {
	Tree      uts.Params
	ChunkSize int
	MaxTasks  int
	PollEvery int // MPI-WS polling interval (nodes)
}

func (o UTSOptions) withDefaults() UTSOptions {
	if o.Tree.Kind == uts.Geometric && o.Tree.B0 == 0 {
		o.Tree = uts.TreeMedium
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = 10
	}
	if o.MaxTasks == 0 {
		o.MaxTasks = 1 << 15
	}
	if o.PollEvery == 0 {
		o.PollEvery = 8
	}
	return o
}

// utsSeries identifies a Figure 7/8 configuration.
type utsSeries int

const (
	seriesSciotoSplit utsSeries = iota
	seriesSciotoNoSplit
	seriesMPIWS
)

// utsOccTotals sums per-rank occupancy aggregates (virtual-time busy ns)
// across a run. The windows overlap (a steal window encloses its lock
// windows), so these are raw per-resource loads, not a disjoint
// breakdown — the attribution engine in internal/trace does that.
type utsOccTotals struct {
	exec, lock, steal, nic atomic.Int64
}

// pctOf renders ns as a percentage of P ranks times the elapsed window.
func pctOf(ns int64, nprocs int, elapsed time.Duration) string {
	total := int64(nprocs) * int64(elapsed)
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(ns)/float64(total))
}

// runUTSPoint executes one UTS run and returns total nodes, the rank-0
// elapsed virtual time, and (Scioto series only) occupancy totals.
func runUTSPoint(w pgas.World, o UTSOptions, s utsSeries, perNode time.Duration) (int64, time.Duration, *utsOccTotals) {
	var nodes int64
	var elapsed time.Duration
	ot := &utsOccTotals{}
	mustRun(w, func(p pgas.Proc) {
		p.Barrier()
		t0 := p.Now()
		var st uts.Stats
		switch s {
		case seriesSciotoSplit, seriesSciotoNoSplit:
			// One aggregates-only recorder per rank: the runtime layers
			// inherit it through the proc-observer registration and the
			// transport (the dsim NIC model) through the observer. The
			// aggregates are exact at any scale.
			rec := trace.NewRecorder(p.Rank(), 0, nil)
			core.RegisterProcObserver(p, core.NewObserver(p, nil, rec))
			defer core.UnregisterProcObserver(p)
			defer func() {
				ot.exec.Add(rec.BusyNs(trace.Exec))
				ot.lock.Add(rec.BusyNs(trace.QueueLockHeld) + rec.BusyNs(trace.QueueLockWait))
				ot.steal.Add(rec.BusyNs(trace.Steal))
				ot.nic.Add(rec.BusyNs(trace.DsimNIC))
			}()
			mode := core.ModeSplit
			if s == seriesSciotoNoSplit {
				mode = core.ModeLocked
			}
			got, _, err := uts.RunScioto(p, uts.DriverConfig{
				Tree:        o.Tree,
				PerNodeCost: perNode,
				TC: core.Config{
					ChunkSize: o.ChunkSize,
					MaxTasks:  o.MaxTasks,
					QueueMode: mode,
				},
			})
			if err != nil {
				panic(err)
			}
			st = got
		case seriesMPIWS:
			got, _, err := mpiws.Run(p, mpiws.Config{
				Tree:        o.Tree,
				PerNodeCost: perNode,
				Chunk:       o.ChunkSize,
				PollEvery:   o.PollEvery,
			})
			if err != nil {
				panic(err)
			}
			st = got
		}
		p.Barrier()
		if p.Rank() == 0 {
			nodes = st.Nodes
			elapsed = p.Now() - t0
		}
	})
	return nodes, elapsed, ot
}

// Fig7 reproduces Figure 7: UTS throughput on the heterogeneous cluster
// model for Scioto split queues, the MPI work-stealing baseline, and the
// locked no-split ablation.
func Fig7(ps []int, o UTSOptions) *Table {
	o = o.withDefaults()
	if len(ps) == 0 {
		ps = []int{1, 2, 4, 8, 16, 32, 64}
	}
	t := &Table{
		ID:      "fig7",
		Title:   "UTS throughput on the cluster model (millions of nodes/s)",
		Columns: []string{"P", "Split-Queues", "MPI-WS", "No-Split", "Exec%", "Lock%", "Steal%", "NIC%"},
		Notes: []string{
			fmt.Sprintf("tree: %v, %s", o.Tree.Kind, treeSize(o.Tree)),
			"paper: Split-Queues > MPI-WS >> No-Split, whose locked queues collapse as P grows",
			"half the ranks are Opterons (0.316 µs/node), half Xeons (1.5x slower)",
			"occupancy columns: % of P x elapsed; windows overlap (raw loads)",
			"Lock% is the No-Split run (queue lock held + waited for); the others are the split-queue run, which takes no lock",
		},
	}
	for _, n := range ps {
		nodesA, dA, occA := runUTSPoint(ClusterWorld(n, 5), o, seriesSciotoSplit, OpteronNodeCost)
		_, dB, _ := runUTSPoint(ClusterWorld(n, 5), o, seriesMPIWS, OpteronNodeCost)
		_, dC, occC := runUTSPoint(ClusterWorld(n, 5), o, seriesSciotoNoSplit, OpteronNodeCost)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), mnps(nodesA, dA), mnps(nodesA, dB), mnps(nodesA, dC),
			pctOf(occA.exec.Load(), n, dA), pctOf(occC.lock.Load(), n, dC),
			pctOf(occA.steal.Load(), n, dA), pctOf(occA.nic.Load(), n, dA),
		})
	}
	return t
}

// Fig8 reproduces Figure 8: UTS throughput on the Cray XT4 model, Scioto
// vs. the MPI baseline, up to 512 processes.
func Fig8(ps []int, o UTSOptions) *Table {
	if o.Tree.B0 == 0 && o.Tree.Kind == uts.Geometric {
		// Large process counts need a large tree, as in the paper.
		o.Tree = uts.TreeLarge
	}
	o = o.withDefaults()
	if len(ps) == 0 {
		ps = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	}
	t := &Table{
		ID:      "fig8",
		Title:   "UTS throughput on the Cray XT4 model (millions of nodes/s)",
		Columns: []string{"P", "UTS-Scioto", "UTS-MPI", "Exec%", "Steal%", "NIC%"},
		Notes: []string{
			fmt.Sprintf("tree: %v, %s", o.Tree.Kind, treeSize(o.Tree)),
			"paper: both scale near-linearly to 512; Scioto leads by a modest margin (no polling)",
			"occupancy columns: Scioto run, % of P x elapsed; windows overlap (raw loads)",
		},
	}
	for _, n := range ps {
		nodesA, dA, occA := runUTSPoint(XT4World(n, 5), o, seriesSciotoSplit, XT4NodeCost)
		_, dB, _ := runUTSPoint(XT4World(n, 5), o, seriesMPIWS, XT4NodeCost)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), mnps(nodesA, dA), mnps(nodesA, dB),
			pctOf(occA.exec.Load(), n, dA), pctOf(occA.steal.Load(), n, dA), pctOf(occA.nic.Load(), n, dA),
		})
	}
	return t
}

// treeSize describes the tree for table notes (computed once, sequential).
func treeSize(p uts.Params) string {
	s, err := uts.Sequential(p, 1<<24)
	if err != nil {
		return "unenumerable"
	}
	return fmt.Sprintf("%d nodes, depth %d", s.Nodes, s.MaxDepth)
}
