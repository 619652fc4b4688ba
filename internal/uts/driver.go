package uts

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
)

// DriverConfig parameterizes a parallel UTS run over a Scioto task
// collection.
type DriverConfig struct {
	Tree Params
	// PerNodeCost is the modeled per-node processing cost (the paper's
	// measured SHA-1 cost: 0.3158 µs/node on the cluster's Opterons,
	// 0.4753 µs on its Xeons, 0.5681 µs on the Cray XT4). On the dsim
	// transport it is charged to virtual time on top of the real hashing.
	PerNodeCost time.Duration
	// TC configures the task collection; MaxBodySize is forced to
	// NodeBytes.
	TC core.Config
	// MaxNodes aborts the traversal if the node count explodes
	// (0 = no limit).
	MaxNodes int64
	// LowAffinityChildren spawns child tasks with AffinityLow instead of
	// AffinityHigh (ablation: disables the locality-aware placement that
	// keeps subtree processing depth-first and local).
	LowAffinityChildren bool
}

// RunScioto traverses the tree with one Scioto task per node, exactly as
// the paper's UTS port does: each task visits its node, counts it into a
// common local object, and spawns one subtask per child. It returns the
// globally reduced tree statistics and the globally reduced task-collection
// statistics (both valid on every rank).
func RunScioto(p pgas.Proc, cfg DriverConfig) (Stats, core.Stats, error) {
	rt := core.Attach(p)
	tcCfg := cfg.TC
	tcCfg.MaxBodySize = NodeBytes
	tc := core.NewTC(rt, tcCfg)

	// Tree statistics are gathered in a common local object on each
	// process (Section 2.3: the mechanism UTS uses to accumulate counts).
	statsH := rt.RegisterCLO(&Stats{})
	var overflow bool

	// One child descriptor per rank, re-encoded for every Add (copy-in).
	child := core.NewTask(0, NodeBytes)
	h := tc.Register(func(tc *core.TC, t *core.Task) {
		n := DecodeNode(t.Body())
		s := tc.Runtime().CLO(statsH).(*Stats)
		c := s.Visit(cfg.Tree, n)
		if cfg.MaxNodes > 0 && s.Nodes > cfg.MaxNodes {
			overflow = true
			return
		}
		if cfg.PerNodeCost > 0 {
			tc.Proc().Compute(cfg.PerNodeCost)
		}
		aff := core.AffinityHigh
		if cfg.LowAffinityChildren {
			aff = core.AffinityLow
		}
		for i := 0; i < c; i++ {
			cn := Child(n, i)
			cn.Encode(child.Body())
			if err := tc.Add(tc.Runtime().Rank(), aff, child); err != nil {
				panic(fmt.Sprintf("uts: add child: %v", err))
			}
		}
	})
	child.SetHandle(h)

	if p.Rank() == 0 {
		root := core.NewTask(h, NodeBytes)
		rn := cfg.Tree.Root()
		rn.Encode(root.Body())
		if err := tc.Add(0, core.AffinityHigh, root); err != nil {
			return Stats{}, core.Stats{}, fmt.Errorf("uts: seed root: %w", err)
		}
	}
	tc.Process()

	global := ReduceStats(p, *rt.CLO(statsH).(*Stats))
	taskStats := tc.GlobalStats()
	if overflow {
		return global, taskStats, fmt.Errorf("uts: per-process node limit %d exceeded", cfg.MaxNodes)
	}
	return global, taskStats, nil
}

// ReduceStats sums per-process traversal statistics on rank 0's scratch
// words and rebroadcasts the totals to every rank. Collective.
func ReduceStats(p pgas.Proc, mine Stats) Stats {
	seg := p.AllocWords(3)
	p.Barrier() // ensure the segment is reset-visible before accumulating
	// The two sums leave as one pipelined batch (their previous values are
	// not needed); only the max-reduce needs a read-check-update loop.
	var o0, o1 int64
	p.NbFetchAdd64(0, seg, 0, mine.Nodes, &o0)
	p.NbFetchAdd64(0, seg, 1, mine.Leaves, &o1)
	p.Flush()
	for {
		cur := p.Load64(0, seg, 2)
		if mine.MaxDepth <= cur || p.CAS64(0, seg, 2, cur, mine.MaxDepth) {
			break
		}
	}
	p.Barrier()
	var nodes, leaves, depth int64
	p.NbLoad64(0, seg, 0, &nodes)
	p.NbLoad64(0, seg, 1, &leaves)
	p.NbLoad64(0, seg, 2, &depth)
	p.Flush()
	return Stats{Nodes: nodes, Leaves: leaves, MaxDepth: depth}
}
