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

// ReduceStats sums the node and leaf counts of every process's traversal
// statistics and takes the maximum of their depths, in one all-reduce;
// every rank gets the totals. Collective.
func ReduceStats(p pgas.Proc, mine Stats) Stats {
	v := []int64{mine.Nodes, mine.Leaves, mine.MaxDepth}
	p.AllReduce(v, func(acc, in []int64) {
		acc[0] += in[0]
		acc[1] += in[1]
		acc[2] = max(acc[2], in[2])
	})
	return Stats{Nodes: v[0], Leaves: v[1], MaxDepth: v[2]}
}
