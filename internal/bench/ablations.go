package bench

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/uts"
)

// Ablations runs the design-choice studies DESIGN.md calls out (beyond the
// split-queue ablation, which IS Figure 7's No-Split series).
func Ablations(quick bool) []*Table {
	tree := uts.TreeMedium
	p := 16
	if quick {
		tree = uts.TreeSmall
		p = 8
	}
	return []*Table{
		AblationChunk(p, tree, []int{1, 2, 5, 10, 20, 50}),
		AblationColoring(p, tree),
		AblationAffinity(p, tree),
		AblationStealOverhead(p, quick),
		AblationTermination(p, tree),
	}
}

// utsStats runs UTS/Scioto once and returns throughput plus rank-0 local
// task stats and the globally reduced core stats.
func utsRun(n int, tree uts.Params, cfg core.Config, lowAff bool) (nodes int64, elapsed time.Duration, global core.Stats) {
	mustRun(ClusterWorld(n, 5), func(p pgas.Proc) {
		p.Barrier()
		t0 := p.Now()
		st, _, err := uts.RunScioto(p, uts.DriverConfig{
			Tree:                tree,
			PerNodeCost:         OpteronNodeCost,
			TC:                  cfg,
			LowAffinityChildren: lowAff,
		})
		if err != nil {
			panic(err)
		}
		p.Barrier()
		if p.Rank() == 0 {
			nodes = st.Nodes
			elapsed = p.Now() - t0
		}
	})
	// Second pass to reduce stats: rerun would be wasteful; instead gather
	// stats inside the run. Simpler: run again with a stats reduction.
	return nodes, elapsed, global
}

// AblationChunk sweeps the steal chunk size on UTS (the tc_create chunk_sz
// parameter): too-small chunks steal too often, too-large chunks strip
// victims and hurt locality.
func AblationChunk(n int, tree uts.Params, chunks []int) *Table {
	t := &Table{
		ID:      "ablation-chunk",
		Title:   fmt.Sprintf("Steal chunk size vs. UTS throughput (P=%d, cluster model)", n),
		Columns: []string{"Chunk", "Mnodes/s", "Elapsed (s)"},
	}
	for _, c := range chunks {
		nodes, d, _ := utsRun(n, tree, core.Config{ChunkSize: c, MaxTasks: 1 << 15}, false)
		t.Rows = append(t.Rows, []string{fmt.Sprint(c), mnps(nodes, d), secs(d)})
	}
	return t
}

// coloringRun measures UTS with the §5.3 optimization toggled, reporting
// dirty-mark traffic and termination waves.
func coloringRun(n int, tree uts.Params, disable bool) (elapsed time.Duration, g core.Stats) {
	mustRun(ClusterWorld(n, 5), func(p pgas.Proc) {
		rt := core.Attach(p)
		tcCfg := core.Config{
			MaxBodySize:        uts.NodeBytes,
			ChunkSize:          10,
			MaxTasks:           1 << 15,
			DisableColoringOpt: disable,
		}
		tc := core.NewTC(rt, tcCfg)
		statsH := rt.RegisterCLO(&uts.Stats{})
		child := core.NewTask(0, uts.NodeBytes) // one per rank: Add copies in
		h := tc.Register(func(tc *core.TC, t *core.Task) {
			node := uts.DecodeNode(t.Body())
			s := tc.Runtime().CLO(statsH).(*uts.Stats)
			c := s.Visit(tree, node)
			tc.Proc().Compute(OpteronNodeCost)
			for i := 0; i < c; i++ {
				cn := uts.Child(node, i)
				cn.Encode(child.Body())
				if err := tc.Add(tc.Runtime().Rank(), core.AffinityHigh, child); err != nil {
					panic(err)
				}
			}
		})
		child.SetHandle(h)
		p.Barrier()
		t0 := p.Now()
		if p.Rank() == 0 {
			root := core.NewTask(h, uts.NodeBytes)
			rn := tree.Root()
			rn.Encode(root.Body())
			if err := tc.Add(0, core.AffinityHigh, root); err != nil {
				panic(err)
			}
		}
		tc.Process()
		p.Barrier()
		gs := tc.GlobalStats()
		if p.Rank() == 0 {
			elapsed = p.Now() - t0
			g = gs
		}
	})
	return elapsed, g
}

// AblationColoring compares the §5.3 token coloring optimization against
// always marking victims dirty.
func AblationColoring(n int, tree uts.Params) *Table {
	t := &Table{
		ID:      "ablation-coloring",
		Title:   fmt.Sprintf("Token coloring optimization (§5.3) on UTS (P=%d)", n),
		Columns: []string{"Variant", "Elapsed (s)", "Dirty marks", "Marks elided", "Waves", "Black votes"},
		Notes: []string{
			"the optimization elides thief->victim dirty-marking messages without changing the result",
		},
	}
	for _, disable := range []bool{false, true} {
		name := "optimized"
		if disable {
			name = "always-mark"
		}
		d, g := coloringRun(n, tree, disable)
		t.Rows = append(t.Rows, []string{
			name, secs(d),
			fmt.Sprint(g.DirtyMarksSent), fmt.Sprint(g.DirtyMarksElided),
			fmt.Sprint(g.WavesSeen), fmt.Sprint(g.BlackVotes),
		})
	}
	return t
}

// AblationAffinity compares high-affinity (private-end, depth-first-local)
// child placement against low-affinity (shared-end, steal-first) placement.
func AblationAffinity(n int, tree uts.Params) *Table {
	t := &Table{
		ID:      "ablation-affinity",
		Title:   fmt.Sprintf("Affinity-aware placement on UTS (P=%d)", n),
		Columns: []string{"Child affinity", "Mnodes/s", "Elapsed (s)"},
		Notes: []string{
			"high affinity keeps subtrees local (lock-free private inserts); low affinity funnels every spawn through the shared end's packed word",
		},
	}
	for _, low := range []bool{false, true} {
		name := "high (private end)"
		if low {
			name = "low (shared end)"
		}
		nodes, d, _ := utsRun(n, tree, core.Config{ChunkSize: 10, MaxTasks: 1 << 15}, low)
		t.Rows = append(t.Rows, []string{name, mnps(nodes, d), secs(d)})
	}
	return t
}

// AblationStealOverhead measures the cost of leaving dynamic load balancing
// enabled on a perfectly pre-balanced workload (Section 3: stealing can be
// disabled to reduce overhead when the initial placement is trusted).
func AblationStealOverhead(n int, quick bool) *Table {
	perRank := 2000
	if quick {
		perRank = 500
	}
	t := &Table{
		ID:      "ablation-nosteal",
		Title:   fmt.Sprintf("DisableStealing on a pre-balanced workload (P=%d, %d tasks/rank)", n, perRank),
		Columns: []string{"Load balancing", "Elapsed (s)", "Steal attempts"},
	}
	for _, disable := range []bool{false, true} {
		var elapsed time.Duration
		var g core.Stats
		mustRun(ClusterWorld(n, 7), func(p pgas.Proc) {
			rt := core.Attach(p)
			tc := core.NewTC(rt, core.Config{MaxBodySize: 8, MaxTasks: perRank + 8, DisableStealing: disable})
			h := tc.Register(func(tc *core.TC, t *core.Task) {
				tc.Proc().Compute(20 * time.Microsecond)
			})
			task := core.NewTask(h, 8)
			for i := 0; i < perRank; i++ {
				if err := tc.Add(p.Rank(), core.AffinityHigh, task); err != nil {
					panic(err)
				}
			}
			p.Barrier()
			t0 := p.Now()
			tc.Process()
			p.Barrier()
			gs := tc.GlobalStats()
			if p.Rank() == 0 {
				elapsed = p.Now() - t0
				g = gs
			}
		})
		name := "enabled"
		if disable {
			name = "disabled"
		}
		t.Rows = append(t.Rows, []string{name, secs(elapsed), fmt.Sprint(g.StealAttempts)})
	}
	return t
}

// AblationTermination compares the paper's wave-based termination detection
// with the eager global-counter alternative on UTS: the counter detects
// slightly faster but pays one remote atomic per task, which saturates its
// host at scale — the reason the paper builds waves.
func AblationTermination(n int, tree uts.Params) *Table {
	t := &Table{
		ID:      "ablation-termination",
		Title:   fmt.Sprintf("Termination detection algorithm on UTS (P=%d)", n),
		Columns: []string{"Detector", "Mnodes/s", "Elapsed (s)", "Counter ops", "Waves"},
	}
	for _, mode := range []core.TerminationMode{core.TermWave, core.TermCounter} {
		var nodes int64
		var elapsed time.Duration
		var g core.Stats
		mustRun(ClusterWorld(n, 5), func(p pgas.Proc) {
			p.Barrier()
			t0 := p.Now()
			st, ts, err := uts.RunScioto(p, uts.DriverConfig{
				Tree:        tree,
				PerNodeCost: OpteronNodeCost,
				TC: core.Config{
					ChunkSize:   10,
					MaxTasks:    1 << 15,
					Termination: mode,
				},
			})
			if err != nil {
				panic(err)
			}
			p.Barrier()
			if p.Rank() == 0 {
				nodes = st.Nodes
				elapsed = p.Now() - t0
				g = ts
			}
		})
		t.Rows = append(t.Rows, []string{
			mode.String(), mnps(nodes, elapsed), secs(elapsed),
			fmt.Sprint(g.TermCounterOps), fmt.Sprint(g.WavesSeen),
		})
	}
	return t
}
