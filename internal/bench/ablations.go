package bench

import (
	"fmt"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/uts"
)

// ablationRow is one measured variant of an ablation study: the raw values
// its table formats and TestAblationsQuickGolden pins.
type ablationRow struct {
	variant string
	nodes   int64 // UTS nodes enumerated; 0 where the run does not count them
	elapsed time.Duration
	stats   core.Stats // globally reduced
}

// ablation is one design-choice study: the table's heading, the runs that
// fill it, and how a run becomes a table row.
type ablation struct {
	Table
	measure func() []ablationRow
	cells   func(r ablationRow) []string
}

// Ablations runs the design-choice studies DESIGN.md calls out (beyond the
// split-queue ablation, which IS Figure 7's No-Split series).
func Ablations(quick bool) []*Table {
	var out []*Table
	for _, a := range ablations(quick) {
		t := a.Table
		for _, r := range a.measure() {
			t.Rows = append(t.Rows, a.cells(r))
		}
		out = append(out, &t)
	}
	return out
}

func ablations(quick bool) []ablation {
	tree, n, perRank := uts.TreeMedium, 16, 2000
	if quick {
		tree, n, perRank = uts.TreeSmall, 8, 500
	}
	base := core.Config{ChunkSize: 10, MaxTasks: 1 << 15}
	throughput := func(r ablationRow) []string {
		return []string{r.variant, mnps(r.nodes, r.elapsed), secs(r.elapsed)}
	}
	return []ablation{{
		// The tc_create chunk_sz parameter: too-small chunks steal too
		// often, too-large chunks strip victims and hurt locality.
		Table: Table{
			ID:      "ablation-chunk",
			Title:   fmt.Sprintf("Steal chunk size vs. UTS throughput (P=%d, cluster model)", n),
			Columns: []string{"Chunk", "Mnodes/s", "Elapsed (s)"},
		},
		measure: func() (rows []ablationRow) {
			for _, c := range []int{1, 2, 5, 10, 20, 50} {
				cfg := base
				cfg.ChunkSize = c
				rows = append(rows, utsRun(fmt.Sprint(c), n, tree, cfg, false))
			}
			return rows
		},
		cells: throughput,
	}, {
		// The §5.3 token coloring optimization against always marking
		// victims dirty.
		Table: Table{
			ID:      "ablation-coloring",
			Title:   fmt.Sprintf("Token coloring optimization (§5.3) on UTS (P=%d)", n),
			Columns: []string{"Variant", "Elapsed (s)", "Dirty marks", "Marks elided", "Waves", "Black votes"},
			Notes: []string{
				"the optimization elides thief->victim dirty-marking messages without changing the result",
			},
		},
		measure: func() []ablationRow {
			return []ablationRow{
				coloringRun("optimized", n, tree, false),
				coloringRun("always-mark", n, tree, true),
			}
		},
		cells: func(r ablationRow) []string {
			return []string{
				r.variant, secs(r.elapsed),
				fmt.Sprint(r.stats.DirtyMarksSent), fmt.Sprint(r.stats.DirtyMarksElided),
				fmt.Sprint(r.stats.WavesSeen), fmt.Sprint(r.stats.BlackVotes),
			}
		},
	}, {
		// High-affinity (private-end, depth-first-local) child placement
		// against low-affinity (shared-end, steal-first) placement.
		Table: Table{
			ID:      "ablation-affinity",
			Title:   fmt.Sprintf("Affinity-aware placement on UTS (P=%d)", n),
			Columns: []string{"Child affinity", "Mnodes/s", "Elapsed (s)"},
			Notes: []string{
				"high affinity keeps subtrees local (lock-free private inserts); low affinity funnels every spawn through the shared end's packed word",
			},
		},
		measure: func() []ablationRow {
			return []ablationRow{
				utsRun("high (private end)", n, tree, base, false),
				utsRun("low (shared end)", n, tree, base, true),
			}
		},
		cells: throughput,
	}, {
		// The cost of leaving dynamic load balancing enabled on a
		// pre-balanced workload (Section 3: stealing can be disabled to
		// reduce overhead when the initial placement is trusted).
		Table: Table{
			ID:      "ablation-nosteal",
			Title:   fmt.Sprintf("DisableStealing on a pre-balanced workload (P=%d, %d tasks/rank)", n, perRank),
			Columns: []string{"Load balancing", "Elapsed (s)", "Steal attempts"},
		},
		measure: func() []ablationRow {
			return []ablationRow{
				balancedRun("enabled", n, perRank, false),
				balancedRun("disabled", n, perRank, true),
			}
		},
		cells: func(r ablationRow) []string {
			return []string{r.variant, secs(r.elapsed), fmt.Sprint(r.stats.StealAttempts)}
		},
	}, {
		// The paper's wave-based termination detection against the eager
		// global-counter alternative: the counter detects slightly faster
		// but pays one remote atomic per task, which saturates its host at
		// scale — the reason the paper builds waves.
		Table: Table{
			ID:      "ablation-termination",
			Title:   fmt.Sprintf("Termination detection algorithm on UTS (P=%d)", n),
			Columns: []string{"Detector", "Mnodes/s", "Elapsed (s)", "Counter ops", "Waves"},
		},
		measure: func() (rows []ablationRow) {
			for _, mode := range []core.TerminationMode{core.TermWave, core.TermCounter} {
				cfg := base
				cfg.Termination = mode
				rows = append(rows, utsRun(mode.String(), n, tree, cfg, false))
			}
			return rows
		},
		cells: func(r ablationRow) []string {
			return append(throughput(r), fmt.Sprint(r.stats.TermCounterOps), fmt.Sprint(r.stats.WavesSeen))
		},
	}}
}

// utsRun runs UTS/Scioto once on the cluster model.
func utsRun(variant string, n int, tree uts.Params, cfg core.Config, lowAff bool) ablationRow {
	r := ablationRow{variant: variant}
	mustRun(ClusterWorld(n, 5), func(p pgas.Proc) {
		p.Barrier()
		t0 := p.Now()
		st, ts, err := uts.RunScioto(p, uts.DriverConfig{
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
			r.nodes, r.elapsed, r.stats = st.Nodes, p.Now()-t0, ts
		}
	})
	return r
}

// coloringRun measures UTS with the §5.3 optimization toggled, reporting
// dirty-mark traffic and termination waves.
func coloringRun(variant string, n int, tree uts.Params, disable bool) ablationRow {
	r := ablationRow{variant: variant}
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
			r.elapsed, r.stats = p.Now()-t0, gs
		}
	})
	return r
}

// balancedRun processes perRank 20 µs tasks seeded on every rank, with
// stealing on or off.
func balancedRun(variant string, n, perRank int, disable bool) ablationRow {
	r := ablationRow{variant: variant}
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
			r.elapsed, r.stats = p.Now()-t0, gs
		}
	})
	return r
}
