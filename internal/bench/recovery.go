package bench

import (
	"fmt"
	"slices"
	"time"

	"scioto/internal/core"
	"scioto/internal/pgas"
	"scioto/internal/pgas/dsim"
	"scioto/internal/uts"
)

// recoveryPoint is one tree of the recovery-tax table: its node count and
// the elapsed virtual time with work-replay recovery off and armed.
type recoveryPoint struct {
	seed       int
	nodes      int64
	off, armed time.Duration
}

// recoveryShape is the table's size: P and the binomial trees' root seeds.
// The full table runs cmd/uts's seeds 1–10 but 6, whose tree exceeds
// 2^26 nodes; the quick one runs the two smallest trees (~250 k and
// ~190 k nodes) at P = 16.
func recoveryShape(quick bool) (n int, seeds []int) {
	if quick {
		return 16, []int{8, 9}
	}
	return 64, []int{1, 2, 3, 4, 5, 7, 8, 9, 10}
}

// recoveryTree is cmd/uts's binomial tree with -b0 1000.
func recoveryTree(seed int) uts.Params {
	return uts.Params{Kind: uts.Binomial, RootSeed: seed, B0: 1000, Q: 0.249999, M: 4}
}

// recoveryPoints runs every tree of the table off and armed.
func recoveryPoints(quick bool) []recoveryPoint {
	n, seeds := recoveryShape(quick)
	var out []recoveryPoint
	for _, s := range seeds {
		pt := recoveryPoint{seed: s}
		var armedNodes int64
		pt.nodes, pt.off = recoveryRun(n, recoveryTree(s), false)
		armedNodes, pt.armed = recoveryRun(n, recoveryTree(s), true)
		if armedNodes != pt.nodes {
			panic(fmt.Sprintf("bench: tree seed %d: %d nodes armed, %d off", s, armedNodes, pt.nodes))
		}
		out = append(out, pt)
	}
	return out
}

// recoveryRun runs binomial UTS once on the cluster model, with recovery
// armed as scioto.Config.Recover arms it (a survivable world, every proc
// registered) or off.
func recoveryRun(n int, tree uts.Params, armed bool) (nodes int64, elapsed time.Duration) {
	cfg := ClusterConfig(n, 5)
	cfg.Survivable = armed
	mustRun(dsim.NewWorld(cfg), func(p pgas.Proc) {
		if armed {
			core.RegisterProcRecovery(p)
			defer core.UnregisterProcRecovery(p)
		}
		p.Barrier()
		t0 := p.Now()
		st, _, err := uts.RunScioto(p, uts.DriverConfig{
			Tree:        tree,
			PerNodeCost: OpteronNodeCost,
			TC:          core.Config{ChunkSize: 10, MaxTasks: 1 << 15},
		})
		if err != nil {
			panic(err)
		}
		p.Barrier()
		if p.Rank() == 0 {
			nodes, elapsed = st.Nodes, p.Now()-t0
		}
	})
	return nodes, elapsed
}

// Recovery measures what arming work-replay recovery costs binomial UTS
// on the cluster model: throughput off and armed per tree, and the tax,
// the share of throughput arming loses.
func Recovery(quick bool) *Table {
	n, _ := recoveryShape(quick)
	t := &Table{
		ID:      "recovery",
		Title:   fmt.Sprintf("Work-replay recovery tax on binomial UTS (P=%d, cluster model)", n),
		Columns: []string{"Tree seed", "Nodes", "Off (Mnodes/s)", "Armed (Mnodes/s)", "Tax %"},
		Notes: []string{
			"trees: binomial, b0 = 1000, q = 0.249999, m = 4 (cmd/uts -kind binomial -b0 1000 -seed s)",
			"tax: 1 - armed/off throughput; armed = scioto.Config.Recover's survivable world and journal",
		},
	}
	var taxes []float64
	for _, pt := range recoveryPoints(quick) {
		tax := 100 * (1 - float64(pt.off)/float64(pt.armed))
		taxes = append(taxes, tax)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(pt.seed), fmt.Sprint(pt.nodes),
			mnps(pt.nodes, pt.off), mnps(pt.nodes, pt.armed), fmt.Sprintf("%.1f", tax),
		})
	}
	slices.Sort(taxes)
	m := len(taxes) / 2
	median := taxes[m]
	if len(taxes)%2 == 0 {
		median = (taxes[m-1] + taxes[m]) / 2
	}
	t.Rows = append(t.Rows, []string{"median", "", "", "", fmt.Sprintf("%.1f", median)})
	return t
}
