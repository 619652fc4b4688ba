package main

import (
	"fmt"

	"scioto/internal/scf"
	"scioto/internal/uts"
)

// Vetted input tables. UTS tree sizes and SCF integral counts are
// heavy-tailed in their seed (a geometric tree is 1 node or a million),
// so a run does not draw raw seeds: it draws, in the order its -seed
// decides, from seeds vetted to give rounds of one size. Two runs with
// different seeds then measure different inputs of the same weight, and
// their metrics are comparable. `benchmark -scan <workload>` regenerates
// a table; the bands are the scan's arguments below.

// geoRootSeeds: geometric trees (B0 2, depth 16) of 285,000-315,000
// nodes among root seeds 0-3999. Seed 29 is the 300,054-node tree.
var geoRootSeeds = []int{
	29, 44, 94, 247, 269, 282, 338, 369, 378, 410, 561, 597, 610, 667, 721, 782, 845, 980, 1059, 1150,
	1180, 1191, 1233, 1289, 1307, 1363, 1531, 1564, 1580, 1598, 1617, 1656, 1708, 1757, 1781, 1874,
	1886, 1995, 2027, 2080, 2252, 2405, 2421, 2434, 2542, 2569, 2598, 2647, 2656, 2686, 2760, 2773,
	2818, 2855, 2907, 2918, 3087, 3114, 3161, 3195, 3234, 3286, 3357, 3359, 3391, 3397, 3484, 3493,
	3552, 3671, 3723, 3728, 3817, 3852, 3886, 3918, 3945,
}

// binRootSeeds: the first 30 binomial trees (B0 1000, q 0.249999, m 4)
// of 237,500-262,500 nodes among root seeds 0-1999. 30 is the round
// count of a 20 s window, so a default run simulates each tree once.
var binRootSeeds = []int{
	8, 25, 57, 62, 132, 150, 171, 299, 307, 328, 357, 421, 434, 456, 472, 486, 513, 550, 564, 581,
	642, 670, 731, 749, 753, 776, 905, 953, 968, 978,
}

// quickBinRootSeeds: binomial trees (B0 100) of 15,000-30,000 nodes, for
// -quick.
var quickBinRootSeeds = []int{2, 3, 9, 17, 24, 40, 55, 63, 67, 74, 77, 82, 96, 120, 127, 132}

// scfSystemSeeds: 48-atom systems whose one-iteration Fock build
// evaluates 280,000-300,000 integrals, among system seeds 1-399.
var scfSystemSeeds = []int64{
	12, 13, 23, 24, 37, 45, 52, 54, 78, 80, 88, 100, 107, 116, 123, 126, 127, 143, 159, 164, 167, 168,
	186, 199, 209, 225, 228, 231, 237, 246, 250, 255, 260, 262, 294, 301, 310, 320, 341, 352, 366, 382, 393,
}

// scanTable prints the seeds of a workload's vetted table.
func scanTable(workload string) {
	utsBand := func(shape uts.Params, lo, hi int64, seeds int) {
		for s := 0; s < seeds; s++ {
			shape.RootSeed = s
			if st, err := uts.Sequential(shape, hi); err == nil && st.Nodes >= lo {
				fmt.Printf("%d, ", s)
			}
		}
		fmt.Println()
	}
	switch workload {
	case "uts-ipc":
		utsBand(uts.Params{Kind: uts.Geometric, B0: 2.0, MaxDepth: 16}, 285_000, 315_000, 4000)
	case "uts-dsim64":
		bin := uts.Params{Kind: uts.Binomial, B0: 100, Q: 0.249999, M: 4}
		utsBand(bin, 15_000, 30_000, 400) // quickBinRootSeeds
		bin.B0 = 1000
		utsBand(bin, 237_500, 262_500, 2000)
	case "scf-tcp":
		for s := int64(1); s < 400; s++ {
			r := scf.NewSystem(scf.SystemConfig{NAtoms: 48, BlockSize: 4, Seed: s}).SCFSerial(1, 0)
			if r.Integrals >= 280_000 && r.Integrals <= 300_000 {
				fmt.Printf("%d, ", s)
			}
		}
		fmt.Println()
	default:
		fatalf("no vetted table for %q", workload)
	}
}
