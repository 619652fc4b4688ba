// Command sciotobench regenerates the paper's evaluation tables and
// figures on the simulated machines.
//
// Usage:
//
//	sciotobench -exp all                 # every table and figure
//	sciotobench -exp table1              # one experiment
//	sciotobench -exp fig7 -quick         # reduced-size run
//	sciotobench -exp ablations           # design-choice ablation studies
//	sciotobench -exp recovery            # the tax of arming work-replay recovery
//	sciotobench -exp transports          # Table 1's ops on shm, ipc and tcp
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, ablations, recovery,
// all (the paper evaluation and those two extensions, on dsim), plus
// transports (the Table 1 ops on shm/ipc/tcp, real wall clock), which is
// not part of all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"scioto/cmd/internal/transportflag"
	"scioto/internal/bench"
	"scioto/internal/uts"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig4|fig5|fig6|fig7|fig8|ablations|recovery|transports|all")
	quick := flag.Bool("quick", false, "reduced problem sizes and process counts")
	obs := transportflag.ObsFlags()
	flag.Parse()
	// The bench package constructs its own worlds; publish the flags
	// through the environment fallback instead of a Config field.
	obs.Export()

	want := func(name string) bool {
		return *exp == "all" || *exp == name ||
			(*exp == "fig5" && name == "fig6") || (*exp == "fig6" && name == "fig5")
	}
	ran := false
	start := time.Now()

	if want("table1") {
		ran = true
		emit(bench.Table1(bench.Table1Options{}))
	}
	if want("fig4") {
		ran = true
		ps := []int{1, 2, 4, 8, 16, 32, 64}
		if *quick {
			ps = []int{1, 2, 4, 8}
		}
		emit(bench.Fig4(ps, 10))
	}
	if want("fig5") || want("fig6") {
		ran = true
		o := bench.AppSweepOptions{}
		if *quick {
			o = bench.QuickAppSweep()
		}
		sweep := bench.RunAppSweep(o)
		if want("fig5") {
			emit(sweep.Fig5())
		}
		if want("fig6") {
			emit(sweep.Fig6())
		}
	}
	if want("fig7") {
		ran = true
		ps := []int{1, 2, 4, 8, 16, 32, 64}
		o := bench.UTSOptions{}
		if *quick {
			ps = []int{1, 2, 4, 8}
			o.Tree = uts.TreeSmall
		}
		emit(bench.Fig7(ps, o))
	}
	if want("fig8") {
		ran = true
		ps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
		o := bench.UTSOptions{}
		if *quick {
			ps = []int{1, 4, 16, 64}
			o.Tree = uts.TreeSmall
		}
		emit(bench.Fig8(ps, o))
	}
	if want("ablations") {
		ran = true
		for _, t := range bench.Ablations(*quick) {
			emit(t)
		}
	}
	if want("recovery") {
		ran = true
		emit(bench.Recovery(*quick))
	}
	if *exp == "transports" {
		// Not part of all: the ipc and tcp worlds launch rank processes
		// that re-execute this binary, and the rank processes must reach
		// bench.Transports without the launcher's other experiments
		// running first (their in-process worlds would desynchronize
		// nothing, but would burn minutes per rank).
		ran = true
		o := bench.Table1Options{}
		if *quick {
			o.Iters = 100
		}
		emit(bench.Transports(o))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want table1|fig4|fig5|fig6|fig7|fig8|ablations|recovery|transports|all)\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("total harness time: %s\n", time.Since(start).Round(time.Millisecond))
}

func emit(t *bench.Table) { t.Fprint(os.Stdout) }
