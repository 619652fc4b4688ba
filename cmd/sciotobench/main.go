// Command sciotobench regenerates the paper's evaluation tables and
// figures on the simulated machines.
//
// Usage:
//
//	sciotobench -exp all                 # every table and figure
//	sciotobench -exp table1              # one experiment
//	sciotobench -exp fig7 -quick         # reduced-size run
//	sciotobench -exp ablations           # design-choice ablation studies
//	sciotobench -exp serve -json         # serve-mode perf artifact (JSON)
//	sciotobench -exp transports -json    # cross-transport perf artifact (JSON)
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, ablations, all
// (the paper evaluation, on dsim), plus serve (the sciotod ingest
// service on shm, real wall clock) and transports (the Table 1 ops on
// shm/ipc/tcp, real wall clock) — neither is part of all.
//
// With -json the tables are emitted as one JSON document instead of
// aligned text, the perf-lab artifact convention: checked-in BENCH_*.json
// files are regenerated with -json and diffed for regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scioto/cmd/internal/transportflag"
	"scioto/internal/bench"
	"scioto/internal/uts"
)

// jsonDoc is the -json output document: the perf-lab artifact schema.
// Machine records the producing host so bench_compare.sh can refuse to
// treat cross-machine drift as a regression silently.
type jsonDoc struct {
	Quick   bool           `json:"quick,omitempty"`
	Machine bench.Machine  `json:"machine"`
	Tables  []*bench.Table `json:"tables"`
}

var (
	jsonOut  bool
	jsonTabs []*bench.Table
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig4|fig5|fig6|fig7|fig8|ablations|serve|transports|all")
	quick := flag.Bool("quick", false, "reduced problem sizes and process counts")
	flag.BoolVar(&jsonOut, "json", false, "emit tables as one JSON document (perf-lab artifact format)")
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
	if *exp == "serve" {
		ran = true
		o := bench.ServeOptions{}
		if *quick {
			o.Probes = 20
			o.Clients = 4
			o.PerClient = 100
		}
		emit(bench.Serve(o))
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
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want table1|fig4|fig5|fig6|fig7|fig8|ablations|serve|transports|all)\n", *exp)
		os.Exit(2)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc{Quick: *quick, Machine: bench.MachineInfo(), Tables: jsonTabs}); err != nil {
			fmt.Fprintf(os.Stderr, "encoding tables: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("total harness time: %s\n", time.Since(start).Round(time.Millisecond))
}

func emit(t *bench.Table) {
	if jsonOut {
		jsonTabs = append(jsonTabs, t)
		return
	}
	var b strings.Builder
	t.Fprint(&b)
	fmt.Print(b.String())
}
