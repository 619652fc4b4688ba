// Sciotolint enforces the Scioto runtime's PGAS and split-queue invariants
// that the Go type system cannot express. It bundles six analyzers; four
// are per-package:
//
//	relaxedword — RelaxedLoad64/RelaxedStore64 on a metadata word that
//	              remote processes write (wShared, wBottom, wDirty): relaxed access
//	              is only legal on owner-private words; and LocalWords outside
//	              package pgas, whose slice reaches every word unseen.
//	nbcomplete  — an issued non-blocking op (NbGet, NbPut, NbLoad64,
//	              NbStore64, NbFetchAdd64, NbCAS64) whose handle is never completed
//	              with Wait or Flush before a return or an Unlock: results
//	              are undefined until completion.
//	localescape — a p.Local(seg) slice stored in a struct field or package
//	              variable, captured by a goroutine, or used across a
//	              Barrier: the slice is only safe inside the protocol
//	              window in which it was obtained.
//	procescape  — a pgas.Proc handed to another goroutine or stored in a
//	              package variable: a Proc is bound to the goroutine that
//	              received it from World.Run.
//
// and two are whole-program, propagating facts through an
// interprocedural call graph over every package, test files included:
//
//	collcongruence — a collective operation (AllocData, AllocWords,
//	              AllocLock, Barrier, World.Run), or a call chain reaching
//	              one, under control flow conditioned (possibly through
//	              parameters and helper returns) on the process rank: the
//	              SPMD mismatched-collective deadlock.
//	obsdeterminism — obs instrument registration reached under
//	              rank-dependent control flow or map iteration: the
//	              schema-hashed cross-rank Merger requires every rank to
//	              register the same instruments in the same order.
//
// Usage:
//
//	go run ./tools/sciotolint ./...                  # findings as text on stderr
//	go run ./tools/sciotolint -o findings.json ./... # and as a JSON array in a file
//
// Findings are suppressed with a justified staticcheck-style directive on
// or directly above the offending line:
//
//	//lint:ignore relaxedword wBottom is read as a hint; callers treat the count as advisory
//
// A directive without a justification is itself reported, and so is a
// stale directive that suppresses no diagnostic.
package main

import (
	"flag"
	"fmt"
	"os"

	"scioto/tools/sciotolint/analysis"
	"scioto/tools/sciotolint/checkers"
)

func main() {
	fs := flag.NewFlagSet("sciotolint", flag.ExitOnError)
	outFile := fs.String("o", "", "also write findings as JSON to this file (text still goes to stderr)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sciotolint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.RunAll(pkgs, checkers.Analyzers)
	if err != nil {
		fatal(err)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		if err := analysis.WriteJSON(f, findings); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sciotolint: %v\n", err)
	os.Exit(1)
}
