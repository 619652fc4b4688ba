package main

import (
	"testing"

	"scioto/tools/sciotolint/analysis"
	"scioto/tools/sciotolint/checkers"
)

// TestRepoRunsClean runs the complete analyzer suite — per-package and
// whole-program — over the entire repository and requires zero findings.
// This is the regression test behind `make lint`: any new invariant
// violation or stale suppression fails `go test ./...` too, not just CI's
// lint job.
func TestRepoRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole repository; skipped in -short mode")
	}
	pkgs, err := analysis.Load([]string{"scioto/..."})
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	findings, err := analysis.RunAll(pkgs, checkers.Analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
