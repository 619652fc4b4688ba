// Package analysis is a self-contained reimplementation of the subset of
// golang.org/x/tools/go/analysis that sciotolint needs. The build
// environment for this repository is hermetic (no module proxy), so the
// canonical framework cannot be added to go.mod; this package mirrors its
// API shape — Analyzer, Pass, Diagnostic — on the standard library alone so
// the checkers themselves read exactly like stock go/analysis code and can
// be ported to the real framework by changing one import.
//
// Differences from golang.org/x/tools/go/analysis, all deliberate:
//
//   - No Facts and no Requires graph: cross-package propagation is done
//     instead by whole-program analyzers (RunProgram) over an explicit
//     call graph (see program.go), which is a better fit for sciotolint's
//     global SPMD invariants than per-package fact streams.
//   - Package loading is driver-side (see load.go) via `go list -export`,
//     using the compiler's export data for dependencies instead of
//     go/packages.
//   - Suppression uses staticcheck-style //lint:ignore directives,
//     filtered by the driver (see ignore.go); a directive that suppresses
//     nothing is itself reported as stale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. Exactly one of Run and
// RunProgram is set: Run analyzers see one package at a time, RunProgram
// analyzers see the whole type-checked program with its call graph.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph documentation, shown by `sciotolint -list`.
	Doc string

	// Run applies the analyzer to a single package.
	Run func(*Pass) error

	// RunProgram applies the analyzer to the whole loaded program at once.
	// Analyzers that propagate facts through calls (collective congruence,
	// registration determinism) implement this instead of Run.
	RunProgram func(*ProgramPass) error
}

// A Pass provides one analyzer with the parsed, type-checked view of a
// single package and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Build describes the package's compile unit (sources plus the export
	// data of its dependency closure). Analyzers that re-invoke the
	// compiler (noallocgate) need it; nil when the driver cannot supply
	// one, in which case such analyzers skip the package.
	Build *BuildInfo

	// ForTest marks a test-variant package whose non-test files are also
	// analyzed as the base package. Analyzers whose work is per-unit
	// rather than per-file (noallocgate compiles the unit) skip variants
	// to avoid doing everything twice.
	ForTest bool

	// Report delivers one diagnostic. Set by the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding. The driver attaches the analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// A ProgramPass provides a whole-program analyzer with the loaded,
// type-checked program — every target package over one shared FileSet,
// plus the interprocedural call graph — and a sink for diagnostics.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	// Report delivers one diagnostic. Set by the driver. Pos must belong
	// to Prog.Fset.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns a types.Info with every map the checkers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Preorder calls f for every node in every file, in depth-first order.
func Preorder(files []*ast.File, f func(ast.Node)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n != nil {
				f(n)
			}
			return true
		})
	}
}

// WithStack calls f for every node in every file with the stack of
// enclosing nodes, innermost last (the node itself is stack[len(stack)-1]).
// If f returns false the node's children are skipped.
func WithStack(files []*ast.File, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, file := range files {
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if !f(n, stack) {
				stack = stack[:len(stack)-1]
				// Returning false from ast.Inspect's callback skips the
				// children AND the closing nil callback, so pop here.
				return false
			}
			return true
		}
		ast.Inspect(file, visit)
	}
}
