// Package checkers implements sciotolint's six analyzers. Each one
// machine-checks an invariant of the Scioto runtime's PGAS programming
// model that is otherwise enforced only by comments (see the Proc contract
// in internal/pgas/pgas.go and the split-queue discipline in
// internal/core/queue.go). Four are per-package; two (collcongruence,
// obsdeterminism) are whole-program analyzers over the interprocedural
// call graph.
package checkers

import (
	"go/ast"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// Analyzers is the full sciotolint suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	RelaxedWord,
	NbComplete,
	LocalEscape,
	ProcEscape,
	CollCongruence,
	ObsDeterminism,
}

// pgasPkgName is the package whose interface methods carry the invariants.
// Matching is by package name rather than import path so the analyzers
// work identically on scioto/internal/pgas and on the test fixtures' stub.
// Methods of concrete transport types (pgas/shm, pgas/dsim) deliberately do
// NOT match: the transports implement the contract, they don't consume it.
const pgasPkgName = "pgas"

// pgasMethod reports the method name if call invokes a method declared in
// a package named "pgas" (i.e. a pgas.Proc or pgas.World interface method).
func pgasMethod(info *types.Info, call *ast.CallExpr) (string, bool) {
	return pgasSelector(info, call.Fun)
}

// pgasSelector reports the method name if e selects a method declared in
// a package named "pgas": the callee of a call, or a method value.
func pgasSelector(info *types.Info, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false // package-level function (e.g. pgas.PutF64)
	}
	if fn.Pkg() == nil || fn.Pkg().Name() != pgasPkgName {
		return "", false
	}
	return fn.Name(), true
}

// isProcType reports whether t is the pgas.Proc interface type (possibly
// behind pointers or aliases).
func isProcType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Name() == pgasPkgName
}

// isProcImplMethod reports whether fd declares a method with one of the
// given names on a concrete receiver — a transport or interposing wrapper
// (e.g. pgas/faulty) implementing the Proc contract by delegation. The
// invariants the checkers enforce bind the interface's consumers, not its
// implementations: a wrapper's NbGet forwarding to inner.NbGet is not an
// uncompleted operation, and a wrapper's Local returning inner.Local(seg)
// is not an escaping protocol window — the obligation transfers to the
// wrapper's caller, where the same checkers see it.
func isProcImplMethod(fd *ast.FuncDecl, names ...string) bool {
	if fd.Recv == nil {
		return false
	}
	for _, n := range names {
		if fd.Name.Name == n {
			return true
		}
	}
	return false
}

func containsNode(outer, inner ast.Node) bool {
	if outer == nil || inner == nil {
		return false
	}
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}
