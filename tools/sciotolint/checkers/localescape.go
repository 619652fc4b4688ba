package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// LocalEscape flags p.Local(seg) slices that outlive the protocol window
// that makes them safe.
//
// Local returns this process's own instance of a segment for direct
// access; the caller must guarantee at the protocol level that no remote
// operation concurrently touches the bytes (pgas.go). That guarantee is
// established by the surrounding protocol — typically "between these two
// barriers, only the owner writes this region". A Local slice that is
// stored in a struct field or package variable, captured by a goroutine,
// returned, or simply used on the far side of a Barrier has escaped that
// window: the next protocol phase may hand the same bytes to remote
// writers, and the stale slice becomes a data race that -race can only
// catch if the interleaving happens to occur.
var LocalEscape = &analysis.Analyzer{
	Name: "localescape",
	Doc: "flags p.Local(seg) slices stored in fields, captured by goroutines, " +
		"returned, or used across a Barrier (the slice is only safe inside its protocol window)",
	Run: runLocalEscape,
}

func runLocalEscape(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				// A concrete method named Local is a transport or wrapper
				// implementing the accessor by delegation — returning
				// inner.Local(seg) there is the implementation, not an
				// escape (the caller's window rules still apply at the
				// call site).
				if !isProcImplMethod(fd, "Local") {
					localEscapeFunc(pass, fd.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// localEscapeFunc analyzes one top-level function body, including its
// nested literals (position-based barrier ordering is meaningful within a
// single SPMD body).
func localEscapeFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// localVars: variables bound directly to a p.Local(...) result.
	localVars := make(map[types.Object]token.Pos)
	// barriers: positions of Barrier() calls in this function.
	var barriers []token.Pos

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := pgasMethod(info, n); ok && name == "Barrier" {
				barriers = append(barriers, n.Pos())
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !isLocalCall(info, rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						localVars[obj] = n.Pos()
					} else if obj := info.Uses[id]; obj != nil {
						localVars[obj] = n.Pos()
					}
				}
			}
		}
		return true
	})

	// Direct escapes of the Local(...) call itself.
	analysis.WithStack([]*ast.File{fileOf(pass, body)}, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isLocalCall(info, call) || !containsNode(body, call) {
			return true
		}
		parent := stack[len(stack)-2]
		switch p := parent.(type) {
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if rhs != ast.Expr(call) || i >= len(p.Lhs) {
					continue
				}
				switch lhs := p.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Reportf(call.Pos(),
						"Local slice stored in field %s outlives its protocol window", types.ExprString(lhs))
				case *ast.Ident:
					if obj := info.Uses[lhs]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(call.Pos(),
							"Local slice stored in package variable %s outlives its protocol window", lhs.Name)
					}
				}
			}
		case *ast.KeyValueExpr, *ast.CompositeLit:
			pass.Reportf(call.Pos(), "Local slice stored in a composite literal outlives its protocol window")
		case *ast.ReturnStmt:
			pass.Reportf(call.Pos(), "Local slice returned from the function escapes its protocol window")
		case *ast.CallExpr:
			if len(stack) >= 3 {
				if g, ok := stack[len(stack)-3].(*ast.GoStmt); ok && g.Call == p {
					pass.Reportf(call.Pos(), "Local slice passed to a goroutine escapes its protocol window")
				}
			}
		}
		return true
	})

	// Escapes of variables bound to Local slices.
	reported := make(map[types.Object]bool)
	analysis.WithStack([]*ast.File{fileOf(pass, body)}, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !containsNode(body, id) {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		bindPos, isLocal := localVars[obj]
		if !isLocal || reported[obj] || id.Pos() <= bindPos {
			return true
		}
		// Captured by a goroutine's function literal?
		for i := len(stack) - 2; i >= 0; i-- {
			lit, ok := stack[i].(*ast.FuncLit)
			if !ok || containsNode(lit, bindNode(bindPos)) {
				continue
			}
			if i >= 2 {
				if g, ok := stack[i-2].(*ast.GoStmt); ok && containsNode(g, lit) {
					pass.Reportf(id.Pos(),
						"Local slice %s captured by a goroutine escapes its protocol window", id.Name)
					reported[obj] = true
					return true
				}
			}
		}
		// Used across a Barrier?
		for _, b := range barriers {
			if bindPos < b && b < id.Pos() {
				pass.Reportf(id.Pos(),
					"Local slice %s is used across a Barrier; the protocol window it was obtained in has closed — re-acquire it with Local after the barrier", id.Name)
				reported[obj] = true
				break
			}
		}
		return true
	})
}

// bindNode wraps a position as a zero-width node for containsNode checks.
type posNode token.Pos

func (p posNode) Pos() token.Pos { return token.Pos(p) }
func (p posNode) End() token.Pos { return token.Pos(p) }

func bindNode(p token.Pos) ast.Node { return posNode(p) }

func isLocalCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	name, ok := pgasMethod(info, call)
	return ok && name == "Local"
}

// fileOf returns the *ast.File containing node positions of body.
func fileOf(pass *analysis.Pass, body *ast.BlockStmt) *ast.File {
	for _, f := range pass.Files {
		if containsNode(f, body) {
			return f
		}
	}
	return pass.Files[0]
}
