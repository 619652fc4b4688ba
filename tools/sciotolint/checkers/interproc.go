package checkers

import (
	"go/ast"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// Shared interprocedural machinery for the whole-program analyzers:
// rank-value taint tracking through assignments, helper returns, and call
// arguments, and the walk that finds the rank condition a node sits
// under. The taint follows rank values across calls — `me := rankOf(p)`
// and `helper(p, p.Rank())` both taint the places the rank lands — which
// is what turns the SPMD-divergence check into a whole-program property.

// rankTaint holds the fixpoint result: per function, the set of objects
// (locals and parameters) carrying rank-derived values and whether the
// function returns a rank-derived value; the struct fields ever assigned
// the rank itself, and the functions returning it (isRank).
type rankTaint struct {
	vars        map[*analysis.Func]map[types.Object]bool
	returnsRank map[*analysis.Func]bool
	fields      map[types.Object]bool
	rankFuncs   map[*analysis.Func]bool
}

// computeRankTaint runs the taint fixpoint over the program. Taint
// sources are calls to the pgas Rank method; taint propagates through
// single-assignment (`me := p.Rank()`), through function returns
// (`func rankOf(p pgas.Proc) int { return p.Rank() }` makes every
// `rankOf(p)` call rank-derived), through struct fields (`rt.rank =
// p.Rank()` makes every read of that field rank-derived, whatever the
// struct value: a runtime caches its rank once), and through call
// arguments into callee parameters. Function literals are separate functions and do not inherit
// taint from their definition site (their execution context is unknown),
// matching how the call graph treats them.
func computeRankTaint(prog *analysis.Program) *rankTaint {
	t := &rankTaint{
		vars:        make(map[*analysis.Func]map[types.Object]bool),
		returnsRank: make(map[*analysis.Func]bool),
		fields:      make(map[types.Object]bool),
		rankFuncs:   make(map[*analysis.Func]bool),
	}
	for _, f := range prog.Funcs {
		t.vars[f] = make(map[types.Object]bool)
	}
	funcs := prog.SortedFuncs()
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if t.scanFunc(prog, f) {
				changed = true
			}
		}
	}
	return t
}

// rankExpr reports whether e evaluates to a rank-derived value in f under
// the current taint state.
func (t *rankTaint) rankExpr(prog *analysis.Program, f *analysis.Func, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if name, ok := pgasMethod(f.Pkg.Info, n); ok && name == "Rank" {
				found = true
				return false
			}
			if callee := prog.ResolveCall(f.Pkg, n); callee != nil && t.returnsRank[callee] {
				found = true
				return false
			}
		case *ast.SelectorExpr:
			// A field read is rank-derived by its field alone, not by
			// the struct it is read from.
			if sel, ok := f.Pkg.Info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				found = t.fields[sel.Obj()]
				return false
			}
		case *ast.Ident:
			if obj := useOrDef(f.Pkg.Info, n); obj != nil && t.vars[f][obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isRank reports whether e is the rank itself, not a value computed from
// it: a Rank call, a field holding the rank, or a call of a function
// returning one of those. Only such a value makes the field it is stored
// in a rank field.
func (t *rankTaint) isRank(prog *analysis.Program, f *analysis.Func, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if name, ok := pgasMethod(f.Pkg.Info, e); ok && name == "Rank" {
			return true
		}
		callee := prog.ResolveCall(f.Pkg, e)
		return callee != nil && t.rankFuncs[callee]
	case *ast.SelectorExpr:
		return t.fields[useOrDef(f.Pkg.Info, e.Sel)]
	}
	return false
}

// scanFunc recomputes f's taint facts from the current global state and
// reports whether anything (f's variable set, its returns-rank bit, or a
// callee's parameter taint) changed.
func (t *rankTaint) scanFunc(prog *analysis.Program, f *analysis.Func) bool {
	info := f.Pkg.Info
	changed := false
	mark := func(obj types.Object) {
		if obj != nil && !t.vars[f][obj] {
			t.vars[f][obj] = true
			changed = true
		}
	}
	markField := func(id *ast.Ident) {
		if v, ok := useOrDef(info, id).(*types.Var); ok && v.IsField() && !t.fields[v] {
			t.fields[v] = true
			changed = true
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != f.Lit {
				return false
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if !t.rankExpr(prog, f, rhs) {
						continue
					}
					switch lhs := n.Lhs[i].(type) {
					case *ast.Ident:
						mark(useOrDef(info, lhs))
					case *ast.SelectorExpr:
						if t.isRank(prog, f, rhs) {
							markField(lhs.Sel)
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i, v := range n.Values {
					if t.rankExpr(prog, f, v) {
						mark(useOrDef(info, n.Names[i]))
					}
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && t.isRank(prog, f, n.Value) {
				markField(id)
			}
		case *ast.ReturnStmt:
			if len(n.Results) == 1 && t.isRank(prog, f, n.Results[0]) && !t.rankFuncs[f] {
				t.rankFuncs[f] = true
				changed = true
			}
			for _, res := range n.Results {
				if t.rankExpr(prog, f, res) && !t.returnsRank[f] {
					t.returnsRank[f] = true
					changed = true
				}
			}
		case *ast.CallExpr:
			callee := prog.ResolveCall(f.Pkg, n)
			if callee == nil || callee.Decl == nil {
				break
			}
			params := paramObjects(callee)
			for i, arg := range n.Args {
				if i >= len(params) || params[i] == nil {
					break
				}
				if t.rankExpr(prog, f, arg) && !t.vars[callee][params[i]] {
					t.vars[callee][params[i]] = true
					changed = true
				}
			}
		}
		return true
	}
	ast.Inspect(f.Body(), walk)
	return changed
}

// paramObjects returns the callee's parameter objects in declaration
// order (a variadic tail repeats for the trailing arguments).
func paramObjects(f *analysis.Func) []types.Object {
	var out []types.Object
	if f.Decl == nil || f.Decl.Type.Params == nil {
		return nil
	}
	for _, field := range f.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter: nothing to taint
			continue
		}
		for _, name := range field.Names {
			out = append(out, f.Pkg.Info.Defs[name])
		}
	}
	return out
}

// useOrDef resolves an identifier to its object.
func useOrDef(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// enclosingRankCond walks the enclosing-node stack (innermost last) and
// returns the first controlling condition that rank reports
// rank-dependent, or nil. A node guards the innermost one only if it sits
// in the controlled body, not in the condition or init clause itself. An
// if is skipped when balanced (nil: never) says its arms are congruent.
func enclosingRankCond(stack []ast.Node, rank func(ast.Expr) bool, balanced func(*ast.IfStmt) bool) ast.Expr {
	for i := len(stack) - 2; i >= 0; i-- {
		inner := stack[i+1]
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if (containsNode(n.Body, inner) || containsNode(n.Else, inner)) &&
				rank(n.Cond) && (balanced == nil || !balanced(n)) {
				return n.Cond
			}
		case *ast.ForStmt:
			if n.Cond != nil && containsNode(n.Body, inner) && rank(n.Cond) {
				return n.Cond
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && containsNode(n.Body, inner) && rank(n.Tag) {
				return n.Tag
			}
		case *ast.CaseClause:
			// switch with no tag: `switch { case p.Rank() == 0: ... }`
			for _, e := range n.List {
				if rank(e) && containsStmts(n.Body, inner) {
					return e
				}
			}
		}
	}
	return nil
}

func containsStmts(list []ast.Stmt, inner ast.Node) bool {
	for _, s := range list {
		if containsNode(s, inner) {
			return true
		}
	}
	return false
}

// enclosingMapRange walks the enclosing-node stack (innermost last) and
// returns the first `range` statement over a map that contains the
// innermost node in its body, or nil. Map iteration order is
// unspecified, so anything order-sensitive under it differs across ranks
// and runs.
func enclosingMapRange(info *types.Info, stack []ast.Node) *ast.RangeStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		rs, ok := stack[i].(*ast.RangeStmt)
		if !ok || !containsNode(rs.Body, stack[i+1]) {
			continue
		}
		if tv, ok := info.Types[rs.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return rs
			}
		}
	}
	return nil
}
