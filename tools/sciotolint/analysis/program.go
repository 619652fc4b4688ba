package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program view for interprocedural analyzers.
//
// A Program joins every loaded target package (over the shared FileSet)
// into one function table and a static call graph. Functions are keyed by
// their types.Func full name — e.g. `scioto/internal/core.NewObserver` or
// `(*scioto/internal/core.taskQueue).steal` — which is identical whether
// the object came from type-checking the defining package's source or
// from a dependency's export data, so call edges resolve across package
// boundaries without a facts protocol. A test variant type-checks under
// go list's `p [p.test]` path; funcKey drops that suffix, so the variant's
// functions take the keys every importer of p resolves calls to.
//
// Function literals are separate nodes: a closure's body is analyzed as
// its own (anonymous) function, and its calls do not contribute to the
// enclosing function's summary. This is deliberate and matches the
// per-package analyzers: a literal is typically a task body or World.Run
// SPMD body whose execution context differs from its definition site, so
// attributing its effects to the definer would be wrong in both
// directions. The one statically certain case — an immediately invoked
// literal `func(){...}()` — is resolved as a normal call edge.

// A Func is one analyzable function body: a declared function or method,
// or a function literal.
type Func struct {
	// Key is the function's unique name in the Program. For declared
	// functions it is funcKey's; literals get a synthetic
	// "pkg.$file:line:col" key.
	Key  string
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Pkg  *Package
	Obj  *types.Func // nil for literals

	// Calls lists the statically resolved call sites in this function's
	// body (excluding nested literals), in source order. Sites whose
	// callee has no body in the program (interface methods, standard
	// library, func values) have Callee == nil.
	Calls []CallSite
}

// Body returns the function's block.
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// Type returns the function's signature type.
func (f *Func) Type() *types.Signature {
	if f.Obj != nil {
		return f.Obj.Type().(*types.Signature)
	}
	if t, ok := f.Pkg.Info.Types[f.Lit]; ok {
		if sig, ok := t.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// String names the function for diagnostics: the short method/function
// name for declared functions, "func literal" for literals.
func (f *Func) String() string {
	if f.Decl != nil {
		return f.Decl.Name.Name
	}
	return "func literal"
}

// A CallSite is one static call in a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *Func // nil when the target has no body in the program
}

// Program is the whole loaded program: all target packages over one
// FileSet, the function table, and the call graph.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[string]*Func

	byLit map[*ast.FuncLit]*Func
}

// NewProgram builds the function table and call graph over pkgs. The
// packages must share one FileSet (as Load guarantees). A package and its
// in-package test variant must not both be given: they declare the same
// functions under the same keys.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Funcs: make(map[string]*Func),
		byLit: make(map[*ast.FuncLit]*Func),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	prog.Pkgs = pkgs

	// Pass 1: the function table.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return false
					}
					obj, _ := pkg.Info.Defs[n.Name].(*types.Func)
					if obj == nil {
						return true
					}
					key := funcKey(obj)
					prog.Funcs[key] = &Func{Key: key, Decl: n, Pkg: pkg, Obj: obj}
				case *ast.FuncLit:
					posn := pkg.Fset.Position(n.Pos())
					key := fmt.Sprintf("%s.$%s:%d:%d", pkg.Types.Path(), posn.Filename, posn.Line, posn.Column)
					f := &Func{Key: key, Lit: n, Pkg: pkg}
					prog.Funcs[key] = f
					prog.byLit[n] = f
				}
				return true
			})
		}
	}

	// Pass 2: call edges, per body, not descending into nested literals.
	for _, f := range prog.Funcs {
		f.Calls = prog.collectCalls(f)
	}
	return prog
}

// collectCalls walks f's body, stopping at nested literals, and resolves
// each call expression.
func (prog *Program) collectCalls(f *Func) []CallSite {
	var sites []CallSite
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Lit {
			return false // nested literal: its calls are its own
		}
		if call, ok := n.(*ast.CallExpr); ok {
			sites = append(sites, CallSite{Call: call, Callee: prog.ResolveCall(f.Pkg, call)})
		}
		return true
	}
	ast.Inspect(f.Body(), walk)
	return sites
}

// ResolveCall resolves a call expression in pkg to the Func it statically
// invokes, or nil: interface method calls, calls through function values,
// and calls into packages outside the program have no body here.
func (prog *Program) ResolveCall(pkg *Package, call *ast.CallExpr) *Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return prog.Funcs[funcKey(fn)]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return prog.Funcs[funcKey(fn)]
		}
	case *ast.FuncLit:
		return prog.byLit[fun] // immediately invoked literal
	}
	return nil
}

// funcKey is fn's full name without a test variant's ` [p.test]` suffix.
func funcKey(fn *types.Func) string {
	key := fn.FullName()
	if i := strings.Index(key, " ["); i >= 0 {
		if j := strings.Index(key[i:], "]"); j >= 0 {
			key = key[:i] + key[i+j+1:]
		}
	}
	return key
}

// FuncForLit returns the Func node of a literal encountered while walking
// another function's body.
func (prog *Program) FuncForLit(lit *ast.FuncLit) *Func { return prog.byLit[lit] }

// SortedFuncs returns every function in deterministic (key) order, so
// analyzer output is stable across runs.
func (prog *Program) SortedFuncs() []*Func {
	keys := make([]string, 0, len(prog.Funcs))
	for k := range prog.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Func, len(keys))
	for i, k := range keys {
		out[i] = prog.Funcs[k]
	}
	return out
}

// FixpointBool computes the least fixpoint of a boolean forward property
// over the call graph: a function holds the property if base reports it
// directly or if any statically resolved callee holds it. This is the
// shape of "may (transitively) execute a collective".
func (prog *Program) FixpointBool(base func(*Func) bool) map[*Func]bool {
	marked := make(map[*Func]bool)
	callers := prog.reverseEdges()
	var work []*Func
	for _, f := range prog.Funcs {
		if base(f) {
			marked[f] = true
			work = append(work, f)
		}
	}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[f] {
			if !marked[caller] {
				marked[caller] = true
				work = append(work, caller)
			}
		}
	}
	return marked
}

// reverseEdges returns, for each function, its static callers.
func (prog *Program) reverseEdges() map[*Func][]*Func {
	rev := make(map[*Func][]*Func)
	for _, f := range prog.Funcs {
		for _, site := range f.Calls {
			if site.Callee != nil {
				rev[site.Callee] = append(rev[site.Callee], f)
			}
		}
	}
	return rev
}
