package checkers

import (
	"go/ast"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// ObsDeterminism flags instrument registration that can differ across
// ranks or runs.
//
// The obs.Merger sums per-rank snapshots in one all-reduce, next to the
// minimum and the maximum of their schema hashes: every rank must register
// the same instruments, with the same names and kinds, in the same order,
// or the merge panics (or worse, silently refuses trace joins). Registration therefore has the same congruence obligation as a
// collective. Three shapes break it:
//
//   - registration inside a `range` over a map: Go's map iteration order
//     is unspecified, so the registration order — and the schema hash —
//     differs run to run and rank to rank;
//   - registration under rank-derived control flow (directly or through
//     any callee, using the same interprocedural rank taint as
//     collcongruence): only some ranks get the instrument;
//   - an instrument name computed from the enclosing function's
//     parameters: different call histories yield different schemas, so
//     whether ranks converge depends on dynamic behavior, not code.
//
// Recorder construction has the same obligation: trace.NewRecorder
// registers the span kinds' aggregates as obs counters when handed a
// registry, so its call sites are checked like any other registration
// (map iteration, rank-derived control flow). The names themselves come
// from the compile-time kind catalogue inside the trace package, so the
// parameter-dependent-name check does not apply to them.
//
// Functions declared in the obs package itself are exempt — they
// implement the registry, they don't consume it. The trace package is
// exempt for the same reason: it implements the catalogue registration
// (constant names, catalogue order, an array loop), and its congruence
// is asserted by its own tests rather than re-derived here.
var ObsDeterminism = &analysis.Analyzer{
	Name: "obsdeterminism",
	Doc: "flags obs instrument registration under map iteration, rank-dependent control " +
		"flow, or with parameter-dependent names (schema-hashed cross-rank merge " +
		"requires congruent registration)",
	RunProgram: runObsDeterminism,
}

// obsRegisterMethods are the Registry methods that extend the schema.
var obsRegisterMethods = map[string]bool{
	"Counter":     true,
	"CounterWord": true,
	"Gauge":       true,
	"Histogram":   true,
}

// obsPkgName matches by package name for the same reason pgasPkgName
// does: the analyzers must behave identically on scioto/internal/obs and
// on the fixtures' stub.
const obsPkgName = "obs"

// recPkgName / recRegisterFuncs: the recorder's entry points that
// register the span-kind catalogue on a registry. Matched by package name
// like the obs methods, for the same fixture reason.
const recPkgName = "trace"

var recRegisterFuncs = map[string]bool{
	"NewRecorder": true,
}

func runObsDeterminism(pass *analysis.ProgramPass) error {
	c := &obsChecker{
		pass:  pass,
		prog:  pass.Prog,
		taint: computeRankTaint(pass.Prog),
	}
	c.registers = c.prog.FixpointBool(func(f *analysis.Func) bool {
		if exemptObsPkg(f) {
			return false
		}
		found := false
		ast.Inspect(f.Body(), func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != f.Lit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok &&
				(obsRegisterCall(f.Pkg.Info, call) || recRegisterCall(f.Pkg.Info, call)) {
				found = true
			}
			return !found
		})
		return found
	})
	for _, f := range c.prog.SortedFuncs() {
		if !exemptObsPkg(f) {
			c.checkFunc(f)
		}
	}
	return nil
}

// exemptObsPkg reports whether f implements (rather than consumes) the
// registration machinery.
func exemptObsPkg(f *analysis.Func) bool {
	name := f.Pkg.Types.Name()
	return name == obsPkgName || name == recPkgName
}

type obsChecker struct {
	pass      *analysis.ProgramPass
	prog      *analysis.Program
	taint     *rankTaint
	registers map[*analysis.Func]bool
}

// obsRegisterCall reports whether call registers an instrument: a
// Counter/Gauge/Histogram method declared in a package named "obs".
func obsRegisterCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != obsPkgName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return obsRegisterMethods[fn.Name()]
}

// recRegisterCall reports whether call creates a recorder (and with it,
// when a registry is passed, the catalogue's obs counters): a call to one
// of recRegisterFuncs declared in a package named "trace".
func recRegisterCall(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != recPkgName {
		return false
	}
	return recRegisterFuncs[fn.Name()]
}

func (c *obsChecker) checkFunc(f *analysis.Func) {
	info := f.Pkg.Info
	params := make(map[types.Object]bool)
	for _, p := range paramObjects(f) {
		if p != nil {
			params[p] = true
		}
	}

	var stack []ast.Node
	visit := func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Lit {
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		direct := obsRegisterCall(info, call)
		directRec := !direct && recRegisterCall(info, call)
		viaCallee := false
		if !direct && !directRec {
			if callee := c.prog.ResolveCall(f.Pkg, call); callee != nil && c.registers[callee] {
				viaCallee = true
			}
		}
		if !direct && !directRec && !viaCallee {
			return true
		}
		what := "instrument registration"
		switch {
		case directRec:
			what = "recorder-catalogue registration"
		case viaCallee:
			what = "call that registers instruments"
		}
		if rs := enclosingMapRange(info, stack); rs != nil {
			c.pass.Reportf(call.Pos(),
				"%s inside a range over a map: iteration order is unspecified, so the "+
					"registration order and schema hash differ across ranks and runs, "+
					"breaking the cross-rank merge", what)
		}
		// No balanced-branch exemption: registration order matters, so
		// even arms registering "equally" are suspect.
		rank := func(e ast.Expr) bool { return c.taint.rankExpr(c.prog, f, e) }
		if cond := enclosingRankCond(stack, rank, nil); cond != nil {
			c.pass.Reportf(call.Pos(),
				"%s is conditional on the process rank: ranks register different "+
					"instruments and the schema-hashed merge rejects their snapshots", what)
		}
		if direct && len(call.Args) > 0 && exprUsesParams(info, call.Args[0], params) {
			c.pass.Reportf(call.Pos(),
				"instrument name depends on the enclosing function's parameters: the schema "+
					"becomes a function of dynamic call history, so ranks converge only by "+
					"accident; use a fixed name set registered up front")
		}
		return true
	}
	ast.Inspect(f.Body(), visit)
}

// exprUsesParams reports whether e references any of the given parameter
// objects.
func exprUsesParams(info *types.Info, e ast.Expr, params map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && params[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}
