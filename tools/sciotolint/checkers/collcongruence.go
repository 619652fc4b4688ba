package checkers

import (
	"go/ast"
	"go/types"
	"slices"

	"scioto/tools/sciotolint/analysis"
)

// CollCongruence flags collective PGAS calls that only some ranks
// execute: the SPMD mismatched-collective deadlock.
//
// AllocData, AllocWords, AllocLock, Barrier, AllReduce and World.Run are
// collective: every rank must call them, in the same order (pgas.go
// requires it, and every transport blocks until all ranks arrive). A collective reached
// under a branch whose condition depends on the process rank is the
// classic bug — rank 0 enters the barrier, the others never will, and the
// program silently deadlocks. Besides the collective sitting directly
// under `if p.Rank() == 0`, two shapes hide the same bug from any
// one-function view:
//
//  1. The collective is buried in a callee: `if me == 0 { drain(p) }`
//     where drain, three calls down, hits a Barrier.
//  2. The rank value flows into the branching function: `helper(p,
//     p.Rank())` where helper branches on its parameter around an
//     AllocWords. Inside helper the condition looks rank-unrelated.
//
// A collective passed as a method value, `tc.collective(p.Barrier)`, runs
// inside the call it is passed to: it is a direct collective of that call.
//
// This analyzer computes, over the interprocedural call graph, (a) the
// set of functions that may execute a collective operation and (b) the
// flow of rank-derived values through assignments, helper returns, and
// call arguments. It then flags any collective, or call that leads to
// one, controlled by a rank-derived condition. An if whose two arms
// execute the same interprocedural sequence of collectives is congruent
// SPMD and legal, even when the collectives are inside different callees.
var CollCongruence = &analysis.Analyzer{
	Name: "collcongruence",
	Doc: "flags collective operations (Barrier/AllReduce/Alloc*/Run), or call chains reaching one, under " +
		"rank-dependent control flow anywhere in the interprocedural call graph " +
		"(SPMD mismatched-collective deadlock)",
	RunProgram: runCollCongruence,
}

var collectiveMethods = map[string]bool{
	"AllocData":  true,
	"AllocWords": true,
	"AllocLock":  true,
	"Barrier":    true,
	"AllReduce":  true,
	"Run":        true, // pgas.World.Run
}

func runCollCongruence(pass *analysis.ProgramPass) error {
	c := &ccChecker{
		pass:       pass,
		prog:       pass.Prog,
		taint:      computeRankTaint(pass.Prog),
		seqMemo:    make(map[*analysis.Func]seqResult),
		inProgress: make(map[*analysis.Func]bool),
	}
	c.reaches = c.prog.FixpointBool(func(f *analysis.Func) bool {
		return len(directCollectives(f)) > 0
	})
	for _, f := range c.prog.SortedFuncs() {
		c.checkFunc(f)
	}
	return nil
}

type seqResult struct {
	seq []string
	ok  bool
}

type ccChecker struct {
	pass       *analysis.ProgramPass
	prog       *analysis.Program
	taint      *rankTaint
	reaches    map[*analysis.Func]bool
	seqMemo    map[*analysis.Func]seqResult
	inProgress map[*analysis.Func]bool
}

// directCollectives returns the collective pgas method names called
// directly in f's body (not through callees, not in nested literals),
// counting those passed as method values.
func directCollectives(f *analysis.Func) []string {
	var out []string
	ast.Inspect(f.Body(), func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Lit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := pgasMethod(f.Pkg.Info, call); ok && collectiveMethods[name] {
				out = append(out, name)
			}
			out = append(out, collectiveValues(f.Pkg.Info, call)...)
		}
		return true
	})
	return out
}

// collectiveValues returns the collective pgas methods passed to call as
// method values, not called: the call runs them.
func collectiveValues(info *types.Info, call *ast.CallExpr) []string {
	var out []string
	for _, arg := range call.Args {
		if name, ok := pgasSelector(info, arg); ok && collectiveMethods[name] {
			out = append(out, name)
		}
	}
	return out
}

// checkFunc walks one function body with the enclosing-node stack and
// reports rank-conditional collective-reaching calls.
func (c *ccChecker) checkFunc(f *analysis.Func) {
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != f.Lit {
			return false // a literal is its own function in the program
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok {
			c.checkCall(f, call, stack)
		}
		return true
	}
	ast.Inspect(f.Body(), visit)
}

func (c *ccChecker) checkCall(f *analysis.Func, call *ast.CallExpr, stack []ast.Node) {
	name, direct := pgasMethod(f.Pkg.Info, call)
	direct = direct && collectiveMethods[name]
	if vals := collectiveValues(f.Pkg.Info, call); !direct && len(vals) > 0 {
		name, direct = vals[0], true
	}
	callee := c.prog.ResolveCall(f.Pkg, call)
	if !direct && (callee == nil || !c.reaches[callee]) {
		return
	}
	rank := func(e ast.Expr) bool { return c.taint.rankExpr(c.prog, f, e) }
	balanced := func(n *ast.IfStmt) bool { return c.branchBalanced(f, n) }
	if enclosingRankCond(stack, rank, balanced) == nil {
		return
	}
	if direct {
		c.pass.Reportf(call.Pos(),
			"collective %s call is conditional on the process rank; "+
				"ranks not taking this branch never reach it and all ranks deadlock", name)
		return
	}
	c.pass.Reportf(call.Pos(),
		"call to %s, which transitively executes collective operations, is conditional "+
			"on the process rank; ranks not taking this branch never reach the collective "+
			"and all ranks deadlock", callee)
}

// branchBalanced reports whether a rank-conditional if is congruent
// because both arms execute the same interprocedural sequence of
// collectives — `if me == 0 { flushAndBarrier(p) } else { p.Barrier() }`
// is legal SPMD when flushAndBarrier ends in exactly one Barrier.
func (c *ccChecker) branchBalanced(f *analysis.Func, n *ast.IfStmt) bool {
	if n.Else == nil {
		// No else arm: balanced only if the then arm provably executes no
		// collectives at all (then the condition guards nothing we care
		// about — but then no report fires anyway, so require an else).
		return false
	}
	thenSeq, ok1 := c.nodeSeq(f, n.Body)
	elseSeq, ok2 := c.nodeSeq(f, n.Else)
	return ok1 && ok2 && slices.Equal(thenSeq, elseSeq)
}

// funcSeq returns the interprocedural collective sequence a call to f
// executes, memoized. ok is false when the sequence is input-dependent
// (unbalanced conditionals, loops or recursion around collectives) —
// callers must then treat the function as collective-varying.
func (c *ccChecker) funcSeq(f *analysis.Func) ([]string, bool) {
	if r, done := c.seqMemo[f]; done {
		return r.seq, r.ok
	}
	if c.inProgress[f] {
		return nil, !c.reaches[f] // recursion: unknown iff collectives are in play
	}
	c.inProgress[f] = true
	seq, ok := c.nodeSeq(f, f.Body())
	delete(c.inProgress, f)
	c.seqMemo[f] = seqResult{seq, ok}
	return seq, ok
}

// nodeSeq computes the ordered collective sequence executed by n inside
// f, following calls into known callees. ok is false when the sequence
// cannot be determined statically. Constructs that execute a
// data-dependent number of times (loops, switches, selects) make the
// sequence unknown only when collectives are reachable inside them.
func (c *ccChecker) nodeSeq(f *analysis.Func, n ast.Node) (seq []string, ok bool) {
	ok = true
	add := func(s []string, o bool) {
		seq = append(seq, s...)
		ok = ok && o
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if !ok || n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != f.Lit {
				return false // defining a literal executes nothing
			}
		case *ast.IfStmt:
			if n.Init != nil {
				add(c.nodeSeq(f, n.Init))
			}
			add(c.nodeSeq(f, n.Cond))
			thenSeq, o1 := c.nodeSeq(f, n.Body)
			var elseSeq []string
			o2 := true
			if n.Else != nil {
				elseSeq, o2 = c.nodeSeq(f, n.Else)
			}
			if o1 && o2 && slices.Equal(thenSeq, elseSeq) {
				add(thenSeq, true)
			} else {
				ok = false
			}
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Iteration count / arm choice is data-dependent: any
			// reachable collective inside makes the sequence unknown.
			if c.nodeReachesCollective(f, n) {
				ok = false
			}
			return false
		case *ast.CallExpr:
			for _, arg := range n.Args {
				add(c.nodeSeq(f, arg))
			}
			add(c.nodeSeq(f, n.Fun))
			seq = append(seq, collectiveValues(f.Pkg.Info, n)...)
			if name, isPgas := pgasMethod(f.Pkg.Info, n); isPgas && collectiveMethods[name] {
				seq = append(seq, name)
			} else if callee := c.prog.ResolveCall(f.Pkg, n); callee != nil {
				if s, o := c.funcSeq(callee); o {
					seq = append(seq, s...)
				} else {
					ok = false
				}
			}
			return false
		}
		return true
	}
	ast.Inspect(n, visit)
	return seq, ok
}

// nodeReachesCollective reports whether any collective is reachable from
// code under n (directly or through known callees).
func (c *ccChecker) nodeReachesCollective(f *analysis.Func, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(child ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := child.(*ast.FuncLit); ok && lit != f.Lit {
			return false
		}
		if call, ok := child.(*ast.CallExpr); ok {
			if name, isPgas := pgasMethod(f.Pkg.Info, call); isPgas && collectiveMethods[name] ||
				len(collectiveValues(f.Pkg.Info, call)) > 0 {
				found = true
				return false
			}
			if callee := c.prog.ResolveCall(f.Pkg, call); callee != nil && c.reaches[callee] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
