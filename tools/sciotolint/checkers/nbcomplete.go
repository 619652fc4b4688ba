package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// NbComplete flags non-blocking PGAS operations (NbGet, NbPut, NbLoad64,
// NbStore64, NbFetchAdd64, NbCAS64) whose handles can escape completion.
//
// A non-blocking operation's results — the dst buffer of an NbGet, the out
// pointer of an NbLoad64/NbFetchAdd64/NbCAS64, and the remote visibility
// of an NbPut/NbStore64 — are defined only after Wait(h) or Flush(). Reading a
// dst early is a silent data race with the transport; releasing a PGAS
// lock with operations still in flight publishes half-applied protocol
// state to the next lock holder (the split-queue discipline in
// internal/core/queue.go flushes before every Unlock for exactly this
// reason). The analyzer abstractly interprets each function body, tracking
// the set of pending handles through structured control flow, and reports:
//
//   - an Unlock reached with an operation still pending,
//   - a return reached with an operation still pending,
//   - falling off the end of the function with an operation pending.
//
// Flush() completes every pending operation; Wait(h) completes the one
// bound to h. A handle returned to the caller transfers the obligation
// (the caller is checked at its own call site), and `defer p.Flush()`
// covers return paths — but not an Unlock in the middle of the function,
// which runs before any deferred call. Issuing a batch across loop
// iterations and flushing once after the loop is the intended idiom and is
// not flagged: pending handles are only checked at Unlock, return, and
// function end, never at iteration boundaries.
//
// Methods named after the non-blocking primitives themselves (NbGet, ...,
// Wait, Flush) on a concrete receiver are exempt: they are a transport or
// wrapper (e.g. pgas/faulty) implementing the primitive by delegation, so
// the completion obligation lies with their caller, not inside them.
var NbComplete = &analysis.Analyzer{
	Name: "nbcomplete",
	Doc: "flags non-blocking PGAS operations whose handle is not completed by Wait/Flush " +
		"on every path before an Unlock or function return (results are undefined until completion)",
	Run: runNbComplete,
}

// nbIssuers are the Proc methods that return a pending handle.
var nbIssuers = map[string]bool{
	"NbGet":        true,
	"NbPut":        true,
	"NbLoad64":     true,
	"NbStore64":    true,
	"NbFetchAdd64": true,
	"NbCAS64":      true,
}

// nbState is the abstract state: operations issued but not yet completed
// on the current path. Handles bound to a variable are keyed by the
// variable's types.Object (so Wait(h) can complete them); handles whose
// result is discarded are keyed by issue position and can only be
// completed by Flush.
type nbState struct {
	pending       map[any]nbOpInfo
	deferredFlush bool
}

type nbOpInfo struct {
	op  string // method name, for the diagnostic
	pos token.Pos
}

func newNbState() *nbState {
	return &nbState{pending: make(map[any]nbOpInfo)}
}

func (s *nbState) clone() *nbState {
	c := newNbState()
	for k, v := range s.pending {
		c.pending[k] = v
	}
	c.deferredFlush = s.deferredFlush
	return c
}

// merge unions the pending sets of the branch states that can fall
// through, so an operation left incomplete on any branch stays visible.
func (s *nbState) merge(branches ...*nbState) {
	s.pending = make(map[any]nbOpInfo)
	for _, b := range branches {
		for k, v := range b.pending {
			s.pending[k] = v
		}
		s.deferredFlush = s.deferredFlush || b.deferredFlush
	}
}

type nbChecker struct {
	pass *analysis.Pass
}

func runNbComplete(pass *analysis.Pass) error {
	c := &nbChecker{pass: pass}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil && !isProcImplMethod(n,
					"NbGet", "NbPut", "NbLoad64", "NbStore64", "NbFetchAdd64", "Wait", "Flush") {
					c.checkFunc(n.Body)
				}
			case *ast.FuncLit:
				c.checkFunc(n.Body)
			}
			return true
		})
	}
	return nil
}

func (c *nbChecker) checkFunc(body *ast.BlockStmt) {
	st := newNbState()
	terminated := c.scan(body.List, st)
	if !terminated && !st.deferredFlush {
		for _, info := range st.pending {
			c.pass.Reportf(info.pos,
				"%s issued here is never completed with Wait or Flush; its results are undefined", info.op)
		}
	}
}

// scan interprets a statement list, mutating st. It reports whether every
// path through the list terminates (returns or panics).
func (c *nbChecker) scan(stmts []ast.Stmt, st *nbState) bool {
	for _, stmt := range stmts {
		if c.scanStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (c *nbChecker) scanStmt(stmt ast.Stmt, st *nbState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		c.scanExpr(s.X, st)
		if isPanic(s.X) {
			return true
		}

	case *ast.AssignStmt:
		// h := p.NbGet(...) binds the handle; _ = p.NbPut(...) or a
		// reassignment through anything else leaves it Flush-only.
		for _, rhs := range s.Rhs {
			c.scanExpr(rhs, st)
		}
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if op, ok := c.nbIssueCall(s.Rhs[0]); ok {
				// scanExpr recorded it position-keyed; rebind to the
				// variable so Wait(h) can complete it.
				delete(st.pending, s.Rhs[0].Pos())
				key := any(s.Rhs[0].Pos())
				if id, isIdent := s.Lhs[0].(*ast.Ident); isIdent && id.Name != "_" {
					if obj := c.obj(id); obj != nil {
						key = obj
					}
				}
				st.pending[key] = nbOpInfo{op: op, pos: s.Rhs[0].Pos()}
			}
		}

	case *ast.DeferStmt:
		// defer p.Flush() covers every return path (but not an Unlock in
		// the middle of the function, which runs before deferred calls).
		if name, ok := pgasMethod(c.pass.TypesInfo, s.Call); ok && name == "Flush" {
			st.deferredFlush = true
		} else if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, ok := pgasMethod(c.pass.TypesInfo, call); ok && name == "Flush" {
						st.deferredFlush = true
					}
				}
				return true
			})
		}

	case *ast.ReturnStmt:
		// A returned handle transfers the completion obligation to the
		// caller, where this same analysis sees it.
		for _, res := range s.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := c.obj(id); obj != nil {
					delete(st.pending, obj)
				}
			}
		}
		if !st.deferredFlush {
			for _, info := range st.pending {
				c.pass.Reportf(s.Pos(),
					"return with %s pending (issued at %s); Wait or Flush must complete it first",
					info.op, c.pass.Fset.Position(info.pos))
			}
		}
		return true

	case *ast.BranchStmt:
		return true

	case *ast.BlockStmt:
		return c.scan(s.List, st)

	case *ast.LabeledStmt:
		return c.scanStmt(s.Stmt, st)

	case *ast.IfStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, st)
		}
		c.scanExpr(s.Cond, st)
		thenSt, elseSt := st.clone(), st.clone()
		thenTerm := c.scan(s.Body.List, thenSt)
		elseTerm := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseTerm = c.scan(e.List, elseSt)
		case *ast.IfStmt:
			elseTerm = c.scanStmt(e, elseSt)
		}
		var fallthroughs []*nbState
		if !thenTerm {
			fallthroughs = append(fallthroughs, thenSt)
		}
		if !elseTerm {
			fallthroughs = append(fallthroughs, elseSt)
		}
		if len(fallthroughs) == 0 {
			return true
		}
		st.merge(fallthroughs...)

	case *ast.ForStmt:
		if s.Init != nil {
			c.scanStmt(s.Init, st)
		}
		// Batching across iterations with one Flush after the loop is the
		// intended idiom, so pending handles are not checked at iteration
		// boundaries: the loop body's effects simply union into the state
		// after the loop (a Flush inside the body clears the body copy,
		// not the zero-iteration path).
		bodySt := st.clone()
		c.scan(s.Body.List, bodySt)
		st.merge(st.clone(), bodySt)

	case *ast.RangeStmt:
		bodySt := st.clone()
		c.scan(s.Body.List, bodySt)
		st.merge(st.clone(), bodySt)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			body = s.Body
		}
		var fallthroughs []*nbState
		for _, cl := range body.List {
			var caseBody []ast.Stmt
			switch cl := cl.(type) {
			case *ast.CaseClause:
				caseBody = cl.Body
			case *ast.CommClause:
				caseBody = cl.Body
			}
			caseSt := st.clone()
			if !c.scan(caseBody, caseSt) {
				fallthroughs = append(fallthroughs, caseSt)
			}
		}
		fallthroughs = append(fallthroughs, st.clone())
		st.merge(fallthroughs...)
	}
	return false
}

// scanExpr updates st for the pgas calls inside an expression: Nb issues
// add a pending entry, Wait/Flush complete entries, Unlock reports them.
func (c *nbChecker) scanExpr(e ast.Expr, st *nbState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	// Inner calls first (e.g. p.Wait(issue(p)) — rare, but keeps order).
	for _, arg := range call.Args {
		c.scanExpr(arg, st)
	}
	name, ok := pgasMethod(c.pass.TypesInfo, call)
	if !ok {
		return
	}
	switch {
	case nbIssuers[name]:
		st.pending[call.Pos()] = nbOpInfo{op: name, pos: call.Pos()}

	case name == "Wait" && len(call.Args) == 1:
		if id, isIdent := call.Args[0].(*ast.Ident); isIdent {
			if obj := c.obj(id); obj != nil {
				delete(st.pending, obj)
			}
		}

	case name == "Flush":
		st.pending = make(map[any]nbOpInfo)

	case name == "Unlock":
		for _, info := range st.pending {
			c.pass.Reportf(call.Pos(),
				"Unlock with %s pending (issued at %s); Flush before releasing the lock, "+
					"or the next holder observes half-applied state",
				info.op, c.pass.Fset.Position(info.pos))
		}
		// Report once; the same leak would otherwise cascade to return.
		st.pending = make(map[any]nbOpInfo)
	}
}

func (c *nbChecker) nbIssueCall(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	name, ok := pgasMethod(c.pass.TypesInfo, call)
	if !ok || !nbIssuers[name] {
		return "", false
	}
	return name, true
}

func (c *nbChecker) obj(id *ast.Ident) types.Object {
	if o := c.pass.TypesInfo.Defs[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Uses[id]
}

func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
