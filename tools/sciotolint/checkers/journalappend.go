package checkers

import (
	"go/ast"
	"go/types"
	"strings"

	"scioto/tools/sciotolint/analysis"
)

// JournalAppend enforces the work-replay journal discipline on queue
// mutations.
//
// Recovery (internal/core/recover.go) can only replay tasks that were
// journaled when they entered a queue: a descriptor pushed without a
// journal record is invisible to the healer and silently lost when its
// holder dies. The append sites are easy to miss — the raw queue
// primitives (pushPrivate, pushLocked, addRemote) know nothing about the
// journal, so nothing at the type level stops a new code path from
// enqueueing an unjournaled task.
//
// The analyzer checks every function in a package that declares those
// primitives as methods. A function whose body (including nested function
// literals) inserts into a queue — by calling a primitive directly, or by
// calling a package-local function marked as inheriting the obligation —
// must witness a journal append in the same body: a call to journalize
// (journal.journalize, the one append), or slotBytes (descriptor bytes
// read back out of the journal are by definition already recorded).
//
// Two directives, written in a function's doc comment with a mandatory
// justification, adjust the obligation:
//
//	//scioto:journaled <why callers always pass journaled descriptors>
//
// marks a function whose descriptor arguments are journaled by its
// callers (e.g. TC.requeue). Its own body is exempt, and every call to it
// is treated as a queue mutation, so the obligation propagates to the
// caller — exactly where the append must happen.
//
//	//scioto:journal-exempt <why this path is outside the discipline>
//
// terminates the obligation: the function's queue use is legitimately
// unjournaled (a raw-queue microbenchmark; stolen descriptors that carry
// the journal reference stamped at the origin rank's Add). A directive on
// a function with no queue mutation is reported as stale, like a stale
// //lint:ignore.
var JournalAppend = &analysis.Analyzer{
	Name: "journalappend",
	Doc: "flags queue insertions (pushPrivate/pushLocked/addRemote and their annotated " +
		"wrappers) in functions with no journal append on the path — unjournaled tasks " +
		"are invisible to work-replay recovery and die with their holder",
	Run: runJournalAppend,
}

// jaPrimitives are the raw queue-insertion methods; jaWitnesses are the
// calls that prove the descriptor is in the replay journal.
var (
	jaPrimitives = map[string]bool{"pushPrivate": true, "pushLocked": true, "addRemote": true}
	jaWitnesses  = map[string]bool{"journalize": true, "slotBytes": true}
)

const (
	jaMarkJournaled = "//scioto:journaled"
	jaMarkExempt    = "//scioto:journal-exempt"
)

// jaDirective scans a function's doc comment for one of the two markers,
// reporting malformed (justification-free) ones.
func jaDirective(pass *analysis.Pass, fd *ast.FuncDecl) (journaled, exempt bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		for _, mark := range []string{jaMarkJournaled, jaMarkExempt} {
			rest, ok := strings.CutPrefix(c.Text, mark)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				pass.Reportf(fd.Pos(), "malformed %s directive: want `%s <justification>`", mark, mark)
				continue
			}
			if mark == jaMarkJournaled {
				journaled = true
			} else {
				exempt = true
			}
		}
	}
	return journaled, exempt
}

func runJournalAppend(pass *analysis.Pass) error {
	// The discipline applies only to packages that declare the queue
	// primitives; elsewhere the names are a coincidence.
	declares := false
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && jaPrimitives[fd.Name.Name] {
				declares = true
			}
		}
	}
	if !declares {
		return nil
	}

	// First pass: classify every declared function. Primitives implicitly
	// carry the journaled-by-caller obligation. Test files are outside the
	// discipline: the queue unit tests drive the primitives directly, and
	// nothing a test enqueues outlives the test to need replay.
	journaled := map[types.Object]bool{} // calls to these count as mutations
	exempt := map[*ast.FuncDecl]bool{}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls = append(decls, fd)
			j, e := jaDirective(pass, fd)
			obj := pass.TypesInfo.Defs[fd.Name]
			isPrim := fd.Recv != nil && jaPrimitives[fd.Name.Name]
			if (j || isPrim) && obj != nil {
				journaled[obj] = true
			}
			if e {
				exempt[fd] = true
			}
			if (j || e) && isPrim {
				pass.Reportf(fd.Pos(), "%s is a queue primitive; it already carries the journaled-by-caller obligation, drop the directive", fd.Name.Name)
			}
		}
	}

	// jaCallee resolves a call to its package-local *types.Func, if any.
	callee := func(call *ast.CallExpr) *types.Func {
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return nil
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
			return nil
		}
		return fn
	}

	// Second pass: each un-annotated function with a mutation needs a
	// witness somewhere in the same declaration (closures included — the
	// append and the push are often in different literals of one builder).
	for _, fd := range decls {
		isPrim := fd.Recv != nil && jaPrimitives[fd.Name.Name]
		obj := pass.TypesInfo.Defs[fd.Name]
		marked := isPrim || (obj != nil && journaled[obj])

		type mutation struct {
			pos  ast.Node
			name string
		}
		var muts []mutation
		witness := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(call)
			if fn == nil {
				return true
			}
			switch {
			case jaWitnesses[fn.Name()]:
				witness = true
			case jaPrimitives[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil:
				muts = append(muts, mutation{call, fn.Name()})
			case journaled[fn]:
				muts = append(muts, mutation{call, fn.Name()})
			}
			return true
		})

		switch {
		case marked || isPrim:
			// Obligation lies with callers; nothing to check here.
		case exempt[fd]:
			if len(muts) == 0 {
				pass.Reportf(fd.Pos(), "stale %s directive on %s: it contains no queue mutation; delete it", jaMarkExempt, fd.Name.Name)
			}
		case len(muts) > 0 && !witness:
			for _, m := range muts {
				pass.Reportf(m.pos.Pos(),
					"queue mutation %s in %s with no journal append on the path: "+
						"call journalize first, or mark %s %s / %s with a justification",
					m.name, fd.Name.Name, fd.Name.Name, jaMarkJournaled, jaMarkExempt)
			}
		}
		if obj != nil && journaled[obj] && !isPrim && len(muts) == 0 {
			pass.Reportf(fd.Pos(), "stale %s directive on %s: it contains no queue mutation; delete it", jaMarkJournaled, fd.Name.Name)
		}
	}
	return nil
}
