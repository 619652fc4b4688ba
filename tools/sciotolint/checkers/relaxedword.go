package checkers

import (
	"go/ast"
	"go/types"

	"scioto/tools/sciotolint/analysis"
)

// RelaxedWord flags relaxed atomic access to metadata words that remote
// processes write.
//
// RelaxedLoad64/RelaxedStore64 act on the calling process's own instance
// of a word segment without establishing any ordering (pgas.go documents
// them as legal only for owner-private words, or — loads only — as hints
// the caller revalidates). In the queues of internal/core/queue.go the
// word roles are fixed: wTop is owner-written, while wShared — the split
// queue's packed shared-portion word — is moved by thieves' claims and
// remote adders' fetch-adds, wBottom (ModeLocked) is advanced by thieves
// and decremented by remote adders under the queue lock, and wDirty is
// incremented by thieves. A relaxed *store* to a remotely written word can
// silently lose a concurrent remote update; a relaxed *load* of one yields
// a value a remote operation may already have replaced and is only
// tolerable as an explicitly annotated hint.
//
// The relaxed ops are pgas.Front's, over the owner's word slice the kernel
// hands out as LocalWords. A caller outside package pgas that held that
// slice could touch any word of it unseen by the rule above, so a
// LocalWords call anywhere else is flagged too (a transport's own method,
// declared in its package, is not a pgas method and is not matched).
var RelaxedWord = &analysis.Analyzer{
	Name: "relaxedword",
	Doc: "flags RelaxedLoad64/RelaxedStore64 whose word index is a remotely-written " +
		"metadata word (wShared, wBottom, wDirty), and LocalWords outside package pgas; " +
		"relaxed access is only legal on owner-private words",
	Run: runRelaxedWord,
}

// remoteWrittenWords names the metadata-word constants that remote
// processes write. Matching is by constant name so the discipline follows
// the word's role, not its numeric value.
var remoteWrittenWords = map[string]bool{
	"wShared": true,
	"wBottom": true,
	"wDirty":  true,
}

func runRelaxedWord(pass *analysis.Pass) error {
	analysis.Preorder(pass.Files, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name, ok := pgasMethod(pass.TypesInfo, call)
		if ok && name == "LocalWords" && pass.Pkg.Name() != pgasPkgName {
			pass.Reportf(call.Pos(),
				"LocalWords outside package pgas: the owner's word slice reaches every word, "+
					"remotely written ones included — use RelaxedLoad64/RelaxedStore64 or the ordered word ops")
			return
		}
		if !ok || (name != "RelaxedLoad64" && name != "RelaxedStore64") {
			return
		}
		if len(call.Args) < 2 {
			return
		}
		c := constName(pass.TypesInfo, call.Args[1])
		if c == "" || !remoteWrittenWords[c] {
			return
		}
		if name == "RelaxedStore64" {
			pass.Reportf(call.Pos(),
				"relaxed store to %s, a word remote processes write; a concurrent remote "+
					"update would be lost — use the ordered Store64", c)
		} else {
			pass.Reportf(call.Pos(),
				"relaxed load of %s, a word remote processes write, returns a stale value; "+
					"use the ordered Load64 or annotate the hint and revalidate with an ordered operation", c)
		}
	})
	return nil
}

// constName resolves e to the name of the constant it denotes, or "".
func constName(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	if c, ok := info.Uses[id].(*types.Const); ok {
		return c.Name()
	}
	return ""
}
