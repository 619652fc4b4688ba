package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const ignoreSrc = `package p

func a() {
	//lint:ignore relaxedword the hint is revalidated under the lock
	x := 1
	_ = x
}

func b() {
	y := 2 //lint:ignore nbcomplete,collcongruence trailing directive covers its own line
	_ = y
}

func c() {
	//lint:ignore relaxedword
	z := 3
	_ = z
}
`

// posOn returns a Pos on the given 1-based line of the parsed file.
func posOn(fset *token.FileSet, line int) token.Pos {
	var pos token.Pos
	fset.Iterate(func(f *token.File) bool {
		pos = f.LineStart(line)
		return false
	})
	return pos
}

func TestIgnoreDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_fixture.go", ignoreSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig := BuildIgnores(fset, []*ast.File{f})

	relaxed := &Analyzer{Name: "relaxedword"}
	nbcomp := &Analyzer{Name: "nbcomplete"}
	coll := &Analyzer{Name: "collcongruence"}

	// Directive on line 4 suppresses relaxedword on line 5 but not other
	// analyzers and not other lines.
	if !ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 5), Analyzer: relaxed}) {
		t.Error("directive above the line did not suppress relaxedword")
	}
	if ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 5), Analyzer: nbcomp}) {
		t.Error("directive suppressed an analyzer it does not name")
	}
	if ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 6), Analyzer: relaxed}) {
		t.Error("directive leaked past the line below it")
	}

	// Trailing directive on line 10 suppresses both named analyzers on its
	// own line.
	if !ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 10), Analyzer: nbcomp}) {
		t.Error("trailing directive did not suppress nbcomplete")
	}
	if !ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 10), Analyzer: coll}) {
		t.Error("trailing directive did not suppress second named analyzer")
	}

	// The justification-free directive on line 15 is inert and reported.
	if ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 16), Analyzer: relaxed}) {
		t.Error("directive without justification suppressed a finding")
	}
	problems := ig.Problems(fset)
	if len(problems) != 1 || !strings.Contains(problems[0].Message, "malformed") {
		t.Errorf("Problems() = %v, want one malformed-directive report", problems)
	}
	if problems[0].Analyzer != "ignore" || problems[0].Line != 15 {
		t.Errorf("Problems()[0] = %+v, want analyzer %q on line 15", problems[0], "ignore")
	}

	// Both well-formed directives suppressed something above, so neither
	// is stale (the malformed one is excluded from staleness by design).
	if stale := ig.Stale(fset); len(stale) != 0 {
		t.Errorf("Stale() = %v, want none (every well-formed directive was used)", stale)
	}
}

func TestStaleDirectives(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "stale_fixture.go", ignoreSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig := BuildIgnores(fset, []*ast.File{f})

	// Consult only one of the two well-formed directives.
	relaxed := &Analyzer{Name: "relaxedword"}
	if !ig.Suppressed(fset, Diagnostic{Pos: posOn(fset, 5), Analyzer: relaxed}) {
		t.Fatal("setup: directive did not suppress")
	}

	stale := ig.Stale(fset)
	if len(stale) != 1 {
		t.Fatalf("Stale() = %v, want exactly the unused directive on line 10", stale)
	}
	if stale[0].Line != 10 || !strings.Contains(stale[0].Message, "stale") ||
		!strings.Contains(stale[0].Message, "collcongruence,nbcomplete") {
		t.Errorf("Stale()[0] = %+v, want a stale report naming collcongruence,nbcomplete on line 10", stale[0])
	}
}
