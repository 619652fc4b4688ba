// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want comments, mirroring the conventions of
// golang.org/x/tools/go/analysis/analysistest on the standard library
// alone.
//
// Fixtures live in GOPATH-style trees: Run(t, dir, a, "pkg") loads every
// .go file under dir/src/pkg, resolving fixture imports (such as the stub
// "pgas" package) from the same tree. A line expecting a diagnostic
// carries a trailing comment
//
//	p.Barrier() // want `rank-conditional`
//
// where each backquoted or double-quoted string is a regular expression
// that must match the message of a diagnostic reported on that line.
// Diagnostics without a matching want, and wants without a matching
// diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"scioto/tools/sciotolint/analysis"
)

// TestData returns the absolute path of the package's testdata directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads dir/src/<pkgpath> for each named package, applies a, and
// checks the diagnostics against the fixtures' want comments.
//
// A per-package (Run) analyzer is applied to each named package
// separately. A whole-program (RunProgram) analyzer sees all named
// packages — plus any fixture packages they import, such as the pgas
// stub — as one program, and wants are checked across all named
// packages' files.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	if a.RunProgram != nil {
		runProgram(t, dir, a, pkgpaths)
		return
	}
	for _, pkgpath := range pkgpaths {
		run(t, dir, a, pkgpath)
	}
}

func newLoader(dir string) *loader {
	return &loader{
		srcRoot: filepath.Join(dir, "src"),
		fset:    token.NewFileSet(),
		pkgs:    make(map[string]*loadedPkg),
	}
}

func run(t *testing.T, dir string, a *analysis.Analyzer, pkgpath string) {
	t.Helper()
	ld := newLoader(dir)
	lp, err := ld.load(pkgpath)
	if err != nil {
		t.Fatalf("%s: loading fixture: %v", pkgpath, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      ld.fset,
		Files:     lp.files,
		Pkg:       lp.types,
		TypesInfo: lp.info,
		Report: func(d analysis.Diagnostic) {
			d.Analyzer = a
			diags = append(diags, d)
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", pkgpath, a.Name, err)
	}

	checkWants(t, ld.fset, lp.files, diags)
}

func runProgram(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths []string) {
	t.Helper()
	ld := newLoader(dir)
	var targetFiles []*ast.File
	for _, pkgpath := range pkgpaths {
		lp, err := ld.load(pkgpath)
		if err != nil {
			t.Fatalf("%s: loading fixture: %v", pkgpath, err)
		}
		targetFiles = append(targetFiles, lp.files...)
	}

	// Every loaded fixture package — the named ones and their fixture
	// imports — joins the program, in deterministic order.
	paths := make([]string, 0, len(ld.pkgs))
	for path := range ld.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var pkgs []*analysis.Package
	for _, path := range paths {
		lp := ld.pkgs[path]
		pkgs = append(pkgs, &analysis.Package{
			ImportPath: path,
			Fset:       ld.fset,
			Files:      lp.files,
			Types:      lp.types,
			Info:       lp.info,
		})
	}

	var diags []analysis.Diagnostic
	pp := &analysis.ProgramPass{
		Analyzer: a,
		Prog:     analysis.NewProgram(pkgs),
		Report: func(d analysis.Diagnostic) {
			d.Analyzer = a
			diags = append(diags, d)
		},
	}
	if err := a.RunProgram(pp); err != nil {
		t.Fatalf("%v: analyzer %s: %v", pkgpaths, a.Name, err)
	}

	checkWants(t, ld.fset, targetFiles, diags)
}

// A want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRx = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(text, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", posn, pat, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re, raw: pat})
				}
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == posn.Filename && w.line == posn.Line && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", posn, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// loader resolves fixture packages from a GOPATH-style src tree.
type loadedPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	srcRoot string
	fset    *token.FileSet
	pkgs    map[string]*loadedPkg
}

func (ld *loader) load(pkgpath string) (*loadedPkg, error) {
	if lp, ok := ld.pkgs[pkgpath]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(pkgpath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(ld.fset, path, nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer: (*fixtureImporter)(ld),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := analysis.NewInfo()
	tpkg, err := conf.Check(pkgpath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", pkgpath, err)
	}
	lp := &loadedPkg{files: files, types: tpkg, info: info}
	ld.pkgs[pkgpath] = lp
	return lp, nil
}

// fixtureImporter resolves fixture imports from the same src tree, and
// anything else (std lib) through the compiler's export data.
type fixtureImporter loader

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	ld := (*loader)(fi)
	if _, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err == nil {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.types, nil
	}
	return importer.Default().Import(path)
}
