package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// RunAll is sciotolint's pipeline: it applies every per-package analyzer
// to every package, builds the whole-program call graph and applies the
// program analyzers, then filters //lint:ignore'd findings through one
// global directive index, reports malformed and stale directives, dedupes,
// and sorts by (file, line, col, analyzer) for stable CI diffs.
func RunAll(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset

	type attributed struct {
		d       Diagnostic
		forTest string
	}
	var diags []attributed

	for _, pkg := range pkgs {
		pkg := pkg
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a := a
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Build:     pkg.Build,
				ForTest:   pkg.ForTest != "",
				Report: func(d Diagnostic) {
					d.Analyzer = a
					diags = append(diags, attributed{d, pkg.ForTest})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %v", pkg.ImportPath, a.Name, err)
			}
		}
	}

	prog := NewProgram(programPackages(pkgs))
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a := a
		pass := &ProgramPass{
			Analyzer: a,
			Prog:     prog,
			Report: func(d Diagnostic) {
				d.Analyzer = a
				diags = append(diags, attributed{d, ""})
			},
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	}

	// One directive index over every distinct file. Base and test-variant
	// packages parse the same sources into distinct ASTs; directives are
	// keyed by file:line, so each file contributes once.
	seenFile := make(map[string]bool)
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if !seenFile[name] {
				seenFile[name] = true
				files = append(files, f)
			}
		}
	}
	ignores := BuildIgnores(fset, files)

	var out []Finding
	seen := make(map[Finding]bool)
	for _, ad := range diags {
		if ignores.Suppressed(fset, ad.d) {
			continue
		}
		// Test-variant packages re-analyze the base package's non-test
		// files; only findings in _test.go files are new there.
		posn := fset.Position(ad.d.Pos)
		if ad.forTest != "" && !strings.HasSuffix(posn.Filename, "_test.go") {
			continue
		}
		f := findingAt(fset, ad.d.Pos, ad.d.Analyzer.Name, ad.d.Message)
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	out = append(out, ignores.Problems(fset)...)
	out = append(out, ignores.Stale(fset)...)
	SortFindings(out)
	return out, nil
}

// programPackages picks the packages the whole program is built from, so
// that test code is in the call graph exactly once: a package's in-package
// test variant ("p [p.test]", its sources plus its _test.go files)
// replaces the package, and external test packages ("p_test [p.test]")
// join it.
func programPackages(pkgs []*Package) []*Package {
	replaced := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.ForTest != "" && strings.HasPrefix(pkg.ImportPath, pkg.ForTest+" [") {
			replaced[pkg.ForTest] = true
		}
	}
	var out []*Package
	for _, pkg := range pkgs {
		if !replaced[pkg.ImportPath] {
			out = append(out, pkg)
		}
	}
	return out
}
