package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package loading for sciotolint (`go run ./tools/sciotolint ./...`).
//
// Instead of go/packages (unavailable here), the loader shells out to
//
//	go list -export -json -deps [-test] <patterns>
//
// which compiles every package in the dependency closure and reports the
// compiler's export data file for each. Target packages are then parsed
// from source and type-checked with go/types against that export data —
// the same scheme cmd/vet uses — so analysis sees exactly the types the
// compiler saw, with no source re-typechecking of dependencies.

// A Package is one type-checked target package plus everything a Pass needs.
// All packages of one Load share a single FileSet, so whole-program
// analyzers can compare and report positions across packages.
type Package struct {
	ImportPath string
	ForTest    string // non-empty for test variants ("p [p.test]", "p_test [p.test]")
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// Build describes how to re-invoke the compiler on this package.
	// Analyzers that consume compiler diagnostics (noallocgate parses the
	// escape analysis) need it; nil when the driver cannot supply it
	// (analysistest fixtures).
	Build *BuildInfo
}

// BuildInfo carries the compile-unit inputs of one package: its sources
// and the export-data locations of its dependency closure, as
// `go list -export -deps` reports them.
type BuildInfo struct {
	Dir         string
	SrcFiles    []string          // absolute paths of the unit's Go files
	ImportMap   map[string]string // source import path -> canonical path
	PackageFile map[string]string // canonical import path -> export data file
}

// listPackage mirrors the subset of `go list -json` output we consume.
type listPackage struct {
	Dir         string
	ImportPath  string
	Name        string
	Export      string
	GoFiles     []string
	CgoFiles    []string
	Imports     []string
	ImportMap   map[string]string
	Standard    bool
	DepOnly     bool
	ForTest     string
	Incomplete  bool
	Error       *struct{ Err string }
	DepsErrors  []*struct{ Err string }
	TestGoFiles []string
}

// Load lists, parses and type-checks the packages named by patterns.
// includeTests additionally loads the in-package and external test
// variants of each target.
func Load(patterns []string, includeTests bool) ([]*Package, error) {
	args := []string{"list", "-e", "-export", "-json", "-deps"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	byPath := make(map[string]*listPackage)
	var order []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		byPath[lp.ImportPath] = lp
		order = append(order, lp)
	}

	// One export-file index for the whole load; every Package's BuildInfo
	// shares it.
	packageFile := make(map[string]string)
	for _, lp := range order {
		if lp.Export != "" {
			packageFile[lp.ImportPath] = lp.Export
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, lp := range order {
		if lp.DepOnly || lp.Standard {
			continue
		}
		// A root package with an error and no files is a bad pattern or a
		// broken package; -e mode would otherwise swallow it silently.
		if lp.Error != nil {
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		// Skip the synthesized test-binary main package ("p.test"): its
		// only file is a generated _testmain.go.
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", lp.ImportPath)
		}
		pkg, err := typecheck(fset, lp, byPath)
		if err != nil {
			return nil, err
		}
		pkg.Build = &BuildInfo{
			Dir:         lp.Dir,
			SrcFiles:    absFiles(lp.Dir, lp.GoFiles),
			ImportMap:   lp.ImportMap,
			PackageFile: packageFile,
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// absFiles resolves file names relative to dir.
func absFiles(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		if filepath.IsAbs(name) {
			out[i] = name
		} else {
			out[i] = filepath.Join(dir, name)
		}
	}
	return out
}

// typecheck parses lp's files and type-checks them, resolving imports
// through the export data recorded in byPath.
func typecheck(fset *token.FileSet, lp *listPackage, byPath map[string]*listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		dep := byPath[path]
		if dep == nil || dep.Export == "" {
			return nil, fmt.Errorf("no export data for %q (importing %q)", path, lp.ImportPath)
		}
		return os.Open(dep.Export)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(error) {}, // collect all errors; first one is returned below
	}
	info := NewInfo()
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		ForTest:    lp.ForTest,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
