package checkers

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"scioto/tools/sciotolint/analysis"
)

// NoAllocGate is the static form of the zero-allocs-per-steal gate.
//
// The steal and insert hot paths promise zero heap allocations per
// operation; today that promise is enforced only dynamically, by
// testing.AllocsPerRun in bench_test.go, which reports "0.0 != 1.0"
// without saying which line allocated — and only for inputs the test
// happens to exercise. This analyzer re-invokes the compiler with -m on
// the package (using the export data the driver already collected, so no
// build cache can swallow the diagnostics) and parses the escape
// analysis: any "escapes to heap" or "moved to heap" inside a function
// annotated
//
//	//scioto:noalloc
//
// is reported at the exact allocating line. A known warm-up allocation
// (e.g. a buffer growth path that only runs until the pool is hot) is
// waived, with a mandatory justification, by a comment on or directly
// above the allocating line:
//
//	//scioto:alloc-ok grows the reusable buffer; amortized to zero once warm
//
// A waiver that waives nothing is reported as stale, exactly like a stale
// //lint:ignore.
//
// The analyzer needs the package's compile unit (sources + dependency
// export data); it silently skips packages that come without one (test
// fixtures without BuildInfo) and test variants (the unit would be
// compiled twice).
var NoAllocGate = &analysis.Analyzer{
	Name: "noallocgate",
	Doc: "flags heap allocations (per the compiler's escape analysis) inside " +
		"//scioto:noalloc-annotated functions — the static zero-allocs-per-steal gate, " +
		"naming the exact allocating line",
	Run: runNoAllocGate,
}

// naRegion is one annotated function body, as a file line range.
type naRegion struct {
	file       string
	start, end int
	name       string // function name, for the diagnostic
	pos        token.Pos
}

// naWaiver is one //scioto:alloc-ok comment.
type naWaiver struct {
	file   string
	line   int
	reason string
	pos    token.Pos
	used   bool
}

func runNoAllocGate(pass *analysis.Pass) error {
	if pass.ForTest || pass.Build == nil {
		return nil
	}

	var regions []*naRegion
	var waivers []*naWaiver
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//scioto:alloc-ok")
				if !ok {
					continue
				}
				reason := strings.TrimSpace(rest)
				if reason == "" {
					pass.Reportf(c.Pos(),
						"malformed //scioto:alloc-ok: a one-line justification is required")
					continue
				}
				posn := pass.Fset.Position(c.Pos())
				waivers = append(waivers, &naWaiver{
					file: posn.Filename, line: posn.Line, reason: reason, pos: c.Pos(),
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fd.Doc == nil || fd.Body == nil {
				return false
			}
			for _, c := range fd.Doc.List {
				if c.Text != "//scioto:noalloc" && !strings.HasPrefix(c.Text, "//scioto:noalloc ") {
					continue
				}
				start := pass.Fset.Position(fd.Body.Pos())
				end := pass.Fset.Position(fd.Body.End())
				regions = append(regions, &naRegion{
					file: start.Filename, start: start.Line, end: end.Line,
					name: fd.Name.Name, pos: fd.Pos(),
				})
				break
			}
			return false
		})
	}

	if len(regions) > 0 {
		diags, err := escapeDiagnostics(pass.Pkg.Path(), pass.Pkg.Name(), pass.Build)
		if err != nil {
			return err
		}
		for _, d := range diags {
			region := regionAt(regions, d.file, d.line)
			if region == nil {
				continue
			}
			if w := waiverAt(waivers, d.file, d.line); w != nil {
				w.used = true
				continue
			}
			pos := posInFset(pass.Fset, d.file, d.line, d.col)
			if !pos.IsValid() {
				pos = region.pos
			}
			pass.Reportf(pos,
				"heap allocation in //scioto:noalloc function %s: %s", region.name, d.msg)
		}
	}
	for _, w := range waivers {
		if !w.used {
			pass.Reportf(w.pos,
				"stale //scioto:alloc-ok: no heap allocation in a //scioto:noalloc region "+
					"on this or the next line; delete it")
		}
	}
	return nil
}

func regionAt(regions []*naRegion, file string, line int) *naRegion {
	for _, r := range regions {
		if r.file == file && r.start <= line && line <= r.end {
			return r
		}
	}
	return nil
}

// waiverAt finds a waiver on the allocating line or the line directly
// above it (the same placement rule as //lint:ignore).
func waiverAt(waivers []*naWaiver, file string, line int) *naWaiver {
	for _, w := range waivers {
		if w.file == file && (w.line == line || w.line == line-1) {
			return w
		}
	}
	return nil
}

// naDiag is one parsed compiler diagnostic.
type naDiag struct {
	file      string
	line, col int
	msg       string
}

var naDiagRE = regexp.MustCompile(`^(.+?):(\d+):(\d+): (.*)$`)

// escapeDiagnostics compiles the unit with `go tool compile -m` against
// the dependency export data in build and returns the heap-allocation
// diagnostics. Invoking the compiler directly (rather than `go build
// -gcflags=-m`) bypasses the build cache, which replays no diagnostics
// on a cache hit.
func escapeDiagnostics(pkgPath, pkgName string, build *analysis.BuildInfo) ([]naDiag, error) {
	tmp, err := os.MkdirTemp("", "sciotolint-noalloc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var cfg strings.Builder
	for _, src := range sortedKeys(build.ImportMap) {
		fmt.Fprintf(&cfg, "importmap %s=%s\n", src, build.ImportMap[src])
	}
	for _, path := range sortedKeys(build.PackageFile) {
		fmt.Fprintf(&cfg, "packagefile %s=%s\n", path, build.PackageFile[path])
	}
	cfgPath := filepath.Join(tmp, "importcfg")
	if err := os.WriteFile(cfgPath, []byte(cfg.String()), 0o666); err != nil {
		return nil, err
	}

	if pkgName == "main" {
		pkgPath = "main" // how cmd/go names main packages to the compiler
	}
	args := []string{
		"tool", "compile",
		"-p", pkgPath,
		"-importcfg", cfgPath,
		"-m",
		"-o", filepath.Join(tmp, "noalloc.a"),
	}
	args = append(args, build.SrcFiles...)
	cmd := exec.Command("go", args...)
	cmd.Dir = build.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("noallocgate: go tool compile %s: %v\n%s", pkgPath, err, out)
	}

	var diags []naDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := naDiagRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(build.Dir, file)
		}
		diags = append(diags, naDiag{file: file, line: ln, col: col, msg: msg})
	}
	return diags, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// posInFset maps a (file, line, col) back into the pass's FileSet.
func posInFset(fset *token.FileSet, filename string, line, col int) token.Pos {
	pos := token.NoPos
	fset.Iterate(func(f *token.File) bool {
		if f.Name() != filename {
			return true
		}
		if line >= 1 && line <= f.LineCount() {
			pos = f.LineStart(line) + token.Pos(col-1)
		}
		return false
	})
	return pos
}
