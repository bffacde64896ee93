// Package antest is a miniature analysistest: it loads a package from a
// testdata/src tree, typechecks it against the real standard library
// (via compiler export data, so it works offline), runs one reprolint
// analyzer over it as a one-package Program, and compares the
// diagnostics against `// want "regexp"` comments in the sources.
//
// Expectation syntax, on the line the diagnostic is anchored to:
//
//	x := acquire() // want `neither released nor transferred`
//	y := acquire() // want "released" "second-pattern"
//
// Every diagnostic must match a want on its line, and every want must
// be matched by a diagnostic — both directions fail the test.
package antest

import (
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
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis/reprolint"
)

// Run loads testdata/src/<pkg> relative to the test's working directory
// and checks analyzer a against the package's want comments.
func Run(t *testing.T, testdata string, a *reprolint.Analyzer, pkgpath string) {
	t.Helper()
	RunAs(t, testdata, a, pkgpath, pkgpath)
}

// RunAs is Run with the package type-checked under importPath, for rules
// that apply only to the packages with that path.
func RunAs(t *testing.T, testdata string, a *reprolint.Analyzer, pkgpath, importPath string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", filepath.FromSlash(pkgpath))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("antest: no sources in %s (%v)", dir, err)
	}
	sort.Strings(names)

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("antest: parse: %v", err)
		}
		files = append(files, f)
	}

	info := reprolint.NewTypesInfo()
	conf := types.Config{
		Importer: stdImporter(fset),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		t.Fatalf("antest: typecheck %s: %v", pkgpath, err)
	}
	pkg := &reprolint.Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}

	prog := reprolint.NewProgram([]*reprolint.Package{pkg})
	diags, _, err := reprolint.RunWholeProgram(prog, []*reprolint.Analyzer{a}, nil)
	if err != nil {
		t.Fatalf("antest: run %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	checkExpectations(t, diags, wants)
}

// want is one expectation: a compiled pattern at a file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("antest: %s: bad want pattern %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}

func checkExpectations(t *testing.T, diags []reprolint.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// stdImporter returns an importer that resolves standard-library import
// paths through the installed compiler's export data, located lazily
// with `go list -export`. Results are cached process-wide.
func stdImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", lookupExport)
}

var exportCache sync.Map // import path -> export file path or error string

func lookupExport(path string) (io.ReadCloser, error) {
	if v, ok := exportCache.Load(path); ok {
		switch v := v.(type) {
		case string:
			return os.Open(v)
		case error:
			return nil, v
		}
	}
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", path).Output()
	if err != nil {
		e := fmt.Errorf("antest: no export data for %q: %v", path, err)
		exportCache.Store(path, e)
		return nil, e
	}
	file := strings.TrimSpace(string(out))
	if file == "" {
		e := fmt.Errorf("antest: empty export path for %s", strconv.Quote(path))
		exportCache.Store(path, e)
		return nil, e
	}
	exportCache.Store(path, file)
	return os.Open(file)
}
