package reprolint

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
	"sort"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path, Dir string }
	DepsErrors []*struct{ Err string }
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go tool and typechecks
// every matching non-standard package from source — the main module's,
// and a required module's that a replace points at a local directory,
// as the benchmark module's go.mod does for the root module — importing
// dependencies (standard library included) from the compiler's export
// data, so no network and no out-of-module source access is needed.
// Test files are not loaded: the invariants gate production code; tests
// intentionally abuse lifecycles to prove the panics fire.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Export,Standard,GoFiles,Module,DepsErrors,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("reprolint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("reprolint: decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("reprolint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && p.Module != nil {
			q := p
			targets = append(targets, &q)
		}
	}
	// -deps lists dependencies too; only packages matching the original
	// patterns should be analyzed. Re-list without -deps to get that set.
	matchOut, err := listImportPaths(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("reprolint: no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		if !matchOut[p.ImportPath] {
			continue
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

func listImportPaths(dir string, patterns []string) (map[string]bool, error) {
	cmd := exec.Command("go", append([]string{"list"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("reprolint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	m := map[string]bool{}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if len(line) > 0 {
			m[string(line)] = true
		}
	}
	return m, nil
}

// typecheck parses and checks one package from source.
func typecheck(fset *token.FileSet, imp types.Importer, p *listPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		af, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("reprolint: parse %s: %w", name, err)
		}
		files = append(files, af)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("reprolint: typecheck %s: %w", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers use
// populated (shared with the test harness's loader).
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
