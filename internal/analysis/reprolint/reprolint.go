// Package reprolint is the project's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus a
// package loader built on `go list -export` and the standard library's
// gc-export-data importer. The project analyzers (releasecheck,
// lockorder, boundary, hotpath, escapegate, deadcode) run on it via
// cmd/reprolint, which CI enforces as a hard gate over the whole
// program: the root module and the nested benchmark module.
//
// Every analyzer has one shape: it runs once over the whole Program
// (cross-package facts such as call graphs and lock graphs need it),
// and a test harness wraps a single package in a one-package Program.
// There is no per-package pass.
package reprolint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"time"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// RunProgram analyzes every loaded package at once, reporting
	// findings via pass.Reportf.
	RunProgram func(pass *ProgramPass) error
}

// Program is every loaded package together — the unit whole-program
// analyzers see. All packages share one FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// NewProgram bundles pkgs (which must share a FileSet) into a Program.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	} else {
		p.Fset = token.NewFileSet()
	}
	return p
}

// ProgramPass carries the whole program to a whole-program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// RunWholeProgram runs the analyzers once each over prog, filtering
// suppressions (//lint:ignore, //lint:ownership transferred) against
// every package's annotations; the analyzers honor their own blessed
// annotations themselves. It returns the surviving diagnostics sorted
// by position, and the suppressed count. timing, when non-nil, is told
// each analyzer's wall time.
func RunWholeProgram(prog *Program, analyzers []*Analyzer, timing func(name string, d time.Duration)) ([]Diagnostic, int, error) {
	var diags []Diagnostic
	var allFiles []*ast.File
	for _, pkg := range prog.Pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	ann := CollectAnnotations(prog.Fset, allFiles)
	for _, a := range analyzers {
		start := time.Now()
		pass := &ProgramPass{Analyzer: a, Prog: prog, diags: &diags}
		err := a.RunProgram(pass)
		if timing != nil {
			timing(a.Name, time.Since(start))
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	kept, suppressed := ann.filterIgnored(diags)
	sortDiags(kept)
	return kept, suppressed, nil
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
