// Package reprolint is the project's static-analysis framework: a small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API plus a
// package loader built on `go list -export` and the standard library's
// gc-export-data importer. The project analyzers (releasecheck,
// lockorder, boundary, hotpath, escapegate) run on it via
// cmd/reprolint, which CI enforces as a hard gate over ./...
//
// The shapes deliberately match go/analysis (Analyzer, Pass, Diagnostic,
// Reportf) so that the analyzers could be lifted onto the real
// multichecker mechanically.
package reprolint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	// Run analyzes one package, reporting findings via pass.Report.
	// Exactly one of Run and RunProgram must be set.
	Run func(pass *Pass) error
	// RunProgram marks a whole-program analyzer: the driver invokes it
	// once with every loaded package (so cross-package facts — call
	// graphs, lock graphs — are visible), instead
	// of once per package. Test harnesses wrap a single package in a
	// one-package Program, which keeps per-package testdata suites
	// usable for whole-program analyzers too.
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

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
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

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { *p.diags = append(*p.diags, d) }

// RunAnalyzers runs each analyzer over pkg and returns the surviving
// diagnostics: suppression directives (//lint:ignore, and the analyzers'
// own blessed annotations, which the analyzers honor themselves) have
// been applied, and the result is sorted by position. A whole-program
// analyzer in the list sees pkg wrapped as a one-package Program — the
// mode the per-package testdata harness relies on.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := runAnalyzers(pkg, analyzers, nil)
	return diags, err
}

// runAnalyzers is RunAnalyzers plus the suppressed-diagnostic count and
// an optional per-analyzer timing hook.
func runAnalyzers(pkg *Package, analyzers []*Analyzer, timing func(name string, d time.Duration)) ([]Diagnostic, int, error) {
	var diags []Diagnostic
	ann := CollectAnnotations(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		start := time.Now()
		var err error
		if a.RunProgram != nil {
			pass := &ProgramPass{Analyzer: a, Prog: NewProgram([]*Package{pkg}), diags: &diags}
			err = a.RunProgram(pass)
		} else {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			err = a.Run(pass)
		}
		if timing != nil {
			timing(a.Name, time.Since(start))
		}
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	kept, suppressed := ann.filterIgnored(diags)
	sortDiags(kept)
	return kept, suppressed, nil
}

// RunWholeProgram runs whole-program analyzers once over prog,
// filtering suppressions against every package's annotations. It
// returns the surviving diagnostics (sorted) and the suppressed count.
func RunWholeProgram(prog *Program, analyzers []*Analyzer, timing func(name string, d time.Duration)) ([]Diagnostic, int, error) {
	var diags []Diagnostic
	var allFiles []*ast.File
	for _, pkg := range prog.Pkgs {
		allFiles = append(allFiles, pkg.Files...)
	}
	ann := CollectAnnotations(prog.Fset, allFiles)
	for _, a := range analyzers {
		if a.RunProgram == nil {
			return nil, 0, fmt.Errorf("%s: not a whole-program analyzer", a.Name)
		}
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
