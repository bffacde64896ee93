package antest

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/reprolint"
)

// funcNamed is a toy analyzer: it reports every function whose name
// starts with "bad", which is exactly enough to drive the harness's
// want-matching in both directions.
var funcNamed = &reprolint.Analyzer{
	Name: "funcnamed",
	Doc:  "reports functions named bad*",
	RunProgram: func(pass *reprolint.ProgramPass) error {
		for _, pkg := range pass.Prog.Pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && len(fd.Name.Name) >= 3 && fd.Name.Name[:3] == "bad" {
						pass.Reportf(fd.Pos(), "function %s is bad", fd.Name.Name)
					}
				}
			}
		}
		return nil
	},
}

// TestRunMatchesWants: the harness typechecks a real (std-importing)
// package, runs the analyzer, and matches diagnostics against want
// comments — backtick and quoted forms both.
func TestRunMatchesWants(t *testing.T) {
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "src", "tiny")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package tiny

import "strings"

func badUpper(s string) string { return strings.ToUpper(s) } // want ` + "`function badUpper is bad`" + `

func badLower(s string) string { return strings.ToLower(s) } // want "badLower"

func goodNoop(s string) string { return s }
`
	if err := os.WriteFile(filepath.Join(pkgDir, "tiny.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	Run(t, dir, funcNamed, "tiny")
}
