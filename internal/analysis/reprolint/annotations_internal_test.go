package reprolint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// TestIgnoreRequiresReason: a bare //lint:ignore with no reason does not
// suppress — the reason is part of the directive grammar.
func TestIgnoreRequiresReason(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package p

//lint:ignore lockorder
var a int

//lint:ignore lockorder because reasons
var b int
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ann := CollectAnnotations(fset, []*ast.File{f})
	mk := func(line int) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: "x.go", Line: line},
			Analyzer: "lockorder",
		}
	}
	// Line 4 is `var a` (directive above lacks a reason); line 7 is `var b`.
	got, suppressed := ann.filterIgnored([]Diagnostic{mk(4), mk(7)})
	if len(got) != 1 || got[0].Pos.Line != 4 || suppressed != 1 {
		t.Errorf("filterIgnored = %v (suppressed %d), want only the reasonless line-4 diagnostic kept", got, suppressed)
	}
}

// TestOwnershipDirectiveMapsToReleasecheck: //lint:ownership transferred
// suppresses releasecheck findings on its own and the following line,
// and nothing else.
func TestOwnershipDirectiveMapsToReleasecheck(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", `package p

//lint:ownership transferred registered in a global table
var a int
`, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ann := CollectAnnotations(fset, []*ast.File{f})
	rel := Diagnostic{Pos: token.Position{Filename: "x.go", Line: 4}, Analyzer: "releasecheck"}
	other := Diagnostic{Pos: token.Position{Filename: "x.go", Line: 4}, Analyzer: "lockorder"}
	got, suppressed := ann.filterIgnored([]Diagnostic{rel, other})
	if len(got) != 1 || got[0].Analyzer != "lockorder" || suppressed != 1 {
		t.Errorf("filterIgnored = %v (suppressed %d), want only the lockorder diagnostic kept", got, suppressed)
	}
}

// TestPerfDirectives: hot_path:/cheap:/inline: parse, including the
// no-space locks= list and its prose-terminated form. The colon is part
// of the grammar — a doc line merely starting with the word "cheap" or
// "inline" is prose, not a directive.
func TestPerfDirectives(t *testing.T) {
	parse := func(src string) FuncAnn {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\n\n"+src+"\nfunc f() {}\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return FuncAnnotation(f.Decls[0].(*ast.FuncDecl))
	}

	a := parse("// f does things.\n// hot_path: locks=closeMu,mu serves the shard hit path")
	if !a.HotPath || a.Cheap || a.Inline {
		t.Errorf("hot_path: got %+v", a)
	}
	if len(a.HotLocks) != 2 || a.HotLocks[0] != "closeMu" || a.HotLocks[1] != "mu" {
		t.Errorf("locks= list: got %v, want [closeMu mu]", a.HotLocks)
	}

	// Prose after a space ends the list: "then" is not a lock class.
	a = parse("// hot_path: locks=mu then some prose, with a comma")
	if len(a.HotLocks) != 1 || a.HotLocks[0] != "mu" {
		t.Errorf("prose-terminated locks=: got %v, want [mu]", a.HotLocks)
	}

	a = parse("// cheap: locks=mu amortized by pooling")
	if !a.Cheap || a.HotPath || len(a.HotLocks) != 1 || a.HotLocks[0] != "mu" {
		t.Errorf("cheap: got %+v", a)
	}

	a = parse("// f is tiny.\n// inline:")
	if !a.Inline {
		t.Errorf("inline: got %+v", a)
	}

	// Prose words without the colon are not directives.
	a = parse("// cheap to copy and inline the call\n// hot_path without a colon is prose too")
	if a.Cheap || a.Inline || a.HotPath {
		t.Errorf("prose misparsed as directives: %+v", a)
	}
}
