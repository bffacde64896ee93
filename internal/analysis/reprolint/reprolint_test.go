package reprolint_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/boundary"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/releasecheck"
	"repro/internal/analysis/reprolint"
)

// writeModule materializes a one-package module under a temp dir so Main
// exercises the real loader path: `go list -export`, gc export-data
// imports, typechecking from source.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const violatingSrc = `package tmpmod

import (
	"os"
	"sync"
)

type counter struct {
	mu sync.Mutex
	// guarded_by: mu
	n int
}

func (c *counter) bad() int {
	return c.n
}

func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) suppressed() int {
	//lint:ignore lockorder single-threaded in this test fixture
	return c.n
}

// sharing_boundary
func noFlush() {}

type res struct{ n int }

func (r *res) Release() {}

// Alloc returns an owned res.
func Alloc() *res { return &res{} }

func leak() {
	r := Alloc()
	_ = r.n
}

func publish(tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return nil
}
`

// TestMainReportsAndSuppresses drives the full pipeline — load, run,
// annotation collection, suppression, diagnostic printing, exit code —
// over a module with one violation per flow analyzer plus one suppressed
// access. The unsynced rename in publish proves boundary's store rules
// skip other packages.
func TestMainReportsAndSuppresses(t *testing.T) {
	dir := writeModule(t, violatingSrc)
	analyzers := []*reprolint.Analyzer{
		releasecheck.Analyzer,
		lockorder.Analyzer,
		boundary.Analyzer,
	}
	var stdout, stderr bytes.Buffer
	code := reprolint.Main(&stdout, &stderr, dir, analyzers, nil, reprolint.Options{})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"lockorder", "boundary", "releasecheck"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s finding in output:\n%s", want, out)
		}
	}
	if strings.Contains(out, "os.Rename") {
		t.Errorf("boundary's store rules ran outside the store:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 3 {
		t.Errorf("%d findings, want exactly 3 (the suppressed access must be filtered):\n%s", n, out)
	}
}

// TestMainCleanModule: the same analyzers over violation-free code must
// exit 0 and print nothing.
func TestMainCleanModule(t *testing.T) {
	dir := writeModule(t, `package tmpmod

import "sync"

type counter struct {
	mu sync.Mutex
	// guarded_by: mu
	n int
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
`)
	var stdout, stderr bytes.Buffer
	code := reprolint.Main(&stdout, &stderr, dir, []*reprolint.Analyzer{
		releasecheck.Analyzer, lockorder.Analyzer, boundary.Analyzer,
	}, []string{"./..."}, reprolint.Options{})
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean module produced output:\n%s", stdout.String())
	}
}

// TestMainLoadError: an unresolvable pattern is a loader error (exit 2),
// not findings.
func TestMainLoadError(t *testing.T) {
	dir := writeModule(t, "package tmpmod\n")
	var stdout, stderr bytes.Buffer
	code := reprolint.Main(&stdout, &stderr, dir, []*reprolint.Analyzer{lockorder.Analyzer}, []string{"./no/such/dir"}, reprolint.Options{})
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if stderr.Len() == 0 {
		t.Error("loader error printed nothing to stderr")
	}
}

// parseOne parses a snippet and returns its only function declaration.
func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// TestFuncAnnotationGrammar pins the directive grammar corners: prose
// after the directive word, comma lists, trailing parentheticals.
func TestFuncAnnotationGrammar(t *testing.T) {
	_, f := parseOne(t, `package p

// sharing_boundary: dropped frames may still be cached.
// flushes_tlb
// durable: publishes-synced
// locks_held: mu, tableMu (trivially: unpublished)
func x() {}

// sharing_boundaryX must NOT match the sharing_boundary directive.
func y() {}
`)
	fx := f.Decls[0].(*ast.FuncDecl)
	ann := reprolint.FuncAnnotation(fx)
	if !ann.SharingBoundary || !ann.FlushesTLB || !ann.DurablePublish {
		t.Errorf("directives not all parsed: %+v", ann)
	}
	if len(ann.LocksHeld) != 2 || ann.LocksHeld[0] != "mu" || ann.LocksHeld[1] != "tableMu" {
		t.Errorf("LocksHeld = %v, want [mu tableMu]", ann.LocksHeld)
	}
	fy := f.Decls[1].(*ast.FuncDecl)
	if reprolint.FuncAnnotation(fy).SharingBoundary {
		t.Error("sharing_boundaryX parsed as sharing_boundary")
	}
	if ann := reprolint.FuncAnnotation(nil); ann.SharingBoundary || ann.FlushesTLB || ann.DurablePublish || len(ann.LocksHeld) != 0 {
		t.Error("nil FuncDecl yielded annotations")
	}
}

// TestFieldGuards covers both annotation positions: doc comment above
// the field and trailing comment on its line.
func TestFieldGuards(t *testing.T) {
	_, f := parseOne(t, `package p

import "sync"

type s struct {
	mu sync.Mutex
	// guarded_by: mu
	a int
	b int // guarded_by: mu — with prose
	c int
}

var _ = sync.Mutex{}
`)
	st := f.Decls[1].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.StructType)
	got := map[string][]string{}
	for _, fld := range st.Fields.List {
		got[fld.Names[0].Name] = reprolint.FieldGuards(fld)
	}
	if len(got["a"]) != 1 || got["a"][0] != "mu" {
		t.Errorf("a guards = %v", got["a"])
	}
	if len(got["b"]) != 1 || got["b"][0] != "mu" {
		t.Errorf("b guards = %v", got["b"])
	}
	if len(got["c"]) != 0 {
		t.Errorf("c guards = %v, want none", got["c"])
	}
}
