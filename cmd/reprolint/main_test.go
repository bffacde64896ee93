package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/reprolint"
)

// runSuite runs the full analyzer lineup over the packages pattern
// matches in dir and returns the exit code plus everything printed to
// stdout.
func runSuite(t *testing.T, dir, pattern string, opts reprolint.Options) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := reprolint.Main(&stdout, &stderr, dir, suite(), []string{pattern}, opts)
	if code == 2 {
		t.Fatalf("loader/analyzer failure:\n%s%s", stderr.String(), stdout.String())
	}
	return code, stdout.String()
}

// writeModule materializes a one-package module so the seeded-defect
// tests exercise the real loader path end to end.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	return writeFiles(t, map[string]string{"p.go": src})
}

// writeFiles materializes module tmpmod with the given files, keyed by
// slash-separated path.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// assertFinds runs the suite over a seeded-defect module, checks the
// expected analyzer convicts it, and returns the output.
func assertFinds(t *testing.T, src, analyzer string) string {
	t.Helper()
	code, out := runSuite(t, writeModule(t, src), "./...", reprolint.Options{})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, analyzer+":") {
		t.Fatalf("no %s finding in output:\n%s", analyzer, out)
	}
	return out
}

// TestSeededDoubleReleaseChain: a second release routed through a
// must-release helper chain is a double release.
func TestSeededDoubleReleaseChain(t *testing.T) {
	assertFinds(t, `package tmpmod

type Res struct{ n int }

func (r *Res) Release() {}

func Alloc() *Res { return &Res{n: 1} }

func dispose(r *Res) { r.Release() }

func disposeVia(r *Res) { dispose(r) }

func use() int {
	r := Alloc()
	n := r.n
	r.Release()
	disposeVia(r)
	return n
}
`, "releasecheck")
}

// TestSeededLockInversion: two ranked shard classes acquired out of
// order in one body.
func TestSeededLockInversion(t *testing.T) {
	assertFinds(t, `package tmpmod

import "sync"

type shardA struct {
	mu sync.Mutex // lock_rank: 10
}

type shardB struct {
	mu sync.Mutex // lock_rank: 20
}

func crossShard(a *shardA, b *shardB) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
`, "lockorder")
}

// TestSeededHotPathBlocking: a hot_path function acquiring a mutex it
// did not declare with locks= is a blocking hot path.
func TestSeededHotPathBlocking(t *testing.T) {
	assertFinds(t, `package tmpmod

import "sync"

type tab struct {
	mu sync.Mutex
	n  int
}

// hot_path: lookup fast path.
func (t *tab) get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
`, "hotpath")
}

// TestSeededHotPathAllocation: an escaping allocation in a hot_path
// function is a finding even when nothing blocks. It is escapegate's
// alone: hotpath has no rule for composite literals.
func TestSeededHotPathAllocation(t *testing.T) {
	out := assertFinds(t, `package tmpmod

type node struct{ next *node }

// hot_path: the push fast path.
func push(head *node) *node {
	return &node{next: head}
}
`, "escapegate")
	if strings.Contains(out, "hotpath:") {
		t.Fatalf("hotpath reported the escape too:\n%s", out)
	}
}

// TestSeededDeadCode: a function under internal/ that no file names is
// dead. One called from another package, a method an interface declares
// and a method of a type the module's root package aliases are not.
func TestSeededDeadCode(t *testing.T) {
	dir := writeFiles(t, map[string]string{
		"facade.go": `package tmpmod

import "tmpmod/internal/core"

type Box = core.Box

func Use() int { return core.Called() }
`,
		"internal/core/core.go": `package core

type Box struct{ n int }

func (b *Box) Size() int { return b.n }

type sizer interface{ Len() int }

type list []int

func (l list) Len() int { return len(l) }

func Called() int {
	var s sizer = list{1}
	return s.Len()
}

func Uncalled() int { return 1 }
`,
	})
	code, out := runSuite(t, dir, "./...", reprolint.Options{})
	if code != 1 || strings.Count(out, "\n") != 1 || !strings.Contains(out, "deadcode: tmpmod/internal/core.Uncalled is never used") {
		t.Fatalf("exit = %d, want 1 with one deadcode finding for Uncalled; output:\n%s", code, out)
	}
}

// TestJSONReport: -json writes a machine-readable report with each
// finding's analyzer, position, and message, escapegate's included.
func TestJSONReport(t *testing.T) {
	dir := writeModule(t, `package tmpmod

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded_by: mu
}

func (c *counter) peek() int { return c.n }

func (c *counter) quiet() int {
	//lint:ignore lockorder test fixture reads before the counter is shared
	return c.n
}

// hot_path:
func fresh() *counter {
	return &counter{}
}

// hot_path:
func accepted() *counter {
	//lint:ignore escapegate test fixture's accepted escape
	return &counter{}
}
`)
	path := filepath.Join(t.TempDir(), "report.json")
	code, _ := runSuite(t, dir, "./...", reprolint.Options{JSONPath: path})
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"findings"`
		Suppressed int      `json:"suppressed"`
		Packages   int      `json:"packages"`
		Analyzers  []string `json:"analyzers"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %+v, want exactly two", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Analyzer != "lockorder" || !strings.HasSuffix(f.File, "p.go") ||
		f.Line == 0 || !strings.Contains(f.Message, "guarded_by: mu") {
		t.Errorf("finding = %+v, want a lockorder guarded_by finding at p.go:<line>", f)
	}
	if f := rep.Findings[1]; f.Analyzer != "escapegate" || !strings.Contains(f.Message, "hot path tmpmod.fresh") {
		t.Errorf("finding = %+v, want escapegate's escape in fresh", f)
	}
	if rep.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (the lint:ignore lines in quiet and accepted)", rep.Suppressed)
	}
	if rep.Packages == 0 || len(rep.Analyzers) != len(suite()) {
		t.Errorf("inventory packages=%d analyzers=%v", rep.Packages, rep.Analyzers)
	}
}

// copyRepo copies the program — the root module and the nested
// benchmark module, go.mod files plus every non-testdata .go file — into
// a temp dir so the negative controls can mutate it freely.
func copyRepo(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// mutate applies one textual edit to rel inside dir and returns an undo
// function. The anchor must occur exactly once so a refactor that moves
// the seeded-defect site fails loudly instead of silently passing.
func mutate(t *testing.T, dir, rel, old, new string) func() {
	t.Helper()
	path := filepath.Join(dir, rel)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(orig), old); n != 1 {
		t.Fatalf("%s: anchor %q occurs %d times, want 1", rel, old, n)
	}
	mutated := strings.Replace(string(orig), old, new, 1)
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNegativeControls deletes one load-bearing statement at a time
// from a copy of the real tree — a snapshot Release, the Fork epoch
// bump, the manifest-log Sync, a client lock, a TLB flush — or seeds an
// allocation into the TLB read hit path, or adds a helper nothing calls,
// and asserts the gate convicts each mutant while passing the unmutated
// copy. No test catches the
// Release (releasecheck), the client lock (lockorder; -race passes too)
// or the Seal flush (boundary) rows. A sole row must be reported by its
// analyzer alone.
func TestNegativeControls(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree loads are slow; skipped in -short")
	}
	dir := copyRepo(t)
	// The one lint run (make lint): from the benchmark module, whose build
	// list holds the root module, repro/... loads both.
	lint := func() (int, string) {
		return runSuite(t, filepath.Join(dir, "benchmark"), "repro/...", reprolint.Options{})
	}

	if code, out := lint(); code != 0 {
		t.Fatalf("unmutated copy: exit = %d, want 0; output:\n%s", code, out)
	}

	controls := []struct {
		name     string
		rel      string
		old, new string
		analyzer string
		sole     bool
	}{
		{
			name:     "deleted snapshot release",
			rel:      filepath.Join("internal", "service", "service.go"),
			old:      "\tdefer cand.Release()\n",
			new:      "",
			analyzer: "releasecheck",
		},
		{
			name:     "deleted fork epoch bump",
			rel:      filepath.Join("internal", "mem", "addrspace.go"),
			old:      "\tas.AdvanceEpoch()\n\tif as.pt.root != nil {",
			new:      "\tif as.pt.root != nil {",
			analyzer: "boundary",
		},
		{
			name:     "allocation seeded into the TLB read hot path",
			rel:      filepath.Join("internal", "mem", "addrspace.go"),
			old:      "\t\tif f, ok := as.tlb.readFrame(vpn); ok {",
			new:      "\t\t_ = fmt.Sprintf(\"hot %d\", vpn)\n\t\tif f, ok := as.tlb.readFrame(vpn); ok {",
			analyzer: "hotpath",
		},
		{
			// The store sits on a branch no test takes, so the
			// AllocsPerRun pins cannot see it either.
			name: "escaping store seeded into the TLB read hot path",
			rel:  filepath.Join("internal", "mem", "addrspace.go"),
			old:  "\t\tif f, ok := as.tlb.readFrame(vpn); ok {",
			new: "\t\tif f, ok := as.tlb.readFrame(vpn); ok {\n" +
				"\t\t\tif f == nil && vpn == 0 {\n\t\t\t\tas.tlb.e = &tlbEntries{}\n\t\t\t}",
			analyzer: "escapegate",
			sole:     true,
		},
		{
			name: "deleted manifest log sync",
			rel:  filepath.Join("internal", "store", "store.go"),
			old: "\tif err := s.log.Sync(); err != nil {\n" +
				"\t\treturn fmt.Errorf(\"store: sync log: %w\", err)\n" +
				"\t}\n",
			new:      "",
			analyzer: "boundary",
		},
		{
			name: "deleted lock in Client.forget",
			rel:  filepath.Join("internal", "service", "wire", "client.go"),
			old: "\tc.mu.Lock()\n\tif cur, ok := c.pending[call.Req.ReqID]; ok && cur == call {\n" +
				"\t\tdelete(c.pending, call.Req.ReqID)\n\t}\n\tc.mu.Unlock()\n",
			new: "\tif cur, ok := c.pending[call.Req.ReqID]; ok && cur == call {\n" +
				"\t\tdelete(c.pending, call.Req.ReqID)\n\t}\n",
			analyzer: "lockorder",
		},
		{
			name: "uncalled helper added to the address space",
			rel:  filepath.Join("internal", "mem", "addrspace.go"),
			old:  "// InitBrk establishes the program break",
			new: "// RegionCount returns the number of mapped regions.\n" +
				"func (as *AddressSpace) RegionCount() int { return len(as.vmas) }\n\n" +
				"// InitBrk establishes the program break",
			analyzer: "deadcode",
			sole:     true,
		},
		{
			name:     "deleted Seal TLB flush",
			rel:      filepath.Join("internal", "mem", "addrspace.go"),
			old:      "\tas.tlb.off = true\n\tas.tlb.flush()\n\tas.sealed = true\n",
			new:      "\tas.tlb.off = true\n\tas.sealed = true\n",
			analyzer: "boundary",
		},
	}
	for _, c := range controls {
		t.Run(c.name, func(t *testing.T) {
			undo := mutate(t, dir, c.rel, c.old, c.new)
			defer undo()
			code, out := lint()
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (mutation undetected)", code)
			}
			if !strings.Contains(out, c.analyzer+":") {
				t.Fatalf("no %s finding for the mutation; output:\n%s", c.analyzer, out)
			}
			if c.sole && strings.Count(out, ": "+c.analyzer+": ") != strings.Count(out, "\n") {
				t.Fatalf("a finding from another analyzer than %s; output:\n%s", c.analyzer, out)
			}
		})
	}
}
