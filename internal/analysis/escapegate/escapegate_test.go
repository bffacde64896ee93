package escapegate_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/escapegate"
	"repro/internal/analysis/reprolint"
)

// writeModule lays out a throwaway module the gate can compile.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module egtest\n\ngo 1.24\n"

// leakSrc has one hot function with one deterministic escape.
const leakSrc = `package egtest

// hot_path:
func Leak() *int {
	return new(int)
}
`

const noinlineSrc = `package egtest

// inline:
//
//go:noinline
func Spin() int { return 1 }
`

// result is what one run of the gate over a module produced.
type result struct {
	Findings   []reprolint.Diagnostic
	Suppressed int
}

func run(t *testing.T, dir string) *result {
	t.Helper()
	pkgs, err := reprolint.Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, suppressed, err := reprolint.RunWholeProgram(reprolint.NewProgram(pkgs), []*reprolint.Analyzer{escapegate.Analyzer}, nil)
	if err != nil {
		t.Fatalf("escapegate: %v", err)
	}
	return &result{diags, suppressed}
}

func assertFinding(t *testing.T, res *result, want string) {
	t.Helper()
	for _, d := range res.Findings {
		if strings.Contains(d.Message, want) {
			return
		}
	}
	t.Fatalf("no finding contains %q; got %v", want, res.Findings)
}

func TestViolationEscape(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module")
	}
	dir := writeModule(t, map[string]string{"go.mod": goMod, "leak.go": leakSrc})
	res := run(t, dir)
	if len(res.Findings) != 1 {
		t.Fatalf("want exactly 1 finding, got %v", res.Findings)
	}
	assertFinding(t, res, "escape in hot path egtest.Leak")
}

func TestViolationInlineDeclined(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module")
	}
	dir := writeModule(t, map[string]string{"go.mod": goMod, "spin.go": noinlineSrc})
	res := run(t, dir)
	assertFinding(t, res, "compiler declined to inline egtest.Spin")
}

func TestSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module")
	}
	src := `package egtest

// hot_path:
func Leak() *int {
	//lint:ignore escapegate documented one-time allocation
	return new(int)
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "leak.go": src})
	res := run(t, dir)
	if len(res.Findings) != 0 {
		t.Fatalf("suppressed finding survived: %v", res.Findings)
	}
	if res.Suppressed != 1 {
		t.Fatalf("want 1 suppressed, got %d", res.Suppressed)
	}
}

// TestNewEscapeBesideSuppressed: a suppression accepts the escape on its
// own line only; a new escape elsewhere in the same hot function is still
// a finding.
func TestNewEscapeBesideSuppressed(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a module")
	}
	src := `package egtest

var sink []int

// hot_path:
func Leak() *int {
	sink = make([]int, 4)
	//lint:ignore escapegate documented one-time allocation
	return new(int)
}
`
	dir := writeModule(t, map[string]string{"go.mod": goMod, "leak.go": src})
	res := run(t, dir)
	if len(res.Findings) != 1 || res.Suppressed != 1 {
		t.Fatalf("want 1 finding and 1 suppressed, got %v (suppressed %d)", res.Findings, res.Suppressed)
	}
	assertFinding(t, res, "make([]int, 4) escapes to heap")
}
