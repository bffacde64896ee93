// Package escapegate cross-checks the performance annotations against
// the real compiler. hotpath proves the absence of *syntactic*
// allocation and blocking in `// hot_path:` functions; escapegate asks
// gc itself — via -gcflags=-json structured diagnostics (logopt) —
// whether anything in those functions still escapes to the heap, and
// whether every `// inline:` function is in fact inlinable.
//
// Every escape in a hot_path function and every declined inline: is a
// finding. An escape the code accepts (a panic message, a first-use
// allocation) carries a //lint:ignore escapegate suppression on the
// escaping line (or the line above), via the same annotation machinery
// as the AST analyzers, so the exception and its reason sit next to
// the code that makes it.
package escapegate

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis/reprolint"
)

// Name is the analyzer name findings carry (and //lint:ignore targets).
const Name = "escapegate"

// Options configures one escapegate run.
type Options struct {
	// Dir is the module directory the patterns resolve in.
	Dir string
	// Patterns selects the packages whose annotations are checked
	// (default ./...). The compiler always builds the whole module.
	Patterns []string
}

// Result is what a run produced.
type Result struct {
	Findings   []reprolint.Diagnostic
	Suppressed int
}

// annFn is one annotated function with its source extent.
type annFn struct {
	name     string // types.Func FullName
	file     string // absolute, cleaned
	declLine int    // line of the func keyword
	endLine  int
	hot      bool
	inline   bool
	pos      token.Position
}

// compilerDiag is one logopt diagnostic mapped into a source file.
type compilerDiag struct {
	line int
	code string
	msg  string
}

// Run loads the annotated functions, rebuilds the module with logopt
// enabled, and reports every escape in a hot function and every
// declined inline.
func Run(opts Options) (*Result, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := reprolint.Load(opts.Dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("escapegate: no packages match %v", patterns)
	}
	fset := pkgs[0].Fset

	var fns []*annFn
	var allFiles []*ast.File
	for _, pkg := range pkgs {
		allFiles = append(allFiles, pkg.Files...)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				a := reprolint.FuncAnnotation(fd)
				if !a.HotPath && !a.Inline {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pos := fset.Position(fd.Pos())
				fns = append(fns, &annFn{
					name:     obj.FullName(),
					file:     filepath.Clean(pos.Filename),
					declLine: pos.Line,
					endLine:  fset.Position(fd.End()).Line,
					hot:      a.HotPath,
					inline:   a.Inline,
					pos:      pos,
				})
			}
		}
	}

	diags, err := compile(opts.Dir)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for _, fn := range fns {
		canInline, inlineNote := false, ""
		seen := map[string]bool{}
		for _, d := range diags[fn.file] {
			if d.line < fn.declLine || d.line > fn.endLine {
				continue
			}
			switch {
			case isEscapeCode(d.code) && fn.hot:
				if d.msg == "" || seen[d.msg] {
					continue // logopt emits empty/duplicate escape entries
				}
				seen[d.msg] = true
				res.Findings = append(res.Findings, reprolint.Diagnostic{
					Pos:      token.Position{Filename: fn.file, Line: d.line, Column: 1},
					Analyzer: Name,
					Message:  fmt.Sprintf("compiler reports an escape in hot path %s: %s", fn.name, d.msg),
				})
			case d.code == "canInlineFunction" && d.line == fn.declLine:
				canInline = true
			case d.code == "cannotInlineFunction" && d.line == fn.declLine:
				inlineNote = d.msg
			}
		}
		if fn.inline && !canInline {
			msg := fmt.Sprintf("compiler declined to inline %s", fn.name)
			if inlineNote != "" {
				msg += ": " + inlineNote
			}
			res.Findings = append(res.Findings, reprolint.Diagnostic{Pos: fn.pos, Analyzer: Name, Message: msg})
		}
	}

	ann := reprolint.CollectAnnotations(fset, allFiles)
	res.Findings, res.Suppressed = ann.Filter(res.Findings)
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i].Pos, res.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return res, nil
}

// isEscapeCode reports whether a logopt code is an escape-analysis
// heap verdict. "leak" (a parameter leaking to its caller) is not an
// allocation in this function and is deliberately excluded.
func isEscapeCode(code string) bool {
	return code == "escape" || code == "escapes"
}

// compile rebuilds the whole module with logopt enabled into a fresh
// temp dir (a fresh dir changes the cache key, defeating the build
// cache's diagnostic suppression) and parses every emitted JSON file.
func compile(dir string) (map[string][]compilerDiag, error) {
	mod, err := goListModule(dir)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "escapegate-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	cmd := exec.Command("go", "build", "-gcflags="+mod+"/...=-json=0,"+tmp, "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("escapegate: go build -gcflags=-json: %v\n%s", err, stderr.String())
	}

	diags := map[string][]compilerDiag{}
	err = filepath.WalkDir(tmp, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		return parseLogopt(path, diags)
	})
	if err != nil {
		return nil, fmt.Errorf("escapegate: reading logopt output: %w", err)
	}
	return diags, nil
}

// parseLogopt reads one per-source-file logopt stream: a header line
// naming the source file, then one LSP-style diagnostic per line.
func parseLogopt(path string, out map[string][]compilerDiag) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var srcFile string
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if srcFile == "" {
			var hdr struct {
				File string `json:"file"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.File == "" {
				return fmt.Errorf("escapegate: %s: malformed logopt header", path)
			}
			srcFile = filepath.Clean(hdr.File)
			continue
		}
		var d struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Range   struct {
				Start struct {
					Line int `json:"line"`
				} `json:"start"`
			} `json:"range"`
		}
		if err := json.Unmarshal(line, &d); err != nil {
			continue // tolerate future logopt record shapes
		}
		out[srcFile] = append(out[srcFile], compilerDiag{
			line: d.Range.Start.Line,
			code: d.Code,
			msg:  d.Message,
		})
	}
	return sc.Err()
}

func goListModule(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("escapegate: go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}
