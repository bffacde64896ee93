// Package escapegate cross-checks the performance annotations against
// the real compiler. It asks gc itself — via -gcflags=-json structured
// diagnostics (logopt) — whether anything in a `// hot_path:` function
// escapes to the heap, and whether every `// inline:` function is in
// fact inlinable. It is the allocation gate for everything that
// escapes: composite literals, new/make, boxing, closures, method
// values, variadic slices, and the allocations of inlined callees.
// hotpath keeps what the escape verdicts cannot show (append growth,
// string building, calls to unannotated code) and all blocking rules.
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
	"strings"

	"repro/internal/analysis/reprolint"
)

// Analyzer rebuilds the packages that hold a hot_path: or inline:
// function with logopt enabled and reports every escape in a hot
// function and every declined inline.
var Analyzer = &reprolint.Analyzer{
	Name:       "escapegate",
	Doc:        "nothing in a hot_path: function may escape to the heap, and every inline: function must inline, by the compiler's own verdict",
	RunProgram: run,
}

// annFn is one annotated function with its source extent.
type annFn struct {
	name     string // types.Func FullName
	tf       *token.File
	declLine int // line of the func keyword
	endLine  int
	hot      bool
	inline   bool
	pos      token.Pos
}

// compilerDiag is one logopt diagnostic mapped into a source file.
type compilerDiag struct {
	line int
	code string
	msg  string
}

func run(pass *reprolint.ProgramPass) error {
	fset := pass.Prog.Fset
	var fns []*annFn
	var dir string
	var paths []string
	for _, pkg := range pass.Prog.Pkgs {
		n := len(fns)
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
				fns = append(fns, &annFn{
					name:     obj.FullName(),
					tf:       fset.File(fd.Pos()),
					declLine: fset.Position(fd.Pos()).Line,
					endLine:  fset.Position(fd.End()).Line,
					hot:      a.HotPath,
					inline:   a.Inline,
					pos:      fd.Pos(),
				})
			}
		}
		if len(fns) > n {
			dir = filepath.Dir(fns[n].tf.Name())
			paths = append(paths, pkg.ImportPath)
		}
	}
	if len(fns) == 0 {
		return nil
	}

	diags, err := compile(dir, paths)
	if err != nil {
		return err
	}

	for _, fn := range fns {
		canInline, inlineNote := false, ""
		seen := map[string]bool{}
		for _, d := range diags[filepath.Clean(fn.tf.Name())] {
			if d.line < fn.declLine || d.line > fn.endLine {
				continue
			}
			switch {
			case isEscapeCode(d.code) && fn.hot:
				if d.msg == "" || seen[d.msg] {
					continue // logopt emits empty/duplicate escape entries
				}
				seen[d.msg] = true
				pass.Reportf(fn.tf.LineStart(d.line), "compiler reports an escape in hot path %s: %s", fn.name, d.msg)
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
			pass.Reportf(fn.pos, "%s", msg)
		}
	}
	return nil
}

// isEscapeCode reports whether a logopt code is an escape-analysis
// heap verdict. "leak" (a parameter leaking to its caller) is not an
// allocation in this function and is deliberately excluded.
func isEscapeCode(code string) bool {
	return code == "escape" || code == "escapes"
}

// compile rebuilds the packages at paths with logopt enabled into a
// fresh temp dir (a fresh dir changes their cache key, defeating the
// build cache's diagnostic suppression; their dependencies stay cached)
// and parses every emitted JSON file. dir is any directory inside the
// module.
func compile(dir string, paths []string) (map[string][]compilerDiag, error) {
	tmp, err := os.MkdirTemp("", "escapegate-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	args := []string{"build"}
	for _, p := range paths {
		args = append(args, "-gcflags="+p+"=-json=0,"+tmp)
	}
	cmd := exec.Command("go", append(args, paths...)...)
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
