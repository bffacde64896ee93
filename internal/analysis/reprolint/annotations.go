package reprolint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// Annotation grammar (see DESIGN.md "Static analysis & invariants"):
//
//	//lint:ownership transferred [reason]
//	    On (or on the line above) a snapshot/frame acquisition: the
//	    value's ownership is handed off in a way releasecheck cannot
//	    see. Blessed suppression for releasecheck only.
//
//	//lint:ignore <analyzer> <reason>
//	    General escape hatch: suppresses that analyzer's findings on
//	    the same or the following line. A reason is required.
//
//	// guarded_by: <mutex-field>
//	    On a struct field: every read/write outside a function that
//	    syntactically holds the named sibling mutex (or is annotated
//	    locks_held) is a lockorder finding.
//
//	// locks_held: <mutex-field>[, <mutex-field>...]
//	    On a function: callers are contractually holding the named
//	    mutexes, so accesses to fields they guard are not re-checked.
//
//	// sharing_boundary
//	    On a function: every success path must invalidate the TLB
//	    (boundary).
//
//	// flushes_tlb
//	    On a function: calling it counts as a TLB invalidation.
//
//	// epoch_boundary
//	    On a function: it makes privately-owned pages shared (capture,
//	    fork), so every success path must advance the snapshot epoch
//	    (boundary).
//
//	// bumps_epoch
//	    On a function: calling it counts as a snapshot-epoch advance.
//
//	// durable: publishes-synced
//	    On a function: it renames/creates files AND syncs their
//	    directory entries internally, so calls to it are already-synced
//	    publishes for boundary's store rules.
//
//	// lock_rank: <int> [prose]
//	    On a mutex field or package-level mutex var: its position in the
//	    global acquisition order. While a lock of rank r is held, only
//	    locks of strictly greater rank may be acquired (lockorder).
//	    Unranked locks are still covered by cycle detection.
//
//	// no_block: <reason>
//	    On a mutex field or package-level mutex var: its critical
//	    sections must not block — no channel send/receive outside a
//	    select with a default, no further Lock of any class, no file
//	    I/O, no Cond/WaitGroup waits, directly or through any resolved
//	    callee (lockorder).
//
//	// hot_path: [locks=<mutex>[,<mutex>...]] [prose]
//	    On a function: it is on a performance-critical path. hotpath
//	    forbids heap-allocation sites, defer (except a deferred Unlock
//	    of an allowed lock class), and blocking ops inside it, and
//	    requires every resolved callee to be hot_path, cheap, or on
//	    the stdlib cheap allowlist. The optional locks= list (no
//	    spaces, comma-separated field names) names the short
//	    critical-section classes the function may take. escapegate
//	    additionally cross-checks the compiler's escape analysis.
//
//	// cheap: [locks=<mutex>[,<mutex>...]] [prose]
//	    On a function: hot_path callers may call it. Its body is
//	    trusted to be amortized-cheap (allocation is allowed — e.g.
//	    the CoW fault path allocates the private copy by design) but
//	    hotpath still rejects direct blocking ops in it, with the
//	    same locks= escape for its own short critical sections.
//
//	// inline:
//	    On a function: escapegate asserts the compiler reports it
//	    inlinable (canInlineFunction); a declined inline is a finding.

// FuncAnn is the set of function-level directives.
type FuncAnn struct {
	SharingBoundary bool
	FlushesTLB      bool
	EpochBoundary   bool
	BumpsEpoch      bool
	DurablePublish  bool
	LocksHeld       []string

	// Performance-invariant directives (hotpath/escapegate).
	HotPath  bool
	Cheap    bool
	Inline   bool
	HotLocks []string // locks= classes a hot_path/cheap body may take
}

// FuncAnnotation parses fn's doc comment directives.
func FuncAnnotation(fn *ast.FuncDecl) FuncAnn {
	var a FuncAnn
	if fn == nil || fn.Doc == nil {
		return a
	}
	for _, c := range fn.Doc.List {
		line := directiveText(c.Text)
		switch {
		case directiveIs(line, "sharing_boundary"):
			a.SharingBoundary = true
		case directiveIs(line, "flushes_tlb"):
			a.FlushesTLB = true
		case directiveIs(line, "epoch_boundary"):
			a.EpochBoundary = true
		case directiveIs(line, "bumps_epoch"):
			a.BumpsEpoch = true
		case directiveIs(line, "durable") && strings.Contains(line, "publishes-synced"):
			a.DurablePublish = true
		case directiveIs(line, "locks_held"):
			a.LocksHeld = append(a.LocksHeld, parseNameList(line)...)
		// The performance directives require the colon form: "cheap"
		// and "inline" are ordinary words a doc comment may start with.
		case strings.HasPrefix(line, "hot_path:"):
			a.HotPath = true
			a.HotLocks = append(a.HotLocks, parseLocksList(line)...)
		case strings.HasPrefix(line, "cheap:"):
			a.Cheap = true
			a.HotLocks = append(a.HotLocks, parseLocksList(line)...)
		case strings.HasPrefix(line, "inline:"):
			a.Inline = true
		}
	}
	return a
}

// parseLocksList extracts the comma-separated (no spaces) identifier
// list after a "locks=" token, e.g. "hot_path: locks=closeMu,mu serves
// the shard hit path" yields [closeMu mu]. Trailing prose after the
// list is tolerated; a space ends the list.
func parseLocksList(line string) []string {
	_, rest, ok := strings.Cut(line, "locks=")
	if !ok {
		return nil
	}
	var out []string
	for _, part := range strings.Split(rest, ",") {
		name := identPrefix(part)
		if name == "" {
			break
		}
		out = append(out, name)
		// Prose after the name ends the list: "locks=mu then prose".
		if len(name) != len(part) {
			break
		}
	}
	return out
}

// FieldGuards returns the mutex names named by guarded_by directives on
// a struct field (doc comment or trailing line comment).
func FieldGuards(f *ast.Field) []string {
	var out []string
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			line := directiveText(c.Text)
			if directiveIs(line, "guarded_by") {
				out = append(out, parseNameList(line)...)
			}
		}
	}
	return out
}

// LockAnn is the set of lock-discipline directives on a mutex field or
// package-level mutex var declaration.
type LockAnn struct {
	Rank    int
	HasRank bool
	NoBlock bool
}

// LockAnnotation parses the lock-discipline directives out of the
// comment groups attached to a declaration (doc and trailing comment).
func LockAnnotation(groups ...*ast.CommentGroup) LockAnn {
	var a LockAnn
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			line := directiveText(c.Text)
			switch {
			case directiveIs(line, "lock_rank"):
				if _, rest, ok := strings.Cut(line, ":"); ok {
					fields := strings.Fields(rest)
					if len(fields) > 0 {
						if n, err := strconv.Atoi(fields[0]); err == nil {
							a.Rank, a.HasRank = n, true
						}
					}
				}
			case directiveIs(line, "no_block"):
				a.NoBlock = true
			}
		}
	}
	return a
}

// directiveText strips the comment markers and leading space.
func directiveText(text string) string {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	return strings.TrimSpace(text)
}

// directiveIs reports whether line starts with the directive word,
// optionally followed by ':' and an explanation.
func directiveIs(line, word string) bool {
	if !strings.HasPrefix(line, word) {
		return false
	}
	rest := line[len(word):]
	return rest == "" || strings.HasPrefix(rest, ":") || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t")
}

// parseNameList extracts the comma-separated identifier list after the
// first ':' in a directive line, stopping each name at the first
// non-identifier rune (so trailing prose is tolerated).
func parseNameList(line string) []string {
	_, rest, ok := strings.Cut(line, ":")
	if !ok {
		return nil
	}
	var out []string
	for _, part := range strings.Split(rest, ",") {
		name := identPrefix(strings.TrimSpace(part))
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

func identPrefix(s string) string {
	for i, r := range s {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return s[:i]
	}
	return s
}

// Annotations indexes the suppression directives of one package.
type Annotations struct {
	// ignores maps filename -> line -> analyzer names suppressed there
	// ("*" = releasecheck's ownership-transferred blessing).
	ignores map[string]map[int][]string
}

// CollectAnnotations scans every comment in the files for //lint:
// suppression directives.
func CollectAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{ignores: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				var name string
				switch {
				case strings.HasPrefix(text, "lint:ownership"):
					rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ownership"))
					if strings.HasPrefix(rest, "transferred") {
						name = "releasecheck"
					}
				case strings.HasPrefix(text, "lint:ignore"):
					fields := strings.Fields(strings.TrimPrefix(text, "lint:ignore"))
					if len(fields) >= 2 { // analyzer name plus a reason
						name = fields[0]
					}
				}
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				if a.ignores[pos.Filename] == nil {
					a.ignores[pos.Filename] = map[int][]string{}
				}
				a.ignores[pos.Filename][pos.Line] = append(a.ignores[pos.Filename][pos.Line], name)
			}
		}
	}
	return a
}

// Filter drops diagnostics suppressed by a //lint: directive, returning
// the survivors and the number suppressed. It is the exported form of
// filterIgnored for out-of-package analyzers (escapegate) that produce
// diagnostics outside the RunAnalyzers pipeline.
func (a *Annotations) Filter(diags []Diagnostic) ([]Diagnostic, int) {
	return a.filterIgnored(diags)
}

// filterIgnored drops diagnostics suppressed by a directive on their own
// line or the line directly above (the directive-on-its-own-line idiom),
// returning the survivors and the number suppressed.
func (a *Annotations) filterIgnored(diags []Diagnostic) ([]Diagnostic, int) {
	out := diags[:0]
	suppressed := 0
	for _, d := range diags {
		if a.suppressed(d) {
			suppressed++
			continue
		}
		out = append(out, d)
	}
	return out, suppressed
}

func (a *Annotations) suppressed(d Diagnostic) bool {
	m := a.ignores[d.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range m[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}
