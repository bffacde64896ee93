package reprolint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Options configures the driver beyond its defaults.
type Options struct {
	// JSONPath, when non-empty, writes a machine-readable report of the
	// run — per-finding analyzer/position/message plus the suppressed
	// count — to this file (CI archives it as the reprolint artifact).
	JSONPath string
	// Time prints per-analyzer cumulative wall time to stderr after the
	// run.
	Time bool
	// Jobs bounds the per-package worker pool; <=0 means GOMAXPROCS.
	Jobs int
}

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// jsonReport is the -json payload.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
	Packages   int           `json:"packages"`
	Analyzers  []string      `json:"analyzers"`
}

// Main loads the packages matching patterns (relative to dir) and runs
// the given analyzers over each.
// Diagnostics print to stdout, loader failures to stderr. The return
// value is the process exit code: 0 clean, 1 findings, 2 load/run error
// — so `go run ./cmd/reprolint ./...` is a usable CI gate.
func Main(stdout, stderr io.Writer, dir string, analyzers []*Analyzer, patterns []string) int {
	return MainOpts(stdout, stderr, dir, analyzers, patterns, Options{})
}

// MainOpts is Main with Options. Per-package analyzers run over the
// packages on a worker pool bounded by Options.Jobs (default
// GOMAXPROCS); whole-program analyzers run once over everything loaded.
// Diagnostics are emitted in deterministic order regardless of worker
// interleaving: per-package findings in package load order (each
// package's findings position-sorted), then whole-program findings
// position-sorted.
func MainOpts(stdout, stderr io.Writer, dir string, analyzers []*Analyzer, patterns []string, opts Options) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var perPkg, whole []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			whole = append(whole, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	var timingMu sync.Mutex
	timings := map[string]time.Duration{}
	timing := func(name string, d time.Duration) {
		timingMu.Lock()
		timings[name] += d
		timingMu.Unlock()
	}

	// Per-package phase: a bounded worker pool over the package list.
	// Results land in per-index slots so emission order is package load
	// order no matter which worker finished first.
	type pkgResult struct {
		diags      []Diagnostic
		suppressed int
		err        error
	}
	results := make([]pkgResult, len(pkgs))
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(pkgs) {
		jobs = len(pkgs)
	}
	if jobs < 1 {
		jobs = 1
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				diags, suppressed, err := runAnalyzers(pkgs[i], perPkg, timing)
				results[i] = pkgResult{diags: diags, suppressed: suppressed, err: err}
			}
		}()
	}
	for i := range pkgs {
		work <- i
	}
	close(work)
	wg.Wait()

	var all []Diagnostic
	totalSuppressed := 0
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintln(stderr, r.err)
			return 2
		}
		all = append(all, r.diags...)
		totalSuppressed += r.suppressed
	}

	// Whole-program phase.
	if len(whole) > 0 {
		prog := NewProgram(pkgs)
		diags, suppressed, err := RunWholeProgram(prog, whole, timing)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		all = append(all, diags...)
		totalSuppressed += suppressed
	}

	for _, d := range all {
		fmt.Fprintln(stdout, d)
	}

	if opts.Time {
		names := make([]string, 0, len(timings))
		for name := range timings {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return timings[names[i]] > timings[names[j]] })
		for _, name := range names {
			fmt.Fprintf(stderr, "reprolint: %-14s %8.1fms\n", name, float64(timings[name].Microseconds())/1000)
		}
	}

	if opts.JSONPath != "" {
		report := jsonReport{
			Findings:   []jsonFinding{},
			Suppressed: totalSuppressed,
			Packages:   len(pkgs),
		}
		for _, a := range analyzers {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range all {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(opts.JSONPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "reprolint: writing %s: %v\n", opts.JSONPath, err)
			return 2
		}
	}

	if len(all) > 0 {
		fmt.Fprintf(stderr, "reprolint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}
