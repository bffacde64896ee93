package reprolint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Options configures the driver beyond its defaults.
type Options struct {
	// JSONPath, when non-empty, writes a machine-readable report of the
	// run — per-finding analyzer/position/message plus the suppressed
	// count — to this file (CI archives it as the reprolint artifact).
	JSONPath string
	// Time prints per-analyzer wall time to stderr after the run.
	Time bool
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
// the analyzers once over all of them. Diagnostics print to stdout in
// position order, loader failures to stderr. The return value is the
// process exit code: 0 clean, 1 findings, 2 load/run error — so
// `go run ./cmd/reprolint ./...` is a usable CI gate.
func Main(stdout, stderr io.Writer, dir string, analyzers []*Analyzer, patterns []string, opts Options) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	timings := map[string]time.Duration{}
	all, suppressed, err := RunWholeProgram(NewProgram(pkgs), analyzers, func(name string, d time.Duration) {
		timings[name] = d
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
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
			Suppressed: suppressed,
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
