// Command reprolint runs the project's static invariant checkers over
// the module:
//
//	go run ./cmd/reprolint ./...
//
// Exit status 0 means the tree upholds every checked invariant, 1 means
// findings were printed, 2 means the loader or an analyzer failed. CI
// runs this as a hard gate; see DESIGN.md "Static analysis &
// invariants" for the annotation grammar the checkers understand.
//
// Flags:
//
//	-json FILE   write a machine-readable report (findings, suppressed
//	             count, package/analyzer inventory) to FILE
//	-time        print per-analyzer cumulative wall time to stderr
//	-jobs N      bound the per-package worker pool (default GOMAXPROCS)
//	-escape      also run escapegate: rebuild the module with
//	             -gcflags=-json and report every compiler escape in a
//	             hot_path: function and every declined inline:
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/boundary"
	"repro/internal/analysis/escapegate"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/releasecheck"
	"repro/internal/analysis/reprolint"
)

// suite is the full analyzer lineup the gate runs; the negative-control
// tests run the same list so a mutation that slips past them would also
// slip past CI.
func suite() []*reprolint.Analyzer {
	return []*reprolint.Analyzer{
		releasecheck.Analyzer,
		lockorder.Analyzer,
		boundary.Analyzer,
		hotpath.Analyzer,
	}
}

func main() {
	var opts reprolint.Options
	var escape bool
	fs := flag.NewFlagSet("reprolint", flag.ExitOnError)
	fs.StringVar(&opts.JSONPath, "json", "", "write a JSON report to this file")
	fs.BoolVar(&opts.Time, "time", false, "print per-analyzer wall time to stderr")
	fs.IntVar(&opts.Jobs, "jobs", 0, "per-package worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&escape, "escape", false, "cross-check hot_path:/inline: annotations against the compiler (escapegate)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	dir, err := os.Getwd()
	if err != nil {
		os.Stderr.WriteString("reprolint: " + err.Error() + "\n")
		os.Exit(2)
	}

	code := reprolint.MainOpts(os.Stdout, os.Stderr, dir, suite(), fs.Args(), opts)
	if escape && code != 2 {
		if ecode := runEscapegate(dir, fs.Args()); ecode > code {
			code = ecode
		}
	}
	os.Exit(code)
}

// runEscapegate drives the compiler-grounded checker and prints its
// findings in the same file:line format as the AST analyzers.
func runEscapegate(dir string, patterns []string) int {
	res, err := escapegate.Run(escapegate.Options{Dir: dir, Patterns: patterns})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range res.Findings {
		fmt.Fprintln(os.Stdout, d)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "escapegate: %d finding(s)\n", len(res.Findings))
		return 1
	}
	return 0
}
