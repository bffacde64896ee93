// Command reprolint runs the project's invariant checkers over the
// program — the AST analyzers, deadcode, and escapegate, which rebuilds
// the annotated packages with -gcflags=-json and reports every compiler
// escape in a hot_path: function and every inline: function the
// compiler declined to inline. Run it from the nested benchmark module,
// whose build list holds the root module, so that one run loads both:
//
//	cd benchmark && go run repro/cmd/reprolint repro/...
//
// deadcode needs that scope: some internal functions are called only
// by the benchmark.
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
//	-time        print per-analyzer wall time to stderr
//
// Every analyzer runs once over all the loaded packages together.
package main

import (
	"flag"
	"os"

	"repro/internal/analysis/boundary"
	"repro/internal/analysis/deadcode"
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
		escapegate.Analyzer,
		deadcode.Analyzer,
	}
}

func main() {
	var opts reprolint.Options
	fs := flag.NewFlagSet("reprolint", flag.ExitOnError)
	fs.StringVar(&opts.JSONPath, "json", "", "write a JSON report to this file")
	fs.BoolVar(&opts.Time, "time", false, "print per-analyzer wall time to stderr")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	dir, err := os.Getwd()
	if err != nil {
		os.Stderr.WriteString("reprolint: " + err.Error() + "\n")
		os.Exit(2)
	}

	os.Exit(reprolint.Main(os.Stdout, os.Stderr, dir, suite(), fs.Args(), opts))
}
