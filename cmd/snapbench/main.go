// Command snapbench regenerates the reproduction's experiment tables
// (E1–E10 in DESIGN.md / EXPERIMENTS.md).
//
// Usage:
//
//	snapbench                 run every experiment at full scale
//	snapbench -e 4            run one experiment
//	snapbench -e 1,3,4        run a comma-separated subset, in order
//	snapbench -quick          small sizes (seconds instead of minutes)
//	snapbench -list           print the experiment index
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
)

// parseIDs expands a comma-separated -e value ("1,3,4") into
// experiments, preserving order. "0" or "" means all.
func parseIDs(spec string) ([]bench.Experiment, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "0" {
		return bench.All(), nil
	}
	var out []bench.Experiment
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad experiment id %q", part)
		}
		e, err := bench.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// First signal: finish the current experiment, skip the rest. Restore
	// default handling so a second signal kills immediately.
	go func() { <-ctx.Done(); stop() }()
	ids := flag.String("e", "", "experiment ids (1-10), comma-separated; empty or 0 runs all")
	quick := flag.Bool("quick", false, "reduced problem sizes")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		fmt.Println("id  name                 claim")
		for _, e := range bench.All() {
			fmt.Printf("%-3d %-20s %s\n", e.ID, e.Name, e.Claim)
		}
		return
	}

	toRun, err := parseIDs(*ids)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := bench.Options{Quick: *quick}
	for _, e := range toRun {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted; remaining experiments skipped")
			os.Exit(130)
		}
		start := time.Now()
		tb, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "E%d (%s): %v\n", e.ID, e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("# E%d — %s\n", e.ID, e.Claim)
		fmt.Println(tb.Render())
		fmt.Printf("(completed in %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
