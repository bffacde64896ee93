// Command nqueens runs the paper's Figure 1 workload on every
// implementation in the reproduction and reports solutions and timings.
//
// Usage:
//
//	nqueens -n 8                  all implementations, count solutions
//	nqueens -n 8 -impl native -v  native SVX64 guest, print the boards
//	nqueens -n 8 -first           stop at the first solution
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/queens"
	"repro/internal/snapshot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// First signal: the engine backends stop gracefully with partial
	// counts. Restoring default handling lets a second signal (or a first
	// one during the ctx-unaware hand/prolog arms) kill immediately.
	go func() { <-ctx.Done(); stop() }()
	n := flag.Int("n", 8, "board size")
	impl := flag.String("impl", "all", "hand | hosted | native | prolog | all")
	first := flag.Bool("first", false, "stop at the first solution")
	verbose := flag.Bool("v", false, "print solutions")
	workers := flag.Int("workers", 1, "engine workers (hosted backend)")
	flag.Parse()

	run := func(name string, fn func() (int, string, error)) {
		if *impl != "all" && *impl != name {
			return
		}
		start := time.Now()
		count, out, err := fn()
		dur := time.Since(start)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted after %v (%d solutions so far)\n",
				name, dur.Round(time.Microsecond), count)
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("%-8s n=%d  solutions=%-6d %v\n", name, *n, count, dur.Round(time.Microsecond))
		if *verbose && out != "" {
			fmt.Print(out)
		}
	}

	maxSol := 0
	if *first {
		maxSol = 1
	}

	// partial counts the solutions found before an interrupted run stopped.
	partial := func(res *core.Result) int {
		if res == nil {
			return 0
		}
		return len(res.Solutions)
	}

	run("hand", func() (int, string, error) {
		var sb strings.Builder
		count := queens.HandCoded(*n, func(cols []int) {
			if *verbose {
				fmt.Fprintf(&sb, "%v\n", cols)
			}
		})
		return count, sb.String(), nil
	})

	run("hosted", func() (int, string, error) {
		alloc := mem.NewFrameAllocator(0)
		hctx, err := queens.NewHostedContext(alloc, *n)
		if err != nil {
			return 0, "", err
		}
		eng := core.New(core.NewHostedMachine(queens.HostedStep(*first)),
			core.Config{MaxSolutions: maxSol, Workers: *workers})
		res, err := eng.Run(ctx, hctx)
		if err != nil {
			return partial(res), "", err
		}
		var sb strings.Builder
		for _, s := range res.Solutions {
			sb.Write(s.Out)
		}
		return len(res.Solutions), sb.String(), nil
	})

	run("native", func() (int, string, error) {
		img, err := queens.Asm(*n)
		if err != nil {
			return 0, "", err
		}
		as, regs, err := guest.Load(img, mem.NewFrameAllocator(0), guest.LoadOptions{})
		if err != nil {
			return 0, "", err
		}
		eng := core.New(core.NewVMMachine(0), core.Config{MaxSolutions: maxSol})
		res, err := eng.Run(ctx, &snapshot.Context{Mem: as, FS: fs.NewOn(as.Alloc()), Regs: regs})
		if err != nil {
			return partial(res), "", err
		}
		if res.FirstPathError != nil {
			return 0, "", res.FirstPathError
		}
		var sb strings.Builder
		for _, s := range res.Solutions {
			sb.Write(s.Out)
		}
		return len(res.Solutions), sb.String(), nil
	})

	run("prolog", func() (int, string, error) {
		m, err := queens.NewPrologMachine()
		if err != nil {
			return 0, "", err
		}
		var sb strings.Builder
		count, err := m.SolveQuery(fmt.Sprintf("queens(%d, Qs)", *n),
			func(b map[string]string) bool {
				if *verbose {
					fmt.Fprintf(&sb, "%s\n", b["Qs"])
				}
				return !*first
			})
		return count, sb.String(), err
	})
}
