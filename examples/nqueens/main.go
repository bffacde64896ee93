// Figure 1 of the paper, reproduced on the native backend: an SVX64
// machine-code program uses sys_guess_strategy(DFS), sys_guess, and
// sys_guess_fail to enumerate all n-queens boards with zero backtracking
// bookkeeping of its own — the libOS (the engine) restores snapshots and
// re-delivers guesses.
//
//	go run ./examples/nqueens [-n 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/queens"
)

func main() {
	n := flag.Int("n", 8, "board size (1..9 for the native printer)")
	show := flag.Bool("show", false, "render each board as it surfaces")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	img, err := queens.Asm(*n)
	if err != nil {
		log.Fatal(err)
	}
	root, err := repro.LoadImage(img, repro.NewFrameAllocator(0))
	if err != nil {
		log.Fatal(err)
	}

	// Boards stream through the OnSolution hook the moment the guest prints
	// them — no waiting for the full search; Ctrl-C stops cleanly with the
	// partial count. Result.Stats reports the snapshot churn.
	eng := repro.NewEngine(repro.NewVMMachine(0),
		repro.WithOnSolution(func(s repro.Solution) repro.Decision {
			if *show {
				board := string(s.Out)
				for _, col := range board[:len(board)-1] {
					for c := 0; c < *n; c++ {
						if int(col-'0') == c {
							fmt.Print("Q ")
						} else {
							fmt.Print(". ")
						}
					}
					fmt.Println()
				}
				fmt.Println()
			}
			return repro.Continue
		}))
	start := time.Now()
	res, err := eng.Run(ctx, root)
	if err != nil && res == nil {
		log.Fatal(err)
	}
	if res.FirstPathError != nil {
		log.Fatalf("guest crashed: %v", res.FirstPathError)
	}
	status := "complete"
	if err != nil {
		status = "interrupted"
	}
	fmt.Printf("n=%d: %d solutions in %v (strategy %s, %s)\n",
		*n, len(res.Solutions), time.Since(start).Round(time.Microsecond), res.Strategy, status)
	fmt.Printf("extension steps=%d snapshots=%d CoW page copies=%d\n",
		res.Stats.Nodes, res.Stats.Snapshots, res.Stats.CowCopies)
}
