// Command loadgen measures solversvc's binary protocol under load: a
// windowed generator drives a configurable matrix of connections ×
// pipeline depth with a weighted branch/touch/release mix, and reports
// requests/sec with p50/p99/p999 latency per matrix point.
//
// With -addr it targets a running `solversvc -listen` server; without,
// it starts that same server (wire.ServeListener) in process on a
// loopback port, so a single command demonstrates the pipelining win:
//
//	loadgen -conns 1,2 -depth 1,8 -requests 2000
//
// Depth 1 is strict request/reply; deeper windows keep the connection's
// solve pipeline full, which is the protocol's reason to exist.
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
	"text/tabwriter"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/service/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	addr := flag.String("addr", "", "target server (host:port); empty = in-process loopback server")
	connsFlag := flag.String("conns", "1,2", "comma list of connection counts to sweep")
	depthFlag := flag.String("depth", "1,8", "comma list of pipeline depths to sweep (1 = serial request/reply)")
	requests := flag.Int("requests", 2000, "requests per matrix point")
	mixFlag := flag.String("mix", loadgen.DefaultMix.String(), "op weights")
	seed := flag.Int64("seed", 1, "generator seed")
	knownCap := flag.Int("known-cap", 32, "per-connection cap on parked references")
	vars := flag.Int("vars", 16, "variable universe for generated clauses")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "in-process server per-reply write deadline (0 disables)")
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	conns, err := parseList(*connsFlag)
	if err != nil {
		fatal(fmt.Errorf("-conns: %w", err))
	}
	depths, err := parseList(*depthFlag)
	if err != nil {
		fatal(fmt.Errorf("-depth: %w", err))
	}

	target := *addr
	var svc *service.Service
	if target == "" {
		svc = service.New()
		defer svc.Close()
		var shutdown func()
		target, shutdown, err = loadgen.ServeInProc(ctx, svc, wire.ServeOptions{WriteTimeout: *writeTimeout})
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "loadgen: in-process server on %s\n", target)
	}

	fmt.Println("loadgen: binary protocol throughput and tail latency")
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "conns\tdepth\trequests\terrors\treq/s\tp50\tp99\tp999")
	for _, c := range conns {
		for _, d := range depths {
			res, err := loadgen.Run(ctx, loadgen.Config{
				Addr:     target,
				Conns:    c,
				Depth:    d,
				Requests: *requests,
				Mix:      mix,
				Seed:     *seed,
				KnownCap: *knownCap,
				Vars:     *vars,
			})
			if err != nil {
				fatal(fmt.Errorf("conns=%d depth=%d: %w", c, d, err))
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.0f\t%v\t%v\t%v\n", c, d, res.Requests, res.Errors, res.RPS,
				res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond), res.P999.Round(time.Microsecond))
		}
	}
	tw.Flush()
	fmt.Printf("mix %s, %d requests per point, seed %d\n", mix, *requests, *seed)

	if svc != nil {
		if live := svc.LiveSnapshots(); live != 1 {
			fatal(fmt.Errorf("in-process server holds %d live snapshots after the sweep; want 1 (root)", live))
		}
	}
}

func parseList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%q: want a positive integer", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
