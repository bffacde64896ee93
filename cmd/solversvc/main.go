// Command solversvc runs the multi-path incremental SAT solver service of
// the paper's §3.2: on stdin/stdout by default (the text protocol), or
// as a TCP server with -listen, where every connection gets its own
// session against the one shared snapshot tree. That sharing is the
// point: a reference parked by one client can be branched by another,
// and siblings physically share all unmodified state.
//
// The protocols and the server live in internal/service/wire: the text
// commands (send `help`), the binary upgrade a TCP client negotiates
// with a first line of "binary <maxver>", and wire.ServeListener, which
// is also the server loadgen and the benchmark measure.
//
// Flags:
//
//	-listen ADDR         serve TCP on ADDR instead of stdin/stdout
//	-cap N               keep at most N unpinned references; LRU-evict beyond
//	-req-timeout D       per-request deadline for extend (default 30s; 0 disables)
//	-write-timeout D     per-reply write deadline on TCP (default 5s; 0 disables)
//	-store DIR           demote evictions to DIR instead of dropping them
//
// Reference 0 is the permanent empty root problem: it can be neither
// released nor evicted, so `extend 0 ...` always works. Evicted ids
// answer "evicted" errors afterwards; with -store, they reload on access
// instead, shutdown demotes every parked reference, and a restarted
// server with the same -store answers the ids a previous process parked.
//
// SIGINT/SIGTERM shut the service down gracefully: the listener stops
// accepting, in-flight commands finish (their solves are cancelled via
// the request context), every parked snapshot is released, and the
// process exits after verifying no snapshots leaked (exit 1 if any did).
//
// Example session:
//
//	extend 0 1 2 0          → id=1 verdict=sat model=...
//	extend 1 -1 0           → id=2 verdict=sat model=...
//	extend 2 -2 0           → id=3 verdict=unsat
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// First signal: graceful shutdown below. Restore default handling so a
	// second signal kills immediately if teardown wedges.
	go func() { <-ctx.Done(); stop() }()

	listen := flag.String("listen", "", "serve on a TCP address (e.g. :7333) instead of stdin/stdout")
	capacity := flag.Int("cap", 0, "max parked unpinned references; 0 = unbounded; LRU-evicted beyond")
	reqTimeout := flag.Duration("req-timeout", 30*time.Second, "per-request deadline for extend (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 5*time.Second, "per-reply write deadline: a peer that stops reading fails its session instead of wedging it (0 disables)")
	storeDir := flag.String("store", "", "persistence directory: evictions demote to disk instead of dropping, and a restart recovers previously-parked ids")
	flag.Parse()

	var cold *store.Store
	if *storeDir != "" {
		var err error
		cold, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "solversvc:", err)
			os.Exit(1)
		}
		if ids := cold.IDs(); len(ids) > 0 {
			fmt.Fprintf(os.Stderr, "solversvc: recovered %d parked reference(s) from %s (max id %d)\n",
				len(ids), *storeDir, ids[len(ids)-1])
		}
	}
	svc := service.NewWithConfig(service.Config{Capacity: *capacity, Store: cold})

	var sessionErr error
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "solversvc:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "solversvc: listening on %s\n", ln.Addr())
		wire.ServeListener(ctx, svc, ln, wire.ServeOptions{ReqTimeout: *reqTimeout, WriteTimeout: *writeTimeout})
	} else {
		if _, err := fmt.Fprintln(os.Stdout, wire.Banner); err != nil {
			sessionErr = fmt.Errorf("write: %w", err)
		} else {
			// Stdout is not a deadline-capable transport, so -write-timeout
			// does not apply here.
			sessionErr = wire.ServeText(ctx, svc, os.Stdin, os.Stdout, wire.ServeOptions{ReqTimeout: *reqTimeout})
		}
		if sessionErr != nil {
			fmt.Fprintf(os.Stderr, "solversvc: %v\n", sessionErr)
		}
	}

	// Graceful teardown: release every parked snapshot (demoting each one
	// to the store first, when -store is set, so a restart can answer the
	// ids this process parked) and verify none leak.
	interrupted := ctx.Err() != nil
	svc.Close()
	if cold != nil {
		if n := svc.Stats().SpillFailures; n > 0 {
			fmt.Fprintf(os.Stderr, "solversvc: %d reference(s) could not be demoted to the store and were dropped\n", n)
		}
		if err := cold.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "solversvc: closing store: %v\n", err)
		}
	}
	live := svc.LiveSnapshots()
	if interrupted {
		fmt.Fprintf(os.Stderr, "solversvc: signal received; shut down gracefully (live-snapshots=%d)\n", live)
	}
	if live != 0 {
		fmt.Fprintf(os.Stderr, "solversvc: %d snapshots leaked at shutdown\n", live)
		os.Exit(1)
	}
	if sessionErr != nil {
		// The session aborted mid-stream (e.g. an overlong line): fail
		// the process so drivers can tell, after the clean drain above.
		os.Exit(1)
	}
}
