package bench

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/solver"
	"repro/internal/trace"
)

// E16 measures the binary wire protocol's pipelining (§3.2's service as
// a network server): a loadgen matrix over connections × pipeline depth
// against an in-process loopback server, where depth 1 is strict
// request/reply and depth 8 keeps the connection's window full. The
// experiment hard-fails on a refused or lost request, on a leaked
// snapshot, and unless a pipelined, out-of-order verdict stream is
// elementwise identical to the serial ground truth (both
// request-at-a-time and as one batched extend). Throughput and tail
// latencies land in the table for the benchdiff gate but are not asserted
// here: the depth-8-over-depth-1 win is a wall-clock ratio of two ~50 ms
// samples, and wire.* in the repo benchmark carries that claim.
func E16(o Options) (*trace.Table, error) {
	connCounts := []int{1, 2}
	depths := []int{1, 8}
	requests := 4000
	idVars, idClauses, idGroups := 40, 168, 40
	if o.Quick {
		requests = 800
		idVars, idClauses, idGroups = 25, 105, 20
	}
	t := &trace.Table{
		Title: fmt.Sprintf("E16: wire pipelining (loopback TCP; %d requests/point; GOMAXPROCS=%d)",
			requests, runtime.GOMAXPROCS(0)),
		Columns: []string{"phase", "conns", "depth", "requests", "errors", "req/s", "p50", "p99", "p999", "check"},
		Note:    "depth 1 = strict request/reply; verdict streams identical to the serial ground truth",
	}
	ctx := context.Background()

	// Phase 1: throughput/latency matrix against one shared server —
	// connections share the snapshot tree exactly as solversvc sessions do.
	svc := service.New()
	defer svc.Close()
	addr, shutdown, err := loadgen.ServeInProc(ctx, svc, wire.ServeOptions{WriteTimeout: 10 * time.Second})
	if err != nil {
		return nil, err
	}
	defer shutdown()
	for _, c := range connCounts {
		for _, d := range depths {
			res, err := loadgen.Run(ctx, loadgen.Config{
				Addr: addr, Conns: c, Depth: d, Requests: requests,
				Seed: 1, KnownCap: 32,
			})
			if err != nil {
				return nil, fmt.Errorf("E16: conns=%d depth=%d: %w", c, d, err)
			}
			if res.Errors != 0 {
				return nil, fmt.Errorf("E16: conns=%d depth=%d: %d refused requests (generator raced a release?)", c, d, res.Errors)
			}
			if res.Requests != requests {
				return nil, fmt.Errorf("E16: conns=%d depth=%d: %d/%d requests completed", c, d, res.Requests, requests)
			}
			t.AddRow("pipeline", c, d, res.Requests, res.Errors,
				fmt.Sprintf("%.0f", res.RPS),
				trace.FormatDuration(res.P50),
				trace.FormatDuration(res.P99),
				trace.FormatDuration(res.P999),
				"-")
		}
	}
	if live := svc.LiveSnapshots(); live != 1 {
		return nil, fmt.Errorf("E16: %d live snapshots after the matrix, want 1 (root)", live)
	}

	// Phase 2: verdict identity. Serial ground truth first.
	groups := make([][][]int, idGroups)
	for i := range groups {
		groups[i] = solver.Random3SAT(idVars, idClauses, int64(4001+i))
	}
	serial := make([]solver.Status, idGroups)
	{
		ssvc := service.New()
		for i, g := range groups {
			res, err := ssvc.Extend(ctx, 0, g)
			if err != nil {
				ssvc.Close()
				return nil, fmt.Errorf("E16 serial group %d: %w", i, err)
			}
			serial[i] = res.Verdict
			if err := ssvc.Release(res.ID); err != nil {
				ssvc.Close()
				return nil, err
			}
		}
		ssvc.Close()
		if live := ssvc.LiveSnapshots(); live != 0 {
			return nil, fmt.Errorf("E16: %d snapshots leaked after serial run", live)
		}
	}

	// Pipelined: every group in flight at once through one connection
	// against a window-8 server, so completion order is whatever the
	// scheduler makes of it — replies must still land on the right
	// request ids and carry the serial verdicts.
	psvc := service.New()
	defer psvc.Close()
	paddr, pshutdown, err := loadgen.ServeInProc(ctx, psvc, wire.ServeOptions{MaxInflight: 8})
	if err != nil {
		return nil, err
	}
	defer pshutdown()
	conn, err := net.Dial("tcp", paddr)
	if err != nil {
		return nil, err
	}
	cli, err := wire.Handshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	defer cli.Close()

	calls := make([]*wire.Call, idGroups)
	for i, g := range groups {
		calls[i] = cli.Go(wire.Request{Op: wire.OpExtend, ID: 0, Groups: [][][]int{g}}, nil)
	}
	matches := 0
	for i, call := range calls {
		<-call.Done
		if call.Err != nil {
			return nil, fmt.Errorf("E16 pipelined group %d: %w", i, call.Err)
		}
		if call.Resp.Err != "" || len(call.Resp.Results) != 1 {
			return nil, fmt.Errorf("E16 pipelined group %d: %+v", i, call.Resp)
		}
		r := call.Resp.Results[0]
		if r.Verdict != serial[i] {
			return nil, fmt.Errorf("E16: pipelined group %d verdict %v != serial %v (pipelining changed an answer)",
				i, r.Verdict, serial[i])
		}
		matches++
		if err := cli.Release(ctx, r.ID); err != nil {
			return nil, err
		}
	}

	// Batched: the same groups as ONE request — N siblings in a single
	// round trip — must reproduce the stream again.
	batched, err := cli.Extend(ctx, 0, groups)
	if err != nil {
		return nil, fmt.Errorf("E16 batched extend: %w", err)
	}
	for i, r := range batched {
		if r.Verdict != serial[i] {
			return nil, fmt.Errorf("E16: batched group %d verdict %v != serial %v", i, r.Verdict, serial[i])
		}
		if err := cli.Release(ctx, r.ID); err != nil {
			return nil, err
		}
	}
	if live := psvc.LiveSnapshots(); live != 1 {
		return nil, fmt.Errorf("E16: %d live snapshots after verdict phase, want 1 (root)", live)
	}

	t.AddRow("verdict-identity", 1, 8, idGroups, 0, "-", "-", "-", "-",
		fmt.Sprintf("%d == %d", matches, idGroups))
	t.AddRow("verdict-identity-batched", 1, 1, idGroups, 0, "-", "-", "-", "-",
		fmt.Sprintf("%d == %d", len(batched), idGroups))
	return t, nil
}
