package loadgen

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
)

func TestParseMix(t *testing.T) {
	m, err := ParseMix("branch=6,touch=3,release=1")
	if err != nil || m != (Mix{Branch: 6, Touch: 3, Release: 1}) {
		t.Fatalf("ParseMix: %+v, %v", m, err)
	}
	if m2, err := ParseMix(m.String()); err != nil || m2 != m {
		t.Errorf("Mix.String not parseable: %q → %+v, %v", m.String(), m2, err)
	}
	if m, err := ParseMix("branch=1"); err != nil || m != (Mix{Branch: 1}) {
		t.Errorf("subset mix: %+v, %v", m, err)
	}
	for _, bad := range []string{"", "branch=0,touch=0,release=0", "branch", "branch=-1", "branch=x", "frob=1"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix accepted %q", bad)
		}
	}
}

// TestRunAgainstInProcServer drives a small load point end to end: every
// request completes, none are refused, latencies are recorded, and after
// cleanup the server holds no state beyond the root.
func TestRunAgainstInProcServer(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	ctx := context.Background()
	addr, shutdown, err := ServeInProc(ctx, svc, wire.ServeOptions{WriteTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	res, err := Run(ctx, Config{
		Addr:     addr,
		Conns:    2,
		Depth:    4,
		Requests: 200,
		Seed:     1,
		KnownCap: 8,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 200 {
		t.Errorf("completed %d requests, want 200", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("%d server-refused requests; the generator must never race a release against a use", res.Errors)
	}
	if res.RPS <= 0 || res.Elapsed <= 0 {
		t.Errorf("degenerate throughput: %+v", res)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v p999=%v", res.P50, res.P99, res.P999)
	}
	if n := svc.Refs(); n != 1 {
		t.Errorf("refs after cleanup: %d, want 1 (root only)", n)
	}
	if n := svc.LiveSnapshots(); n != 1 {
		t.Errorf("live snapshots after cleanup: %d, want 1 (root only)", n)
	}
}

// TestRunDeterministicOps: at depth 1 (serial, so op choice never
// depends on completion timing) two runs with one seed against fresh
// servers issue the same op sequence — pinned via the extend counter,
// which counts exactly the branch ops.
func TestRunDeterministicOps(t *testing.T) {
	extends := func(seed int64) uint64 {
		svc := service.New()
		defer svc.Close()
		ctx := context.Background()
		addr, shutdown, err := ServeInProc(ctx, svc, wire.ServeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown()
		if _, err := Run(ctx, Config{Addr: addr, Conns: 2, Depth: 1, Requests: 120, Seed: seed, KnownCap: 8}); err != nil {
			t.Fatal(err)
		}
		return svc.Stats().Extends
	}
	a, b := extends(7), extends(7)
	if a != b {
		t.Errorf("same seed, different op mixes: %d vs %d extends", a, b)
	}
	if a == 0 || a == 120 {
		t.Errorf("mix degenerate: %d extends of 120 requests", a)
	}
}

// TestRunCtxCancellation: a cancelled context aborts the run promptly
// with ctx.Err instead of hanging on unfinished requests.
func TestRunCtxCancellation(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	addr, shutdown, err := ServeInProc(context.Background(), svc, wire.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, Config{Addr: addr, Conns: 1, Depth: 2, Requests: 1 << 20, Seed: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("run with cancelled ctx reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}

// TestServeInProcServesText: the in-process server is solversvc's own,
// so a text client gets the text protocol's normal replies.
func TestServeInProcServesText(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	addr, shutdown, err := ServeInProc(context.Background(), svc, wire.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := br.ReadString('\n'); err != nil { // banner
		t.Fatal(err)
	}
	fmt.Fprintln(conn, "extend 0 1 2 0")
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "id=1 verdict=sat") {
		t.Errorf("text extend answered %q, want id=1 verdict=sat", line)
	}
}
