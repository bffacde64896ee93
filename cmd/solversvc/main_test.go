package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/wire"
	"repro/internal/solver"
	"repro/internal/store"
)

// session runs input through one stdio-style session and returns the output.
func session(t *testing.T, svc *service.Service, input string) string {
	t.Helper()
	var sb strings.Builder
	out := bufio.NewWriter(&sb)
	if err := wire.ServeText(context.Background(), svc, strings.NewReader(input), out, wire.ServeOptions{}); err != nil {
		t.Fatalf("ServeText: %v", err)
	}
	out.Flush()
	return sb.String()
}

// TestLongExtendLine is the regression for the silent >64KiB drop: the
// default bufio.Scanner buffer made a long extend line end the session
// with no diagnostic. The grown buffer must carry it through the parser
// and solver.
func TestLongExtendLine(t *testing.T) {
	svc := service.New()
	defer svc.Close()

	// ~120 KiB of clauses: (v ∨ v+1) for v in 1..10000, trivially sat.
	var sb strings.Builder
	sb.WriteString("extend 0")
	for v := 1; v <= 10000; v++ {
		fmt.Fprintf(&sb, " %d %d 0", v, v+1)
	}
	sb.WriteString("\nrefs\n")
	if sb.Len() < 64*1024 {
		t.Fatalf("test line only %d bytes; must exceed the 64KiB default", sb.Len())
	}

	got := session(t, svc, sb.String())
	if !strings.Contains(got, "id=1 verdict=sat") {
		t.Fatalf("long extend line dropped; output: %.200s", got)
	}
	if !strings.Contains(got, "refs=2") {
		t.Errorf("reference not parked after long extend: %.200s", got)
	}
}

// TestOverlongLineSurfacesScannerError: a line beyond wire.MaxLineBytes must
// produce a visible read error, not a silent session end.
func TestOverlongLineSurfacesScannerError(t *testing.T) {
	svc := service.New()
	defer svc.Close()

	input := "extend 0 " + strings.Repeat("1 ", wire.MaxLineBytes/2) + "0\n"
	var sb strings.Builder
	out := bufio.NewWriter(&sb)
	err := wire.ServeText(context.Background(), svc, strings.NewReader(input), out, wire.ServeOptions{})
	out.Flush()
	if err == nil {
		t.Fatal("overlong line: ServeText returned nil error")
	}
	if !strings.Contains(sb.String(), "err: read:") {
		t.Errorf("no client-visible diagnostic for overlong line: %.200s", sb.String())
	}
}

func TestProtocolRootAndEviction(t *testing.T) {
	svc := service.NewWithConfig(service.Config{Capacity: 2})
	defer svc.Close()

	got := session(t, svc, strings.Join([]string{
		"release 0",    // refused: root is permanent
		"extend 0 1 0", // id=1
		"extend 0 2 0", // id=2
		"pin 1",        // protect id=1
		"extend 0 3 0", // id=3
		"extend 0 4 0", // id=4 → evicts LRU unpinned (id=2)
		"touch 2",      // evicted
		"touch 1",      // pinned survivor
		"stats",
		"help",
		"quit",
	}, "\n")+"\n")

	for _, want := range []string{
		"err: service: root reference 0 is permanent",
		"id=1 verdict=sat",
		"evicted by capacity limit",
		"extends=4",
		"evictions=",
		"shared-ratio=",
		"reference 0 is the permanent empty base problem",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// touch 1 must have answered ok (pinned ref not evicted).
	if strings.Contains(got, "err: service: reference 1") {
		t.Errorf("pinned reference 1 was evicted:\n%s", got)
	}
}

// TestTCPSessionsShareTree starts the TCP server, connects two clients,
// and branches a reference parked by the first from the second — the
// cross-client sharing the server exists for — then exercises graceful
// drain: cancelling the context closes the listener and every connection,
// and ServeListener returns with all sessions ended.
func TestTCPSessionsShareTree(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		wire.ServeListener(ctx, svc, ln, wire.ServeOptions{ReqTimeout: 10 * time.Second})
		close(done)
	}()

	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if _, err := br.ReadString('\n'); err != nil { // banner
			t.Fatal(err)
		}
		return conn, br
	}
	send := func(conn net.Conn, br *bufio.Reader, cmd string) string {
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}

	connA, brA := dial()
	defer connA.Close()
	connB, brB := dial()
	defer connB.Close()

	if got := send(connA, brA, "extend 0 1 2 0"); !strings.HasPrefix(got, "id=1 verdict=sat") {
		t.Fatalf("client A extend: %q", got)
	}
	// Client B branches client A's reference: one shared snapshot tree.
	if got := send(connB, brB, "extend 1 -1 0"); !strings.HasPrefix(got, "id=2 verdict=sat") {
		t.Fatalf("client B extend of A's ref: %q", got)
	}
	if got := send(connB, brB, "refs"); !strings.Contains(got, "refs=3") {
		t.Fatalf("shared table: %q", got)
	}

	// Graceful drain: cancel, server must close conns and return.
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not drain after cancel")
	}
	if _, err := brA.ReadString('\n'); err == nil {
		t.Error("client A connection still open after drain")
	}
}

// TestStoreRestartRecoversSession simulates two server generations over
// one -store directory: generation 1 parks a chain under a tiny cap and
// shuts down (demoting everything); generation 2 opens the same
// directory and must answer the old ids — including one that was
// demoted mid-run — with working extends, while a service WITHOUT the
// store answers "evicted"/"unknown" for the same protocol exchange.
func TestStoreRestartRecoversSession(t *testing.T) {
	dir := t.TempDir()

	open := func() (*store.Store, *service.Service) {
		cold, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return cold, service.NewWithConfig(service.Config{Capacity: 2, Store: cold})
	}

	// Generation 1: park a three-step chain (cap 2 forces demotion of the
	// early links while the process is still alive).
	cold1, svc1 := open()
	out1 := session(t, svc1, "extend 0 1 2 0\nextend 1 -1 0\nextend 2 3 0\nstats\n")
	if !strings.Contains(out1, "id=3 verdict=sat") {
		t.Fatalf("generation 1 chain failed: %.300s", out1)
	}
	if !strings.Contains(out1, "spills=") || strings.Contains(out1, "spills=0 ") {
		t.Fatalf("no demotion under cap 2: %.300s", out1)
	}
	svc1.Close() // the solversvc shutdown path: demote all, then close store
	if live := svc1.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked at generation-1 shutdown", live)
	}
	if err := cold1.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: same directory, fresh process state. Old ids 1..3
	// must answer; the recovered chain must extend with the right verdict
	// (id 2 asserted -1, so forcing 1 must go unsat), and fresh ids must
	// not collide with recovered ones.
	cold2, svc2 := open()
	defer cold2.Close()
	out2 := session(t, svc2, "touch 3\nextend 2 1 0\nextend 3 4 0\n")
	lines := strings.Split(strings.TrimSpace(out2), "\n")
	if len(lines) != 3 {
		t.Fatalf("generation 2 output: %q", out2)
	}
	if lines[0] != "ok" {
		t.Errorf("touch of recovered id: %q", lines[0])
	}
	if !strings.Contains(lines[1], "verdict=unsat") {
		t.Errorf("recovered id 2 lost its -1 assertion: %q", lines[1])
	}
	if !strings.Contains(lines[2], "verdict=sat") || strings.Contains(lines[2], "id=1 ") ||
		strings.Contains(lines[2], "id=2 ") || strings.Contains(lines[2], "id=3 ") {
		t.Errorf("fresh id collides or wrong verdict: %q", lines[2])
	}
	svc2.Close()
	if live := svc2.LiveSnapshots(); live != 0 {
		t.Fatalf("%d snapshots leaked at generation-2 shutdown", live)
	}

	// Contrast: a storeless restart forgets everything.
	bare := service.New()
	defer bare.Close()
	out3 := session(t, bare, "touch 3\n")
	if !strings.Contains(out3, "unknown") {
		t.Errorf("storeless service answered a forgotten id: %q", out3)
	}
}

// failingWriter accepts `allow` bytes and then fails every write — the
// shape of a peer that closed its read side mid-session.
type failingWriter struct {
	allow int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.allow <= 0 {
		return 0, errors.New("synthetic write failure")
	}
	n := len(p)
	if n > w.allow {
		n = w.allow
	}
	w.allow -= n
	if n < len(p) {
		return n, errors.New("synthetic write failure")
	}
	return n, nil
}

// TestSessionEndsOnWriteFailure is the regression for the ignored
// out.Flush() errors: a session whose peer stopped reading used to keep
// executing every remaining command into a dead writer. Now the first
// failed flush terminates the session.
func TestSessionEndsOnWriteFailure(t *testing.T) {
	svc := service.New()
	defer svc.Close()

	// 20 extends; the writer dies on the very first reply.
	var in strings.Builder
	for i := 0; i < 20; i++ {
		in.WriteString("extend 0 1 0\n")
	}
	err := wire.ServeText(context.Background(), svc, strings.NewReader(in.String()), &failingWriter{allow: 0}, wire.ServeOptions{})
	if err == nil || !strings.Contains(err.Error(), "write:") {
		t.Fatalf("ServeText after write failure: err=%v, want write error", err)
	}
	if n := svc.Stats().Extends; n != 1 {
		t.Errorf("session executed %d extends into a dead writer; want 1 (the command whose reply failed)", n)
	}
}

// TestStalledReaderWriteTimeout: with -write-timeout set, a reply to a
// peer that never reads must fail with a deadline error instead of
// parking the session goroutine in a blocking write forever. net.Pipe is
// unbuffered, so the very first reply write blocks until the deadline.
func TestStalledReaderWriteTimeout(t *testing.T) {
	svc := service.New()
	defer svc.Close()

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	errc := make(chan error, 1)
	go func() {
		errc <- wire.ServeText(context.Background(), svc, server, server, wire.ServeOptions{WriteTimeout: 50 * time.Millisecond})
	}()
	// Send one command, then stall: never read the reply.
	if _, err := fmt.Fprintln(client, "refs"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("stalled reader: err=%v, want a net timeout", err)
		}
		if !strings.Contains(err.Error(), "write:") {
			t.Errorf("stalled reader error not attributed to the write path: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("session still blocked on a stalled reader after 5s; write deadline did not fire")
	}
}

// TestBinaryNegotiationTCP covers the protocol upgrade end to end: a
// binary client negotiates and runs a batched extend, a plain text client
// coexists on the same server, and a malformed hello falls back to a
// working text session (the reply to the hello is a text error line —
// the same fallback signal a pre-binary server gives).
func TestBinaryNegotiationTCP(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		wire.ServeListener(ctx, svc, ln, wire.ServeOptions{ReqTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second})
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()

	// Binary client: one batched extend, three sibling groups of parent 0.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wire.Handshake(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()
	groups := [][][]int{
		{{1, 2}},    // sat
		{{-1}},      // sat
		{{3}, {-3}}, // unsat
	}
	res, err := cli.Extend(context.Background(), 0, groups)
	if err != nil {
		t.Fatalf("batched extend: %v", err)
	}
	wantVerdicts := []solver.Status{solver.Sat, solver.Sat, solver.Unsat}
	seen := map[uint64]bool{}
	for i, r := range res {
		if r.ID == 0 || seen[r.ID] {
			t.Errorf("result %d: id %d zero or duplicated", i, r.ID)
		}
		seen[r.ID] = true
		if r.Verdict != wantVerdicts[i] {
			t.Errorf("result %d: verdict %v, want %v", i, r.Verdict, wantVerdicts[i])
		}
		if (r.Verdict == solver.Sat) != (r.Model != nil) {
			t.Errorf("result %d: model presence inconsistent with verdict %v", i, r.Verdict)
		}
	}

	// Text client coexists and sees the binary client's references.
	tconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tconn.Close()
	tbr := bufio.NewReader(tconn)
	if _, err := tbr.ReadString('\n'); err != nil { // banner
		t.Fatal(err)
	}
	fmt.Fprintln(tconn, "refs")
	line, err := tbr.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "refs=4") { // root + 3 batch siblings
		t.Errorf("text client does not see binary client's references: %q", line)
	}

	// Malformed hello: answered with a text error, session stays text.
	fconn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fconn.Close()
	fbr := bufio.NewReader(fconn)
	fmt.Fprintln(fconn, "binary nope")              // sent before reading the banner: fine, TCP buffers it
	if _, err := fbr.ReadString('\n'); err != nil { // banner
		t.Fatal(err)
	}
	line, err = fbr.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "err:") {
		t.Fatalf("malformed hello not answered with a text error: %q", line)
	}
	fmt.Fprintln(fconn, "refs")
	line, err = fbr.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "refs=") {
		t.Errorf("text session unusable after fallback: %q", line)
	}
}

// TestBinaryCommandMidSessionIsRefused: "binary" anywhere but a TCP
// session's first line (here: a stdio session) gets an explanatory error.
func TestBinaryCommandMidSessionIsRefused(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	got := session(t, svc, "binary 1\n")
	if !strings.Contains(got, "err: binary negotiation") {
		t.Errorf("stdio binary command: %q", got)
	}
}
