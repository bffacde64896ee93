package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/solver"
)

// startSession wires a Client to a Serve loop over an in-memory pipe and
// returns them plus a wait-for-serve-exit function.
func startSession(t *testing.T, svc *service.Service, opts ServeOptions) (*Client, func() error) {
	t.Helper()
	cconn, sconn := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Serve(ctx, svc, sconn, nil, opts) }()
	cli := NewClient(cconn, nil)
	t.Cleanup(func() {
		cli.Close()
		cancel()
		sconn.Close()
		<-errc
	})
	return cli, func() error {
		cli.Close()
		err := <-errc
		errc <- err
		return err
	}
}

// TestSessionEndToEnd drives every opcode through a full client/server
// session: batched extend, release, pin/unpin, touch, stats.
func TestSessionEndToEnd(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	cli, wait := startSession(t, svc, ServeOptions{})
	ctx := context.Background()

	res, err := cli.Extend(ctx, 0, [][][]int{
		{{1, 2}},    // sat
		{{-1}},      // sat
		{{3}, {-3}}, // unsat
	})
	if err != nil {
		t.Fatalf("batched extend: %v", err)
	}
	want := []solver.Status{solver.Sat, solver.Sat, solver.Unsat}
	for i, r := range res {
		if r.Verdict != want[i] {
			t.Errorf("group %d: verdict %v, want %v", i, r.Verdict, want[i])
		}
		if (r.Verdict == solver.Sat) != (r.Model != nil) {
			t.Errorf("group %d: model presence inconsistent", i)
		}
	}

	// Branch a batch sibling: the parked references are real.
	child, err := cli.ExtendOne(ctx, res[0].ID, [][]int{{-2}})
	if err != nil {
		t.Fatalf("extend of batch sibling: %v", err)
	}
	if child.Verdict != solver.Sat || !child.Model[1] || child.Model[2] {
		t.Errorf("child of (1∨2)∧¬2: verdict=%v model=%v", child.Verdict, child.Model)
	}

	if err := cli.Pin(ctx, res[0].ID); err != nil {
		t.Errorf("pin: %v", err)
	}
	if err := cli.Unpin(ctx, res[0].ID); err != nil {
		t.Errorf("unpin: %v", err)
	}
	if err := cli.Touch(ctx, res[1].ID); err != nil {
		t.Errorf("touch: %v", err)
	}
	line, err := cli.Stats(ctx)
	if err != nil || !strings.Contains(line, "extends=4") {
		t.Errorf("stats: %q, %v", line, err)
	}
	for _, r := range res {
		if err := cli.Release(ctx, r.ID); err != nil {
			t.Errorf("release %d: %v", r.ID, err)
		}
	}
	if err := cli.Release(ctx, child.ID); err != nil {
		t.Errorf("release child: %v", err)
	}

	// Clean client close must end Serve without error.
	if err := wait(); err != nil {
		t.Errorf("Serve after client close: %v", err)
	}
	if n := svc.Refs(); n != 1 { // root only
		t.Errorf("refs after session: %d, want 1", n)
	}
}

// TestSessionPipelining issues a window of concurrent requests through
// Go and verifies every reply lands on the call that issued it —
// replies are matched by request id, not arrival order.
func TestSessionPipelining(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	cli, _ := startSession(t, svc, ServeOptions{})

	const n = 32
	calls := make([]*Call, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			// Even slots: extend root with (v_{i+1}), trivially sat.
			calls[i] = cli.Go(Request{Op: OpExtend, ID: 0, Groups: [][][]int{{{i + 1}}}}, nil)
		} else {
			calls[i] = cli.Go(Request{Op: OpTouch, ID: 0}, nil)
		}
	}
	ids := map[uint64]bool{}
	for i, call := range calls {
		select {
		case <-call.Done:
		case <-time.After(10 * time.Second):
			t.Fatalf("call %d never completed", i)
		}
		if call.Err != nil {
			t.Fatalf("call %d: %v", i, call.Err)
		}
		if call.Resp.ReqID != call.Req.ReqID {
			t.Fatalf("call %d: reply for id %d delivered to id %d", i, call.Resp.ReqID, call.Req.ReqID)
		}
		if call.Resp.Err != "" {
			t.Fatalf("call %d: server error %q", i, call.Resp.Err)
		}
		if i%2 == 0 {
			if len(call.Resp.Results) != 1 || call.Resp.Results[0].Verdict != solver.Sat {
				t.Errorf("call %d: results %+v", i, call.Resp.Results)
			}
			ids[call.Resp.Results[0].ID] = true
		}
	}
	if len(ids) != n/2 {
		t.Errorf("%d distinct ids for %d extends", len(ids), n/2)
	}
	ctx := context.Background()
	for id := range ids {
		if err := cli.Release(ctx, id); err != nil {
			t.Errorf("release %d: %v", id, err)
		}
	}
}

// TestPipelinedVerdictsMatchSerial sends a sat/unsat mix of problems all
// in flight at once on one connection against the in-flight window, so replies
// complete in whatever order the handlers finish, then sends the same
// problems as one batched extend. Both verdict streams must equal direct
// serial Extend calls elementwise, and releasing every id must leave only
// the root.
func TestPipelinedVerdictsMatchSerial(t *testing.T) {
	const n = 20
	// A reply lost to the wrong call must fail the test, not hang it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	groups := make([][][]int, n)
	want := make([]solver.Status, n)
	seen := map[solver.Status]int{}
	ref := service.New()
	for i := range groups {
		groups[i] = solver.Random3SAT(25, 105, int64(4001+i))
		r, err := ref.Extend(ctx, 0, groups[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Verdict
		seen[r.Verdict]++
	}
	ref.Close()
	if seen[solver.Sat] == 0 || seen[solver.Unsat] == 0 {
		t.Fatalf("serial verdicts %v: need both outcomes to compare anything", seen)
	}

	svc := service.New()
	defer svc.Close()
	cli, _ := startSession(t, svc, ServeOptions{})
	calls := make([]*Call, n)
	for i, g := range groups {
		calls[i] = cli.Go(Request{Op: OpExtend, ID: 0, Groups: [][][]int{g}}, nil)
	}
	ids := make([]uint64, 0, 2*n)
	for i, call := range calls {
		select {
		case <-call.Done:
		case <-ctx.Done():
			t.Fatalf("call %d never completed", i)
		}
		if call.Err != nil || call.Resp.Err != "" || len(call.Resp.Results) != 1 {
			t.Fatalf("pipelined group %d: %v %+v", i, call.Err, call.Resp)
		}
		r := call.Resp.Results[0]
		if r.Verdict != want[i] {
			t.Errorf("pipelined group %d: verdict %v, serial %v", i, r.Verdict, want[i])
		}
		ids = append(ids, r.ID)
	}

	batched, err := cli.Extend(ctx, 0, groups)
	if err != nil {
		t.Fatalf("batched extend: %v", err)
	}
	if len(batched) != n {
		t.Fatalf("batched extend returned %d results for %d groups", len(batched), n)
	}
	for i, r := range batched {
		if r.Verdict != want[i] {
			t.Errorf("batched group %d: verdict %v, serial %v", i, r.Verdict, want[i])
		}
		ids = append(ids, r.ID)
	}
	for _, id := range ids {
		if err := cli.Release(ctx, id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
	}
	if live := svc.LiveSnapshots(); live != 1 {
		t.Errorf("%d live snapshots after releasing every id, want 1 (root)", live)
	}
}

// TestServerErrorKeepsSessionAlive: a refused request (unknown
// reference) answers with a ServerError and the connection keeps
// working.
func TestServerErrorKeepsSessionAlive(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	cli, _ := startSession(t, svc, ServeOptions{})
	ctx := context.Background()

	err := cli.Release(ctx, 12345)
	var serr ServerError
	if !errors.As(err, &serr) || !strings.Contains(err.Error(), "unknown problem reference") {
		t.Fatalf("release of unknown id: %v, want ServerError", err)
	}
	if err := cli.Touch(ctx, 0); err != nil {
		t.Fatalf("session dead after server error: %v", err)
	}
}

// TestDispatchBatchRollback: when group k of a batch fails, the
// siblings groups 0..k-1 already parked are released — the batch is
// atomic and nothing leaks. Literal 0 passes encode-free Dispatch and
// fails in the solver, making group 1 the deterministic failure point; so
// does 1<<30, which the codec carries (any non-zero int32 is a literal on
// the wire) and the solver refuses as beyond solver.VarLimit — sizing its
// per-variable arrays by it would take the server down with tens of GB.
func TestDispatchBatchRollback(t *testing.T) {
	for _, bad := range []int{0, 1 << 30} {
		svc := service.New()
		refs, live := svc.Refs(), svc.LiveSnapshots()

		req := Request{Op: OpExtend, ReqID: 1, ID: 0, Groups: [][][]int{{{1}}, {{bad, 2}}}}
		if bad != 0 { // as a client would send it
			frame, err := EncodeRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			if req, err = DecodeRequest(frame[4:]); err != nil {
				t.Fatalf("literal %d refused by the codec: %v", bad, err)
			}
		}
		resp := Dispatch(context.Background(), svc, req, 0)
		if resp.Err == "" || !strings.Contains(resp.Err, "group 1") {
			t.Fatalf("literal %d: batch with failing group 1: err=%q, want group attribution", bad, resp.Err)
		}
		if len(resp.Results) != 0 {
			t.Errorf("literal %d: failed batch returned %d results", bad, len(resp.Results))
		}
		if svc.Refs() != refs || svc.LiveSnapshots() != live {
			t.Errorf("literal %d: failed batch leaked: refs %d→%d, snapshots %d→%d",
				bad, refs, svc.Refs(), live, svc.LiveSnapshots())
		}
		// The parent is untouched by the refused batch.
		resp = Dispatch(context.Background(), svc, Request{Op: OpExtend, ReqID: 2, ID: 0, Groups: [][][]int{{{1}}}}, 0)
		if resp.Err != "" || len(resp.Results) != 1 || resp.Results[0].Verdict != solver.Sat {
			t.Errorf("literal %d: extend after the refused batch: %+v", bad, resp)
		}
		svc.Close()
	}
}

// TestDispatchUnknownOp: an unrecognized opcode gets an error reply, not
// a dropped request.
func TestDispatchUnknownOp(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	resp := Dispatch(context.Background(), svc, Request{Op: Op(99), ReqID: 5}, 0)
	if resp.Err == "" || resp.ReqID != 5 {
		t.Errorf("unknown op reply: %+v", resp)
	}
}

// TestMalformedFrameTerminatesSession: once framing is violated the
// stream cannot be trusted; Serve must return an error rather than
// resynchronise heuristically.
func TestMalformedFrameTerminatesSession(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	errc := make(chan error, 1)
	go func() { errc <- Serve(context.Background(), svc, sconn, nil, ServeOptions{}) }()

	// A framed payload with an unknown opcode (op 0xFF, reqID 1).
	if _, err := cconn.Write([]byte{0, 0, 0, 9, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "unknown request op") {
			t.Fatalf("Serve: %v, want unknown-op error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not terminate on a malformed frame")
	}
}

// TestServeWriteTimeoutStalledClient: the binary path's stalled-reader
// protection. The client sends a request and never reads the reply;
// net.Pipe is unbuffered, so the reply write blocks until the deadline
// fires and Serve returns a timeout instead of wedging its writer.
func TestServeWriteTimeoutStalledClient(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	errc := make(chan error, 1)
	go func() {
		errc <- Serve(context.Background(), svc, sconn, nil, ServeOptions{WriteTimeout: 50 * time.Millisecond})
	}()

	frame, err := EncodeRequest(Request{Op: OpStats, ReqID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cconn.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("stalled binary client: %v, want net timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked on a stalled reader; write deadline did not fire")
	}
}

// TestClientDoCtxCancellation: an abandoned call frees its pending slot,
// and the late reply is discarded without failing the connection.
func TestClientDoCtxCancellation(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	cli := NewClient(cconn, nil)
	defer cli.Close()

	// Manual server: read the request but reply only after being told to.
	gotReq := make(chan Request, 1)
	release := make(chan struct{})
	go func() {
		payload, err := ReadFrame(sconn)
		if err != nil {
			return
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		gotReq <- req
		<-release
		frame, _ := EncodeResponse(Response{Op: req.Op, ReqID: req.ReqID})
		sconn.Write(frame)
	}()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cli.Do(ctx, Request{Op: OpTouch, ID: 0})
		done <- err
	}()
	req := <-gotReq
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do: %v", err)
	}

	// Deliver the late reply; the client must discard it silently.
	close(release)
	time.Sleep(20 * time.Millisecond)
	cli.mu.Lock()
	failed := cli.failed
	pending := len(cli.pending)
	cli.mu.Unlock()
	if failed != nil {
		t.Fatalf("late reply for req %d poisoned the connection: %v", req.ReqID, failed)
	}
	if pending != 0 {
		t.Fatalf("%d calls still pending after cancellation", pending)
	}
}

// TestClientDuplicateReqID: an explicit id colliding with an in-flight
// call fails the new call, not the session.
func TestClientDuplicateReqID(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	cli := NewClient(cconn, nil)
	defer cli.Close()

	// Manual server: accept one frame, reply later.
	var wg sync.WaitGroup
	wg.Add(1)
	release := make(chan struct{})
	go func() {
		defer wg.Done()
		payload, err := ReadFrame(sconn)
		if err != nil {
			return
		}
		req, _ := DecodeRequest(payload)
		<-release
		frame, _ := EncodeResponse(Response{Op: req.Op, ReqID: req.ReqID})
		sconn.Write(frame)
	}()

	first := cli.Go(Request{Op: OpTouch, ReqID: 7, ID: 0}, nil)
	dup := cli.Go(Request{Op: OpTouch, ReqID: 7, ID: 0}, nil)
	<-dup.Done
	if dup.Err == nil || !strings.Contains(dup.Err.Error(), "already in flight") {
		t.Fatalf("duplicate id: %v", dup.Err)
	}
	close(release)
	<-first.Done
	if first.Err != nil {
		t.Fatalf("original call poisoned by duplicate: %v", first.Err)
	}
	wg.Wait()
}

// TestClientConnectionFailurePoisonsPending: a transport failure fails
// every in-flight call and every later one with the same error.
func TestClientConnectionFailurePoisonsPending(t *testing.T) {
	cconn, sconn := net.Pipe()
	cli := NewClient(cconn, nil)
	defer cli.Close()

	// One in-flight call (server reads it, never replies)…
	go func() { ReadFrame(sconn) }()
	call := cli.Go(Request{Op: OpTouch, ID: 0}, nil)
	// …then the connection dies.
	sconn.Close()
	select {
	case <-call.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call not failed by connection loss")
	}
	if call.Err == nil {
		t.Fatal("in-flight call completed without error on a dead connection")
	}
	if _, err := cli.Do(context.Background(), Request{Op: OpStats}); err == nil {
		t.Fatal("call on a failed client succeeded")
	}
}

// TestNegotiateOverPipe exercises Handshake against a scripted text
// server: banner, accept, then binary frames.
func TestNegotiateOverPipe(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	svc := service.New()
	defer svc.Close()

	// Scripted server. net.Pipe writes block until read, so the exchange
	// must interleave exactly as Handshake does: banner, hello, accept.
	go func() {
		sbr := bufio.NewReader(sconn)
		fmt.Fprintln(sconn, "banner line")
		line, err := sbr.ReadString('\n')
		if err != nil {
			return
		}
		if _, ok := ParseHello(line); !ok {
			return
		}
		fmt.Fprintln(sconn, Accept(Version))
		Serve(context.Background(), svc, sconn, sbr, ServeOptions{})
	}()

	cli, err := Handshake(cconn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()
	if err := cli.Touch(context.Background(), 0); err != nil {
		t.Fatalf("first binary request after handshake: %v", err)
	}
}

// TestHandshakeFallbackSignal: a text-error reply to the hello (what a
// pre-binary server sends) must surface as an error, not hang.
func TestHandshakeFallbackSignal(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	go func() {
		sbr := bufio.NewReader(sconn)
		fmt.Fprintln(sconn, "banner line")
		if _, err := sbr.ReadString('\n'); err != nil { // the hello
			return
		}
		fmt.Fprintln(sconn, "err: unknown command \"binary\"")
	}()
	if _, err := Handshake(cconn); err == nil || !strings.Contains(err.Error(), "declined") {
		t.Fatalf("handshake against pre-binary server: %v, want decline error", err)
	}
}
