package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestTextTranscriptGolden pins the text protocol byte for byte:
// testdata/text_session.golden is `solversvc -cap 2 <
// testdata/text_session.in` (banner included), covering every command,
// every parse and service error, evictions under the cap, a blank line,
// and a command after quit. Only capture-ns, a timing, is masked.
// Regenerate the golden that way after an intended change to a reply.
func TestTextTranscriptGolden(t *testing.T) {
	script, err := os.ReadFile("testdata/text_session.in")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/text_session.golden")
	if err != nil {
		t.Fatal(err)
	}
	svc := service.NewWithConfig(service.Config{Capacity: 2})
	defer svc.Close()
	var out bytes.Buffer
	out.WriteString(Banner + "\n") // what solversvc prints before the session
	if err := ServeText(context.Background(), svc, bytes.NewReader(script), &out, ServeOptions{}); err != nil {
		t.Fatalf("ServeText: %v", err)
	}

	mask := regexp.MustCompile(`capture-ns=\d+`)
	got := strings.Split(mask.ReplaceAllString(out.String(), "capture-ns=N"), "\n")
	want := strings.Split(mask.ReplaceAllString(string(golden), "capture-ns=N"), "\n")
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("transcript line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

// serveTCP runs ServeListener on ln and returns its address and a stop
// that cancels it and requires it to return within 5 s.
func serveTCP(t *testing.T, svc *service.Service, ln net.Listener) (addr string, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		ServeListener(ctx, svc, ln, ServeOptions{ReqTimeout: 10 * time.Second, WriteTimeout: 5 * time.Second})
		close(done)
	}()
	return ln.Addr().String(), func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ServeListener did not return within 5s of cancel")
		}
	}
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// dialText connects and consumes the banner. A server that never answers
// fails the test after 10 s instead of hanging it.
func dialText(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || line != Banner+"\n" {
		t.Fatalf("banner: %q, %v", line, err)
	}
	return conn, br
}

// flakyListener fails its first Accept with an error that is not
// net.ErrClosed — the shape of EMFILE under connection load.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, errors.New("synthetic accept failure")
	}
	return l.Listener.Accept()
}

// TestServeListenerSurvivesAcceptError: a transient Accept failure is
// retried, so the next connection is served.
func TestServeListenerSurvivesAcceptError(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	ln := &flakyListener{Listener: listen(t)}
	addr, stop := serveTCP(t, svc, ln)
	defer stop()

	conn, br := dialText(t, addr)
	defer conn.Close()
	if !ln.failed.Load() {
		t.Fatal("the failing Accept never ran")
	}
	fmt.Fprintln(conn, "refs")
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "refs=1 ") {
		t.Fatalf("refs after a failed Accept: %q, %v", line, err)
	}
}

// TestServeListenerDrainsSilentConn: a client that never sends a byte
// leaves its session parked reading the first line; cancellation must
// still end that session, close the connection, and let ServeListener
// return.
func TestServeListenerDrainsSilentConn(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	addr, stop := serveTCP(t, svc, listen(t))
	conn, br := dialText(t, addr) // banner read: the session is past it, waiting
	defer conn.Close()
	stop()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Error("silent client's connection still open after drain")
	}
}

// TestSingleGroupExtendErrorIsServiceError: a one-group binary extend
// that fails reports the service's error text unchanged — the group
// prefix is for batches, where it names the failing group.
func TestSingleGroupExtendErrorIsServiceError(t *testing.T) {
	svc := service.New()
	defer svc.Close()
	addr, stop := serveTCP(t, svc, listen(t))
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Handshake(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cli.Close()

	ctx := context.Background()
	_, want := svc.Extend(ctx, 999, [][]int{{1}})
	if want == nil {
		t.Fatal("extend of an unknown id succeeded")
	}
	_, err = cli.ExtendOne(ctx, 999, [][]int{{1}})
	var serr ServerError
	if !errors.As(err, &serr) || string(serr) != want.Error() {
		t.Fatalf("single-group extend of an unknown id: %v, want ServerError %q", err, want.Error())
	}
}
