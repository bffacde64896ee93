package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/service"
)

// ServeListener accepts connections on ln until ctx is cancelled, running
// one session goroutine per connection against the shared service —
// cross-client physical sharing of the snapshot tree is the whole point.
// A transient Accept failure (e.g. EMFILE under connection load) is
// logged and retried rather than taking the server down.
//
// Shutdown is a drain: cancelling ctx closes ln and expires every open
// connection's deadlines, which unblocks readers and writers wherever
// they are parked (including a client that never sent a byte), and
// in-flight requests observe the cancelled context. ServeListener
// returns only when every session goroutine has exited.
func ServeListener(ctx context.Context, svc *service.Service, ln net.Listener, opts ServeOptions) {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				break
			}
			fmt.Fprintf(os.Stderr, "solversvc: accept: %v (retrying)\n", err)
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
			defer stop()
			serveConn(ctx, svc, conn, opts)
		}()
	}
	wg.Wait()
}

// serveConn runs one connection: banner, then protocol selection. A
// first line of "binary <maxver>" negotiates the binary protocol and
// hands the connection to Serve; anything else — including "binary
// <garbage>", which the text session answers with an error, the same
// fallback signal a pre-binary server gives — replays the consumed bytes
// into a text session, so pre-binary clients see exactly the old
// behavior.
func serveConn(ctx context.Context, svc *service.Service, conn net.Conn, opts ServeOptions) {
	br := bufio.NewReader(conn)
	out := bufio.NewWriter(&deadlineWriter{w: conn, timeout: opts.WriteTimeout})
	fmt.Fprintln(out, Banner)
	if err := out.Flush(); err != nil {
		return
	}
	hello, consumed := peekHello(br)
	if maxVer, ok := ParseHello(hello); ok {
		fmt.Fprintln(out, Accept(Negotiate(maxVer)))
		if err := out.Flush(); err != nil {
			return
		}
		if err := Serve(ctx, svc, conn, br, opts); err != nil {
			fmt.Fprintf(os.Stderr, "solversvc: binary session %s: %v\n", conn.RemoteAddr(), err)
		}
		return
	}
	r := io.MultiReader(bytes.NewReader(consumed), br)
	if err := ServeText(ctx, svc, r, conn, opts); err != nil {
		fmt.Fprintf(os.Stderr, "solversvc: session %s: %v\n", conn.RemoteAddr(), err)
	}
}

// peekHello reads just enough of a session's first bytes to decide
// whether the client is negotiating the binary protocol, returning the
// hello line ("" when the first line is not one) and every byte read.
// It matches the "binary " prefix byte-at-a-time — never reading past
// the first divergence — so a short text first command ("refs\n") is
// replayed immediately instead of blocking a prefix-sized read. On a
// read error the bytes consumed so far are replayed and the error
// resurfaces from the underlying reader.
func peekHello(br *bufio.Reader) (hello string, consumed []byte) {
	const prefix = "binary "
	// A hello line is short, so anything long is a text command that
	// merely starts with "binary " and gets replayed.
	const maxHello = 64
	for len(consumed) <= maxHello {
		b, err := br.ReadByte()
		if err != nil {
			return "", consumed
		}
		consumed = append(consumed, b)
		if n := len(consumed); n <= len(prefix) && b != prefix[n-1] {
			return "", consumed
		}
		if b == '\n' {
			return string(consumed[:len(consumed)-1]), consumed
		}
	}
	return "", consumed
}
