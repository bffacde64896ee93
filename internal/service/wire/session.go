package wire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/service"
)

// maxInflight caps a binary connection's concurrently executing
// requests. Reads stall once the window is full, so a client pipelining
// deeper sees backpressure, not unbounded server goroutines.
const maxInflight = 64

// ServeOptions tunes the sessions of either protocol.
type ServeOptions struct {
	// ReqTimeout bounds each extend's solve (0 = none), matching
	// solversvc's -req-timeout.
	ReqTimeout time.Duration
	// WriteTimeout arms a write deadline before every reply when the
	// transport supports deadlines (net.Conn does): a peer that stops
	// reading fails the session instead of parking its writer forever.
	// 0 disables.
	WriteTimeout time.Duration
}

// deadlineWriter arms w's write deadline before every chunk written
// through it. Transports without deadlines are written to unarmed.
type deadlineWriter struct {
	w       io.Writer
	timeout time.Duration
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	if d.timeout > 0 {
		if c, ok := d.w.(interface{ SetWriteDeadline(time.Time) error }); ok {
			if err := c.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
				return 0, err
			}
		}
	}
	return d.w.Write(p)
}

// Serve speaks one already-negotiated binary session over rw until the
// peer closes, a protocol violation, a write failure, or ctx
// cancellation. Reads come from br when non-nil (negotiation may have
// buffered bytes past the accept line); otherwise rw is read directly.
//
// Requests execute concurrently up to the in-flight cap and complete
// out of order; a per-connection writer goroutine serializes reply
// frames, so replies interleave at frame granularity only. A write or
// flush failure — a half-closed or stalled peer — cancels the session
// context, which aborts in-flight solves instead of leaving the session
// solving into a broken pipe.
//
// The returned error is nil for a clean EOF or cancellation.
func Serve(ctx context.Context, svc *service.Service, rw io.ReadWriter, br io.Reader, opts ServeOptions) error {
	if br == nil {
		br = bufio.NewReader(rw)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Unblock a reader parked in ReadFrame when the session dies from the
	// write side (stalled peer past WriteTimeout): cancellation alone
	// cannot interrupt a blocking Read, so arm an already-expired read
	// deadline. The deferred cancel fires this on every exit path; by
	// then the session is over, so poisoning future reads is fine.
	if rd, ok := rw.(interface{ SetReadDeadline(time.Time) error }); ok {
		go func() {
			<-sctx.Done()
			rd.SetReadDeadline(time.Now())
		}()
	}

	// Reply writer: the only goroutine touching rw's write side. After a
	// write failure it keeps draining the channel (so no handler blocks)
	// but stops writing, and the cancelled session context unwinds the
	// reader and every in-flight solve.
	replies := make(chan []byte, maxInflight)
	writerDone := make(chan struct{})
	var writeErr error
	go func() {
		defer close(writerDone)
		dw := &deadlineWriter{w: rw, timeout: opts.WriteTimeout}
		for frame := range replies {
			if writeErr != nil {
				continue
			}
			if _, err := dw.Write(frame); err != nil {
				writeErr = fmt.Errorf("wire: write: %w", err)
				cancel()
			}
		}
	}()

	sem := make(chan struct{}, maxInflight)
	var handlers sync.WaitGroup
	var readErr error
reading:
	for sctx.Err() == nil {
		frame, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF && sctx.Err() == nil {
				readErr = fmt.Errorf("wire: read: %w", err)
			}
			break
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			// A malformed frame means the stream can no longer be framed;
			// terminating beats resynchronising heuristically.
			readErr = err
			break
		}
		select {
		case sem <- struct{}{}:
		case <-sctx.Done():
			break reading
		}
		handlers.Add(1)
		go func(req Request) {
			defer handlers.Done()
			defer func() { <-sem }()
			frame, err := EncodeResponse(Dispatch(sctx, svc, req, opts.ReqTimeout))
			if err != nil {
				// Reply too large to frame (a batch of huge models): the
				// request still gets an answer, just an error one.
				frame, err = EncodeResponse(Response{Op: req.Op, ReqID: req.ReqID, Err: "server: " + err.Error()})
				if err != nil {
					return
				}
			}
			// Never blocks forever: the writer drains until the channel
			// closes, which happens only after every handler returns.
			replies <- frame
		}(req)
	}
	handlers.Wait()
	close(replies)
	<-writerDone
	if writeErr != nil {
		return writeErr
	}
	return readErr
}

// Dispatch executes one request against svc and builds its reply. It is
// the only place a request reaches the service: binary frames (Serve)
// and text lines (ServeText) both arrive here, so every front end serves
// identical semantics.
//
// An extend batch is atomic: group i extends req.ID (all groups are
// siblings of one parent); on the first failure the siblings already
// parked are released and the whole batch reports the error, prefixed
// with the failing group's index when the batch has more than one.
func Dispatch(ctx context.Context, svc *service.Service, req Request, reqTimeout time.Duration) Response {
	resp := Response{Op: req.Op, ReqID: req.ReqID}
	switch req.Op {
	case OpExtend:
		results := make([]ExtendResult, 0, len(req.Groups))
		for gi, g := range req.Groups {
			rctx, rcancel := ctx, context.CancelFunc(func() {})
			if reqTimeout > 0 {
				rctx, rcancel = context.WithTimeout(ctx, reqTimeout)
			}
			res, err := svc.Extend(rctx, req.ID, g)
			rcancel()
			if err != nil {
				for _, r := range results {
					// Best-effort rollback keeps the batch atomic; a
					// failure here (say, closing mid-batch) leaves an
					// unreferenced sibling for Close to reap.
					_ = svc.Release(r.ID)
				}
				resp.Err = err.Error()
				if len(req.Groups) > 1 {
					resp.Err = fmt.Sprintf("group %d: %v", gi, err)
				}
				return resp
			}
			results = append(results, ExtendResult{ID: res.ID, Verdict: res.Verdict, Model: res.Model})
		}
		resp.Results = results
	case OpRelease:
		if err := svc.Release(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case OpPin:
		if err := svc.Pin(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case OpUnpin:
		if err := svc.Unpin(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case OpTouch:
		if err := svc.Touch(req.ID); err != nil {
			resp.Err = err.Error()
		}
	case OpStats:
		resp.Text = svc.Stats().Line()
	default:
		resp.Err = fmt.Sprintf("unknown op %d", req.Op)
	}
	return resp
}
