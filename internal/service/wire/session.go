package wire

import (
	"bufio"
	"cmp"
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
// out of order; each handler writes its own reply under the session's
// write mutex, so replies interleave at frame granularity only. A write
// failure — a half-closed or stalled peer — cancels the session
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

	s := &session{w: deadlineWriter{w: rw, timeout: opts.WriteTimeout}, cancel: cancel}
	handle := func(req Request) {
		resp := Dispatch(sctx, svc, req, opts.ReqTimeout)
		frame, err := encodeReply(resp)
		if err != nil {
			// Reply too large to frame (a batch of huge models): the
			// request still gets an answer, an error one, and the
			// children the client will never learn of are released
			// (best effort, like Dispatch's rollback), so the batch
			// stays atomic.
			for _, r := range resp.Results {
				_ = svc.Release(r.ID)
			}
			if frame, err = encodeReply(Response{Op: req.Op, ReqID: req.ReqID, Err: "server: " + err.Error()}); err != nil {
				return
			}
		}
		s.write(frame)
	}
	// Handlers start on demand up to the window and then stay parked on
	// reqs until the session ends; unbuffered, a send reaches a handler.
	reqs := make(chan Request)
	var handlers sync.WaitGroup
	live := 0
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
		case reqs <- req:
			continue
		default:
		}
		if live < maxInflight {
			live++
			handlers.Add(1)
			go func(req Request) { // an argument: a captured req would move to the heap
				defer handlers.Done()
				for ok := true; ok; req, ok = <-reqs {
					handle(req)
				}
			}(req)
			continue
		}
		select { // the window is full: backpressure until a handler idles
		case reqs <- req:
		case <-sctx.Done():
			break reading
		}
	}
	close(reqs)
	handlers.Wait()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return cmp.Or(s.writeErr, readErr)
}

// encodeReply is Serve's reply encoder, a variable so a test can make a
// reply unframeable without building 16 MiB of models.
var encodeReply = EncodeResponse

// session is a binary connection's write side, shared by its handlers.
type session struct {
	cancel   context.CancelFunc
	wmu      sync.Mutex
	w        deadlineWriter // guarded_by: wmu
	writeErr error          // guarded_by: wmu — the first failure; later replies are skipped
}

// write sends one reply frame unless an earlier write failed; the first
// failure is latched and cancels the session, unwinding the reader and
// every in-flight solve.
func (s *session) write(frame []byte) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.writeErr == nil {
		if _, err := s.w.Write(frame); err != nil {
			s.writeErr = fmt.Errorf("wire: write: %w", err)
			s.cancel()
		}
	}
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
