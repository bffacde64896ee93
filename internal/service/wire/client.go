package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrClientClosed reports a call issued on (or outlived by) a closed
// client.
var ErrClientClosed = errors.New("wire: client closed")

// Call is one in-flight request. Done receives the call when the reply
// arrives or the connection fails; channels passed to Go must be
// buffered.
type Call struct {
	Req  Request
	Resp Response
	// Err is a transport- or protocol-level failure; a server-side
	// refusal travels in Resp.Err instead.
	Err  error
	Done chan *Call
}

// Client speaks the binary protocol over one connection, pipelining
// requests: any number may be in flight (the server throttles beyond
// its window), replies complete out of order and are matched to calls
// by request id.
type Client struct {
	rw     io.ReadWriter
	nextID atomic.Uint64

	wmu sync.Mutex // serializes request frames onto rw

	mu sync.Mutex
	// guarded_by: mu
	pending map[uint64]*Call
	failed  error // guarded_by: mu — set once; poisons every later call
}

// NewClient wraps an already-negotiated binary connection. br, when
// non-nil, must be the buffered reader used during negotiation (it may
// hold bytes past the accept line).
func NewClient(rw io.ReadWriter, br io.Reader) *Client {
	if br == nil {
		br = bufio.NewReader(rw)
	}
	c := &Client{rw: rw, pending: make(map[uint64]*Call)}
	go c.readLoop(br)
	return c
}

// Handshake negotiates the binary protocol on a fresh text-mode server
// connection: it consumes the banner line, sends the hello, and checks
// the accept. A pre-binary server answers the hello with a text error
// line, reported here as an error — the caller's cue to fall back to
// the text protocol on a new connection.
func Handshake(rw io.ReadWriter) (*Client, error) {
	br := bufio.NewReader(rw)
	if _, err := br.ReadString('\n'); err != nil { // banner
		return nil, fmt.Errorf("wire: reading banner: %w", err)
	}
	if _, err := io.WriteString(rw, Hello(Version)+"\n"); err != nil {
		return nil, fmt.Errorf("wire: sending hello: %w", err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("wire: reading accept: %w", err)
	}
	ver, ok := ParseAccept(line)
	if !ok {
		return nil, fmt.Errorf("wire: server declined binary protocol: %q", strings.TrimSpace(line))
	}
	if ver != Version {
		return nil, fmt.Errorf("wire: server negotiated unsupported version %d", ver)
	}
	return NewClient(rw, br), nil
}

// Go issues req without waiting. A zero ReqID is auto-assigned;
// explicit ids must be unique among the connection's in-flight calls.
// done may be nil (a fresh buffered channel is made) but must be
// buffered when provided.
func (c *Client) Go(req Request, done chan *Call) *Call {
	if done == nil {
		done = make(chan *Call, 1)
	}
	if req.ReqID == 0 {
		req.ReqID = c.nextID.Add(1)
	}
	call := &Call{Req: req, Done: done}
	frame, err := EncodeRequest(req)
	if err != nil {
		call.Err = err
		call.Done <- call
		return call
	}
	c.mu.Lock()
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		call.Err = err
		call.Done <- call
		return call
	}
	if _, dup := c.pending[req.ReqID]; dup {
		c.mu.Unlock()
		call.Err = fmt.Errorf("wire: request id %d already in flight", req.ReqID)
		call.Done <- call
		return call
	}
	c.pending[req.ReqID] = call
	c.mu.Unlock()

	c.wmu.Lock()
	_, err = c.rw.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		// fail delivers this call too (it is pending); every other
		// in-flight call dies with the same connection error.
		c.fail(fmt.Errorf("wire: write: %w", err))
	}
	return call
}

// Do issues req and waits for its reply or ctx. A server-side refusal
// is returned as a ServerError alongside the raw response.
func (c *Client) Do(ctx context.Context, req Request) (Response, error) {
	call := c.Go(req, nil)
	select {
	case <-ctx.Done():
		c.forget(call)
		return Response{}, ctx.Err()
	case <-call.Done:
	}
	if call.Err != nil {
		return Response{}, call.Err
	}
	if call.Resp.Err != "" {
		return call.Resp, ServerError(call.Resp.Err)
	}
	return call.Resp, nil
}

// forget drops an abandoned call so a late reply is discarded instead
// of failing the connection as an unmatched request id.
func (c *Client) forget(call *Call) {
	c.mu.Lock()
	if cur, ok := c.pending[call.Req.ReqID]; ok && cur == call {
		delete(c.pending, call.Req.ReqID)
	}
	c.mu.Unlock()
}

// Extend runs one batched extend: each group independently extends
// parent, yielding len(groups) sibling results in one round trip.
func (c *Client) Extend(ctx context.Context, parent uint64, groups [][][]int) ([]ExtendResult, error) {
	resp, err := c.Do(ctx, Request{Op: OpExtend, ID: parent, Groups: groups})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(groups) {
		return nil, fmt.Errorf("wire: %d results for %d groups", len(resp.Results), len(groups))
	}
	return resp.Results, nil
}

// ExtendOne extends parent with a single clause group.
func (c *Client) ExtendOne(ctx context.Context, parent uint64, clauses [][]int) (ExtendResult, error) {
	res, err := c.Extend(ctx, parent, [][][]int{clauses})
	if err != nil {
		return ExtendResult{}, err
	}
	return res[0], nil
}

// Release drops the reference behind id.
func (c *Client) Release(ctx context.Context, id uint64) error {
	_, err := c.Do(ctx, Request{Op: OpRelease, ID: id})
	return err
}

// Touch bumps id's LRU clock (keep-alive / liveness probe).
func (c *Client) Touch(ctx context.Context, id uint64) error {
	_, err := c.Do(ctx, Request{Op: OpTouch, ID: id})
	return err
}

// Close fails every in-flight call with ErrClientClosed and closes the
// underlying connection when it is closable.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	if cl, ok := c.rw.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// fail latches the first connection-level error and delivers it to
// every pending call; later Go calls fail immediately with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.failed == nil {
		c.failed = err
	}
	dead := make([]*Call, 0, len(c.pending))
	for id, call := range c.pending {
		dead = append(dead, call)
		delete(c.pending, id)
	}
	err = c.failed
	c.mu.Unlock()
	for _, call := range dead {
		call.Err = err
		call.Done <- call
	}
}

// readLoop demultiplexes reply frames onto pending calls by request id
// until the connection fails or closes.
func (c *Client) readLoop(br io.Reader) {
	for {
		frame, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				err = ErrClientClosed
			}
			c.fail(err)
			return
		}
		resp, err := DecodeResponse(frame)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		call, ok := c.pending[resp.ReqID]
		delete(c.pending, resp.ReqID)
		c.mu.Unlock()
		if !ok {
			// A reply for a call Do abandoned on ctx cancellation: late,
			// not a protocol violation. Discard it.
			continue
		}
		call.Resp = resp
		call.Done <- call
	}
}
