// Package wire implements solversvc's length-prefixed binary protocol:
// framed requests carrying client-chosen request ids, pipelining with
// out-of-order completion (replies are matched to requests by id, never
// by arrival order), and batched extends — N literal groups against one
// parent yield N sibling references in a single round trip.
//
// A connection starts in the newline-delimited text protocol; a client
// upgrades by sending the hello line "binary <maxver>" as its first
// command and waiting for the server's "proto binary <ver>" accept line
// (see Hello/ParseAccept). A server that predates the binary protocol
// answers the hello with a text error, which is the fallback signal:
// the client simply keeps speaking text.
//
// ServeListener is the one server for both protocols (solversvc -listen
// and loadgen.ServeInProc run it): it greets each connection with
// Banner, negotiates, and hands the connection to Serve or ServeText. A
// text line is parsed into the Request a binary frame would carry, so
// both protocols reach the service only through Dispatch.
//
// Frame layout (all integers big-endian):
//
//	frame    := u32 payloadLen | payload              (payloadLen ≤ MaxFrameBytes)
//	request  := u8 op | u64 reqID | body
//	response := u8 op | u64 reqID | u8 status | body  (status 0 = ok, 1 = error)
//
// Request bodies:
//
//	extend   := u64 parent | u32 nGroups | nGroups × group
//	group    := u32 nClauses | nClauses × clause
//	clause   := u32 nLits | nLits × i32 literal       (literal ≠ 0)
//	release/pin/unpin/touch := u64 id
//	stats    := (empty)
//
// Response bodies (ok):
//
//	extend   := u32 nResults | nResults × result
//	result   := u64 id | u8 verdict | [u32 modelLen | ⌈modelLen/8⌉ bitset]  (model iff verdict = sat)
//	release/pin/unpin/touch := (empty)
//	stats    := u32 len | len × byte                  (UTF-8 counters line)
//
// Response body (error): u32 len | len × byte (UTF-8 message, non-empty).
//
// Decoding is strict: counts are bounded against the bytes actually
// remaining before any allocation is sized, unused bitset padding must
// be zero, verdicts and status bytes must be in range, and trailing
// bytes after a well-formed message are rejected. Every accepted frame
// re-encodes to exactly the bytes that were decoded, so the codec has a
// canonical fixed point (FuzzWireDecode pins this).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/solver"
)

// Version is the highest binary protocol version this package speaks.
const Version = 1

// MaxFrameBytes bounds one frame's payload — the binary twin of the
// text protocol's 8 MiB line limit, doubled because a batch carries
// several groups.
const MaxFrameBytes = 16 << 20

// maxErrBytes bounds an error reply's message.
const maxErrBytes = 64 << 10

// Codec errors. Decode errors mean the peer violated the protocol: the
// framing can no longer be trusted, so sessions terminate on them.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	ErrTrailing    = errors.New("wire: trailing bytes after message")
)

// Op identifies a request kind.
type Op uint8

// Request opcodes.
const (
	OpExtend  Op = 1 // batched extend: N groups → N sibling ids
	OpRelease Op = 2
	OpPin     Op = 3
	OpUnpin   Op = 4
	OpTouch   Op = 5
	OpStats   Op = 6
)

func (o Op) String() string {
	switch o {
	case OpExtend:
		return "extend"
	case OpRelease:
		return "release"
	case OpPin:
		return "pin"
	case OpUnpin:
		return "unpin"
	case OpTouch:
		return "touch"
	case OpStats:
		return "stats"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is one decoded client request.
type Request struct {
	Op Op
	// ReqID is chosen by the client and echoed verbatim in the reply;
	// it must be unique among the connection's in-flight requests.
	ReqID uint64
	// ID is the extend parent, or the target of release/pin/unpin/touch.
	ID uint64
	// Groups carries an extend's clause groups: group i independently
	// extends ID and yields the i-th result — N siblings per round trip.
	Groups [][][]int
}

// ExtendResult is one parked sibling in an extend reply.
type ExtendResult struct {
	ID      uint64
	Verdict solver.Status
	// Model is the satisfying assignment (index = variable, 0 unused),
	// present only for Sat verdicts.
	Model []bool
}

// Response is one decoded server reply.
type Response struct {
	Op    Op
	ReqID uint64
	// Err is the server-reported failure; when non-empty the other
	// payload fields are meaningless.
	Err string
	// Results holds an extend's siblings, in group order.
	Results []ExtendResult
	// Text is the stats reply's counters line.
	Text string
}

// ServerError is a failure the server reported in a reply — the request
// was transported and dispatched, but refused (unknown reference,
// evicted id, solver error). Distinct from transport errors, which
// poison the whole connection.
type ServerError string

func (e ServerError) Error() string { return string(e) }

// ReadFrame reads one length-prefixed payload. io.EOF surfaces only at
// a clean frame boundary; a frame cut short is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// EncodeRequest renders req as a complete frame (length prefix included).
func EncodeRequest(req Request) ([]byte, error) {
	b := make([]byte, 4, 64)
	b = append(b, byte(req.Op))
	b = binary.BigEndian.AppendUint64(b, req.ReqID)
	switch req.Op {
	case OpExtend:
		b = binary.BigEndian.AppendUint64(b, req.ID)
		if len(req.Groups) == 0 {
			return nil, errors.New("wire: extend with zero groups")
		}
		if len(req.Groups) > math.MaxUint32 {
			return nil, errors.New("wire: too many groups")
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(req.Groups)))
		for _, g := range req.Groups {
			b = binary.BigEndian.AppendUint32(b, uint32(len(g)))
			for _, cl := range g {
				b = binary.BigEndian.AppendUint32(b, uint32(len(cl)))
				for _, lit := range cl {
					if lit == 0 || lit < math.MinInt32 || lit > math.MaxInt32 {
						return nil, fmt.Errorf("wire: literal %d out of range", lit)
					}
					b = binary.BigEndian.AppendUint32(b, uint32(int32(lit)))
				}
			}
		}
	case OpRelease, OpPin, OpUnpin, OpTouch:
		b = binary.BigEndian.AppendUint64(b, req.ID)
	case OpStats:
	default:
		return nil, fmt.Errorf("wire: unknown request op %d", req.Op)
	}
	return sealFrame(b)
}

// EncodeResponse renders resp as a complete frame (length prefix included).
func EncodeResponse(resp Response) ([]byte, error) {
	b := make([]byte, 4, 64)
	b = append(b, byte(resp.Op))
	b = binary.BigEndian.AppendUint64(b, resp.ReqID)
	if resp.Err != "" {
		if len(resp.Err) > maxErrBytes {
			resp.Err = resp.Err[:maxErrBytes]
		}
		b = append(b, 1)
		b = binary.BigEndian.AppendUint32(b, uint32(len(resp.Err)))
		b = append(b, resp.Err...)
		return sealFrame(b)
	}
	b = append(b, 0)
	switch resp.Op {
	case OpExtend:
		if len(resp.Results) > math.MaxUint32 {
			return nil, errors.New("wire: too many results")
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(resp.Results)))
		for _, r := range resp.Results {
			b = binary.BigEndian.AppendUint64(b, r.ID)
			if r.Verdict != solver.Sat && r.Verdict != solver.Unsat && r.Verdict != solver.Unknown {
				return nil, fmt.Errorf("wire: verdict %d out of range", r.Verdict)
			}
			b = append(b, byte(r.Verdict))
			if r.Verdict == solver.Sat {
				b = binary.BigEndian.AppendUint32(b, uint32(len(r.Model)))
				bits := make([]byte, (len(r.Model)+7)/8)
				for i, v := range r.Model {
					if v {
						bits[i/8] |= 1 << (i % 8)
					}
				}
				b = append(b, bits...)
			}
		}
	case OpRelease, OpPin, OpUnpin, OpTouch:
	case OpStats:
		b = binary.BigEndian.AppendUint32(b, uint32(len(resp.Text)))
		b = append(b, resp.Text...)
	default:
		return nil, fmt.Errorf("wire: unknown response op %d", resp.Op)
	}
	return sealFrame(b)
}

// sealFrame stamps the length prefix reserved at b[:4].
func sealFrame(b []byte) ([]byte, error) {
	if len(b)-4 > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// dec is a bounds-checked cursor over one frame payload. The first
// failed read latches err; subsequent reads return zeros.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s at byte %d", what, d.off)
	}
}

func (d *dec) rem() int { return len(d.b) - d.off }

func (d *dec) u8(what string) uint8 {
	if d.err != nil || d.rem() < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32(what string) uint32 {
	if d.err != nil || d.rem() < 4 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil || d.rem() < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes(n int, what string) []byte {
	if d.err != nil || d.rem() < n {
		d.fail(what)
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// count reads a u32 element count and rejects it unless n*minElemBytes
// bytes can still be present — the bound that keeps a hostile count from
// sizing a huge allocation out of a tiny frame.
func (d *dec) count(minElemBytes int, what string) int {
	n := d.u32(what)
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(minElemBytes) > int64(d.rem()) {
		d.err = fmt.Errorf("wire: %s count %d exceeds remaining %d bytes", what, n, d.rem())
		return 0
	}
	return int(n)
}

// DecodeRequest parses one request payload (frame body, length prefix
// already stripped). Trailing bytes are a protocol violation.
func DecodeRequest(payload []byte) (Request, error) {
	d := &dec{b: payload}
	req := Request{Op: Op(d.u8("op")), ReqID: d.u64("reqID")}
	switch req.Op {
	case OpExtend:
		req.ID = d.u64("parent")
		ng := d.count(4, "group")
		if d.err == nil && ng == 0 {
			d.err = errors.New("wire: extend with zero groups")
		}
		if d.err == nil {
			req.Groups = make([][][]int, 0, ng)
		}
		for g := 0; g < ng && d.err == nil; g++ {
			nc := d.count(4, "clause")
			group := make([][]int, 0, nc)
			for c := 0; c < nc && d.err == nil; c++ {
				nl := d.count(4, "literal")
				clause := make([]int, 0, nl)
				for l := 0; l < nl && d.err == nil; l++ {
					lit := int32(d.u32("literal"))
					if lit == 0 && d.err == nil {
						d.err = errors.New("wire: zero literal")
					}
					clause = append(clause, int(lit))
				}
				group = append(group, clause)
			}
			req.Groups = append(req.Groups, group)
		}
	case OpRelease, OpPin, OpUnpin, OpTouch:
		req.ID = d.u64("id")
	case OpStats:
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown request op %d", req.Op)
		}
	}
	if d.err != nil {
		return Request{}, d.err
	}
	if d.rem() != 0 {
		return Request{}, fmt.Errorf("%w: %d", ErrTrailing, d.rem())
	}
	return req, nil
}

// DecodeResponse parses one response payload. Trailing bytes are a
// protocol violation.
func DecodeResponse(payload []byte) (Response, error) {
	d := &dec{b: payload}
	resp := Response{Op: Op(d.u8("op")), ReqID: d.u64("reqID")}
	switch resp.Op {
	case OpExtend, OpRelease, OpPin, OpUnpin, OpTouch, OpStats:
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown response op %d", resp.Op)
		}
	}
	status := d.u8("status")
	if d.err == nil && status > 1 {
		d.err = fmt.Errorf("wire: status byte %d out of range", status)
	}
	if d.err == nil && status == 1 {
		n := d.count(1, "error message")
		if d.err == nil && n == 0 {
			d.err = errors.New("wire: empty error message")
		}
		if d.err == nil && n > maxErrBytes {
			// The encoder truncates at maxErrBytes, so anything longer
			// could not round-trip to a fixed point.
			d.err = fmt.Errorf("wire: error message %d bytes exceeds %d", n, maxErrBytes)
		}
		resp.Err = string(d.bytes(n, "error message"))
		if d.err != nil {
			return Response{}, d.err
		}
		if d.rem() != 0 {
			return Response{}, fmt.Errorf("%w: %d", ErrTrailing, d.rem())
		}
		return resp, nil
	}
	switch resp.Op {
	case OpExtend:
		nr := d.count(9, "result")
		if d.err == nil {
			resp.Results = make([]ExtendResult, 0, nr)
		}
		for i := 0; i < nr && d.err == nil; i++ {
			r := ExtendResult{ID: d.u64("result id")}
			v := d.u8("verdict")
			if d.err == nil && v > uint8(solver.Unsat) {
				d.err = fmt.Errorf("wire: verdict %d out of range", v)
				break
			}
			r.Verdict = solver.Status(v)
			if r.Verdict == solver.Sat {
				ml := d.u32("model length")
				if d.err == nil && int64(ml) > 8*int64(d.rem()) {
					d.err = fmt.Errorf("wire: model length %d exceeds remaining %d bytes", ml, d.rem())
					break
				}
				bits := d.bytes((int(ml)+7)/8, "model bitset")
				if d.err != nil {
					break
				}
				r.Model = make([]bool, ml)
				for j := range r.Model {
					r.Model[j] = bits[j/8]&(1<<(j%8)) != 0
				}
				// Canonical form: padding bits beyond modelLen are zero,
				// so decode∘encode is the identity on accepted frames.
				for j := int(ml); j < 8*len(bits); j++ {
					if bits[j/8]&(1<<(j%8)) != 0 {
						d.err = errors.New("wire: nonzero model padding bits")
					}
				}
			}
			resp.Results = append(resp.Results, r)
		}
	case OpRelease, OpPin, OpUnpin, OpTouch:
	case OpStats:
		n := d.count(1, "stats text")
		resp.Text = string(d.bytes(n, "stats text"))
	}
	if d.err != nil {
		return Response{}, d.err
	}
	if d.rem() != 0 {
		return Response{}, fmt.Errorf("%w: %d", ErrTrailing, d.rem())
	}
	return resp, nil
}

// Hello is the text line a client sends to negotiate the binary
// protocol, carrying the highest version it speaks.
func Hello(maxVer int) string { return fmt.Sprintf("binary %d", maxVer) }

// ParseHello recognizes a client hello line; ok is false for anything
// else (including malformed versions), which servers treat as plain
// text.
func ParseHello(line string) (maxVer int, ok bool) {
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(line), "\r"))
	if len(fields) != 2 || fields[0] != "binary" {
		return 0, false
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || v < 1 {
		return 0, false
	}
	return v, true
}

// Accept is the server's negotiation reply naming the version the
// session will speak; the bytes after its newline are binary frames.
func Accept(ver int) string { return fmt.Sprintf("proto binary %d", ver) }

// ParseAccept recognizes a server accept line.
func ParseAccept(line string) (ver int, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSuffix(strings.TrimSpace(line), "\r"), "proto binary ")
	if !found {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 1 {
		return 0, false
	}
	return v, true
}

// Negotiate picks the version a server serves for a client maximum
// accepted by ParseHello (so at least 1): the highest version both
// sides speak.
func Negotiate(clientMax int) int { return min(clientMax, Version) }
