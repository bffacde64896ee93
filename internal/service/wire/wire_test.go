package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/solver"
)

// reqRoundTrip encodes req, strips the frame header, decodes, and
// re-encodes, asserting both the struct and the bytes reach a fixed
// point.
func reqRoundTrip(t *testing.T, req Request) Request {
	t.Helper()
	frame, err := EncodeRequest(req)
	if err != nil {
		t.Fatalf("encode %+v: %v", req, err)
	}
	got, err := DecodeRequest(frame[4:])
	if err != nil {
		t.Fatalf("decode %+v: %v", req, err)
	}
	frame2, err := EncodeRequest(got)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", got, err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatalf("request %+v not a fixed point:\n  %x\n  %x", req, frame, frame2)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpExtend, ReqID: 1, ID: 0, Groups: [][][]int{{{1, 2}}}},
		{Op: OpExtend, ReqID: 1<<64 - 1, ID: 42, Groups: [][][]int{
			{{1, -2, 3}, {-1}},
			{{2}},
			{}, // empty group: zero clauses is representable
		}},
		{Op: OpRelease, ReqID: 7, ID: 3},
		{Op: OpPin, ReqID: 8, ID: 4},
		{Op: OpUnpin, ReqID: 9, ID: 5},
		{Op: OpTouch, ReqID: 10, ID: 6},
		{Op: OpStats, ReqID: 11},
	}
	for _, req := range reqs {
		got := reqRoundTrip(t, req)
		if got.Op != req.Op || got.ReqID != req.ReqID || got.ID != req.ID {
			t.Errorf("header fields: got %+v, want %+v", got, req)
		}
		if req.Op == OpExtend && !reflect.DeepEqual(got.Groups, req.Groups) {
			t.Errorf("groups: got %v, want %v", got.Groups, req.Groups)
		}
	}
}

func respRoundTrip(t *testing.T, resp Response) Response {
	t.Helper()
	frame, err := EncodeResponse(resp)
	if err != nil {
		t.Fatalf("encode %+v: %v", resp, err)
	}
	got, err := DecodeResponse(frame[4:])
	if err != nil {
		t.Fatalf("decode %+v: %v", resp, err)
	}
	frame2, err := EncodeResponse(got)
	if err != nil {
		t.Fatalf("re-encode %+v: %v", got, err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatalf("response %+v not a fixed point:\n  %x\n  %x", resp, frame, frame2)
	}
	return got
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Op: OpExtend, ReqID: 3, Results: []ExtendResult{
			{ID: 1, Verdict: solver.Sat, Model: []bool{false, true, false, true}},
			{ID: 2, Verdict: solver.Unsat},
			{ID: 3, Verdict: solver.Unknown},
			// 9 variables: exercises a bitset with padding bits.
			{ID: 4, Verdict: solver.Sat, Model: []bool{false, true, true, false, true, false, false, true, true}},
		}},
		{Op: OpExtend, ReqID: 4, Results: []ExtendResult{}},
		{Op: OpRelease, ReqID: 5},
		{Op: OpStats, ReqID: 6, Text: "extends=3 refs=2"},
		{Op: OpStats, ReqID: 7}, // empty stats text
		{Op: OpTouch, ReqID: 8, Err: "service: unknown problem reference 9"},
	}
	for _, resp := range resps {
		got := respRoundTrip(t, resp)
		if got.Op != resp.Op || got.ReqID != resp.ReqID || got.Err != resp.Err || got.Text != resp.Text {
			t.Errorf("fields: got %+v, want %+v", got, resp)
		}
		if len(got.Results) != len(resp.Results) {
			t.Errorf("results: got %d, want %d", len(got.Results), len(resp.Results))
			continue
		}
		for i := range got.Results {
			g, w := got.Results[i], resp.Results[i]
			if g.ID != w.ID || g.Verdict != w.Verdict {
				t.Errorf("result %d: got %+v, want %+v", i, g, w)
			}
			for j := range w.Model {
				if g.Model[j] != w.Model[j] {
					t.Errorf("result %d model bit %d: got %v, want %v", i, j, g.Model[j], w.Model[j])
				}
			}
		}
	}
}

// TestDecodeRejects pins the strictness guarantees: hostile counts,
// out-of-range bytes, non-canonical encodings, and trailing garbage all
// fail decoding instead of being repaired.
func TestDecodeRejects(t *testing.T) {
	mustReq := func(req Request) []byte {
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}
	mustResp := func(resp Response) []byte {
		frame, err := EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}
	extend := mustReq(Request{Op: OpExtend, ReqID: 1, ID: 0, Groups: [][][]int{{{1, 2}}}})
	okResp := mustResp(Response{Op: OpExtend, ReqID: 1, Results: []ExtendResult{
		{ID: 1, Verdict: solver.Sat, Model: []bool{true, true, false}},
	}})

	reqCases := map[string][]byte{
		"empty payload":    {},
		"unknown op":       {0xFF, 0, 0, 0, 0, 0, 0, 0, 1},
		"truncated header": extend[:5],
		"truncated groups": extend[:len(extend)-2],
		"trailing bytes":   append(append([]byte{}, extend...), 0),
		// Patch the literal (last 4 bytes of this frame) to zero.
		"zero literal": func() []byte {
			b := append([]byte{}, extend...)
			copy(b[len(b)-4:], []byte{0, 0, 0, 0})
			return b
		}(),
		// Patch the group count (bytes 17:21 — after op, reqID, parent) to a
		// value no frame this size could hold.
		"hostile group count": func() []byte {
			b := append([]byte{}, extend...)
			copy(b[17:21], []byte{0xFF, 0xFF, 0xFF, 0xFF})
			return b
		}(),
		"zero groups": {byte(OpExtend),
			0, 0, 0, 0, 0, 0, 0, 1, // reqID
			0, 0, 0, 0, 0, 0, 0, 0, // parent
			0, 0, 0, 0}, // nGroups = 0
	}
	for name, payload := range reqCases {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("DecodeRequest accepted %s", name)
		}
	}

	respCases := map[string][]byte{
		"empty payload":  {},
		"unknown op":     {0xFF, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"status 2":       {byte(OpRelease), 0, 0, 0, 0, 0, 0, 0, 1, 2},
		"empty error":    {byte(OpRelease), 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0},
		"trailing bytes": append(append([]byte{}, okResp...), 0),
		"truncated":      okResp[:len(okResp)-1],
		// Verdict byte of result 0 lives right after nResults+id
		// (10 header bytes + 4 count + 8 id).
		"verdict 3": func() []byte {
			b := append([]byte{}, okResp...)
			b[22] = 3
			return b
		}(),
		// The model bitset's last byte holds 3 used bits; set bit 5.
		"nonzero padding": func() []byte {
			b := append([]byte{}, okResp...)
			b[len(b)-1] |= 1 << 5
			return b
		}(),
	}
	for name, payload := range respCases {
		if _, err := DecodeResponse(payload); err == nil {
			t.Errorf("DecodeResponse accepted %s", name)
		}
	}
}

func TestReadFrame(t *testing.T) {
	frame, err := EncodeRequest(Request{Op: OpStats, ReqID: 9})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(payload, frame[4:]) {
		t.Fatalf("payload %x, want %x", payload, frame[4:])
	}

	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:2])); err != io.ErrUnexpectedEOF {
		t.Errorf("cut header: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-1])); err != io.ErrUnexpectedEOF {
		t.Errorf("cut payload: %v, want io.ErrUnexpectedEOF", err)
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("oversized frame: %v, want ErrFrameTooBig", err)
	}
}

func TestNegotiationLines(t *testing.T) {
	if v, ok := ParseHello(Hello(Version)); !ok || v != Version {
		t.Errorf("ParseHello(Hello(%d)) = %d, %v", Version, v, ok)
	}
	if v, ok := ParseHello("binary 3\r\n"); !ok || v != 3 {
		t.Errorf("CRLF hello: %d, %v", v, ok)
	}
	for _, bad := range []string{"", "binary", "binary x", "binary 0", "binary -1", "extend 0 1 0", "binaryx 1", "binary 1 2"} {
		if _, ok := ParseHello(bad); ok {
			t.Errorf("ParseHello accepted %q", bad)
		}
	}

	if v, ok := ParseAccept(Accept(1)); !ok || v != 1 {
		t.Errorf("ParseAccept(Accept(1)) = %d, %v", v, ok)
	}
	for _, bad := range []string{"", "err: unknown command \"binary\"", "proto binary", "proto binary 0", "proto binary x"} {
		if _, ok := ParseAccept(bad); ok {
			t.Errorf("ParseAccept accepted %q", bad)
		}
	}

	if v := Negotiate(1); v != 1 {
		t.Errorf("Negotiate(1) = %d", v)
	}
	if v := Negotiate(99); v != Version {
		t.Errorf("Negotiate(99) = %d, want server max", v)
	}
}

// TestEncodeRejects: inputs the wire format cannot carry fail at encode
// time, before any bytes hit the connection.
func TestEncodeRejects(t *testing.T) {
	if _, err := EncodeRequest(Request{Op: OpExtend, Groups: nil}); err == nil {
		t.Error("extend with zero groups encoded")
	}
	if _, err := EncodeRequest(Request{Op: OpExtend, Groups: [][][]int{{{0}}}}); err == nil {
		t.Error("zero literal encoded")
	}
	if _, err := EncodeRequest(Request{Op: Op(200)}); err == nil {
		t.Error("unknown request op encoded")
	}
	if _, err := EncodeResponse(Response{Op: Op(200)}); err == nil {
		t.Error("unknown response op encoded")
	}
	if _, err := EncodeResponse(Response{Op: OpExtend, Results: []ExtendResult{{Verdict: 7}}}); err == nil {
		t.Error("out-of-range verdict encoded")
	}

	// Oversized error messages are truncated, not refused — and the
	// truncated form must still round-trip.
	long := Response{Op: OpRelease, ReqID: 1, Err: strings.Repeat("x", maxErrBytes+100)}
	frame, err := EncodeResponse(long)
	if err != nil {
		t.Fatalf("oversized error message: %v", err)
	}
	got, err := DecodeResponse(frame[4:])
	if err != nil {
		t.Fatalf("decoding truncated error message: %v", err)
	}
	if len(got.Err) != maxErrBytes {
		t.Errorf("error message truncated to %d, want %d", len(got.Err), maxErrBytes)
	}
}
