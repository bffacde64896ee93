package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/solver"
)

// Banner is the line a server sends before its first reply, in either
// protocol.
const Banner = "solversvc ready; problem 0 is the permanent empty root (send `help` for the protocol)"

// MaxLineBytes bounds one text protocol line (a large extend carries
// many clauses; 64 variables per clause × thousands of clauses easily
// exceeds bufio.Scanner's 64 KiB default). Longer lines fail loudly with
// a read error instead of silently ending the session.
const MaxLineBytes = 8 << 20

const helpText = `commands:
  extend <id> <lit ... 0 [lit ... 0 ...]>  solve states[id] ∧ clauses, park result, print new id
  release <id>                             drop a reference (reference 0 is permanent: refused)
  pin <id> / unpin <id>                    pinned references are never evicted by -cap
  touch <id>                               LRU keep-alive; errors if evicted/unknown
  refs                                     live reference and snapshot counts
  stats                                    extends, evictions, refs, live snapshots, sharing footprint
  help                                     this text
  quit                                     end the session
  binary <maxver>                          (first line of a TCP session only) switch to the
                                           length-prefixed binary protocol: pipelined framed
                                           requests with client-chosen ids and batched extends
rules: reference 0 is the permanent empty base problem — it can be neither
released nor evicted, so every session can branch from it. With -cap N at
most N unpinned references stay parked; the least recently used beyond
that are evicted and answer "evicted" errors afterwards — unless -store
DIR is set, in which case they demote to disk and reload on access, and a
restarted server recovers every previously-parked reference.`

// scanMsg is one unit from the session reader: a line or a terminal error.
type scanMsg struct {
	line string
	err  error
}

// ServeText runs the newline-delimited text protocol for one client
// until EOF, quit, ctx cancellation, a write failure, or a read error
// (which is both reported to the client and returned). Each command
// line becomes the Request the binary protocol would carry and runs
// through Dispatch; only help, refs, quit and the mid-session binary
// refusal are answered here. Replies go to w, under opts.WriteTimeout
// when w supports write deadlines.
func ServeText(ctx context.Context, svc *service.Service, r io.Reader, w io.Writer, opts ServeOptions) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := bufio.NewWriter(&deadlineWriter{w: w, timeout: opts.WriteTimeout})

	// Read on a separate goroutine so cancellation interrupts a session
	// blocked on input (TCP conns additionally get an expired deadline
	// from ServeListener's drain).
	lines := make(chan scanMsg)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), MaxLineBytes)
		for sc.Scan() {
			select {
			case lines <- scanMsg{line: sc.Text()}:
			case <-sctx.Done():
				return
			}
		}
		if err := sc.Err(); err != nil {
			select {
			case lines <- scanMsg{err: err}:
			case <-sctx.Done():
			}
		}
	}()

	for {
		var msg scanMsg
		var open bool
		select {
		case <-ctx.Done():
			return nil
		case msg, open = <-lines:
			if !open {
				return nil // clean EOF
			}
		}
		if msg.err != nil {
			if ctx.Err() != nil {
				// Drain-induced: the server expired this connection to
				// unblock the reader. Not a session failure.
				return nil
			}
			err := fmt.Errorf("read: %w", msg.err)
			fmt.Fprintf(out, "err: %v\n", err)
			out.Flush()
			return err
		}
		quit := runLine(ctx, svc, out, strings.Fields(msg.line), opts.ReqTimeout)
		if err := out.Flush(); err != nil {
			// The peer stopped reading (closed its read side, or stalled past
			// the write deadline): terminate instead of solving into a broken
			// pipe command after command.
			return fmt.Errorf("write: %w", err)
		}
		if quit {
			return nil
		}
	}
}

// runLine executes one command line, writing its reply; it reports
// whether the session should end.
func runLine(ctx context.Context, svc *service.Service, out *bufio.Writer, fields []string, reqTimeout time.Duration) (quit bool) {
	if len(fields) == 0 {
		return false
	}
	switch fields[0] {
	case "quit", "exit":
		return true
	case "help":
		fmt.Fprintln(out, helpText)
		return false
	case "refs":
		fmt.Fprintf(out, "refs=%d live-snapshots=%d\n", svc.Refs(), svc.LiveSnapshots())
		return false
	case "binary":
		fmt.Fprintln(out, "err: binary negotiation: expected `binary <maxver>` as the first line of a TCP session (-listen)")
		return false
	}
	req, err := parseLine(fields)
	if err != nil {
		fmt.Fprintf(out, "err: %v\n", err)
		return false
	}
	resp := Dispatch(ctx, svc, req, reqTimeout)
	switch {
	case resp.Err != "":
		fmt.Fprintf(out, "err: %s\n", resp.Err)
	case req.Op == OpExtend:
		writeResult(out, resp.Results[0])
	case req.Op == OpStats:
		fmt.Fprintln(out, resp.Text)
	default:
		fmt.Fprintln(out, "ok")
	}
	return false
}

// parseLine translates one text command into the request the binary
// protocol would carry: "extend <id> <lit ... 0 ...>" becomes a
// one-group extend (a last clause may omit its 0), "<op> <id>" an
// id-only op, "stats" a stats request.
func parseLine(fields []string) (Request, error) {
	op := OpExtend
	for op <= OpStats && op.String() != fields[0] {
		op++
	}
	switch {
	case op > OpStats:
		return Request{}, fmt.Errorf("unknown command %q", fields[0])
	case op == OpStats:
		return Request{Op: op}, nil
	case op == OpExtend && len(fields) < 2:
		return Request{}, errors.New("extend <id> <lit ... 0 ...>")
	case op != OpExtend && len(fields) != 2:
		return Request{}, fmt.Errorf("%s <id>", op)
	}
	id, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Request{}, err
	}
	req := Request{Op: op, ID: id}
	if op != OpExtend {
		return req, nil
	}
	var clauses [][]int
	var cur []int
	for _, f := range fields[2:] {
		v, err := strconv.Atoi(f)
		if err != nil {
			return Request{}, fmt.Errorf("bad literal %q", f)
		}
		if v == 0 {
			clauses = append(clauses, cur)
			cur = nil
			continue
		}
		cur = append(cur, v)
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	req.Groups = [][][]int{clauses}
	return req, nil
}

// writeResult prints one extend result as "id=N verdict=V", plus
// " model=±1,±2,..." for a satisfiable one.
func writeResult(out *bufio.Writer, r ExtendResult) {
	fmt.Fprintf(out, "id=%d verdict=%s", r.ID, r.Verdict)
	if r.Verdict == solver.Sat {
		out.WriteString(" model=")
		for v := 1; v < len(r.Model); v++ {
			if v > 1 {
				out.WriteByte(',')
			}
			if !r.Model[v] {
				out.WriteByte('-')
			}
			out.WriteString(strconv.Itoa(v))
		}
	}
	out.WriteByte('\n')
}
