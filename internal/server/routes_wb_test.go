// White-box tests of the request table: every wire.Ops row has one server
// row, the row's class alone decides the drain check, the role gate,
// admission and head sampling, its arity alone which field counts are
// refused, and docs/SERVER.md lists the table as it is.
package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
)

// errCode is the error code of a response frame, 0 for a success.
func errCode(t *testing.T, respOp byte, fields [][]byte) wire.Code {
	t.Helper()
	if respOp != wire.OpError {
		return 0
	}
	var we *wire.WireError
	if !errors.As(wire.DecodeError(fields), &we) {
		t.Fatalf("malformed error response %q", fields)
	}
	return we.Code
}

// roundTrip sends op with fields on a fresh connection and reads the
// first frame of the answer.
func roundTrip(t *testing.T, addr string, op byte, fields ...[]byte) (byte, [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, 0, op, fields...); err != nil {
		t.Fatal(err)
	}
	respOp, fields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("%s: %v", wire.OpName(op), err)
	}
	return respOp, fields
}

// TestRequestTableCoversEveryOpcode: the server's request table has
// exactly one row per wire.Ops row — a stream handler for the stream row,
// a request handler for every other — and none where wire.Ops has none.
func TestRequestTableCoversEveryOpcode(t *testing.T) {
	for op, r := range routes {
		name := wire.OpName(byte(op))
		switch class := wire.Ops[op].Class; {
		case class == wire.ClassNone && (r.handle != nil || r.stream != nil):
			t.Errorf("%s has a server row but no wire.Ops row", name)
		case class == wire.ClassStream && (r.stream == nil || r.handle != nil):
			t.Errorf("%s is the stream row but has no stream handler alone", name)
		case class != wire.ClassNone && class != wire.ClassStream && (r.handle == nil || r.stream != nil):
			t.Errorf("%s has no request handler alone", name)
		}
	}
}

// TestRequestArityRefusedUniformly: every opcode refuses a frame with one
// field more than its row's maximum, and one fewer than its minimum, with
// bad-request, the stream row included, and whatever its handler would
// make of the fields.
func TestRequestArityRefusedUniformly(t *testing.T) {
	_, _, addr := serveWB(t, "arity.log", Config{AllowPromote: true})
	junk := func(n int) [][]byte {
		fields := make([][]byte, n)
		for i := range fields {
			fields[i] = []byte("junk")
		}
		return fields
	}
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		row := wire.Ops[op]
		counts := []int{row.Max + 1}
		if row.Min > 0 {
			counts = append(counts, row.Min-1)
		}
		for _, n := range counts {
			respOp, fields := roundTrip(t, addr, op, junk(n)...)
			if code := errCode(t, respOp, fields); code != wire.CodeBadRequest {
				t.Errorf("%s with %d fields answered %s (code %v), want %v",
					row.Name, n, wire.OpName(respOp), code, wire.CodeBadRequest)
			}
		}
	}
}

// TestServerDocListsEveryOpcode: docs/SERVER.md's opcode table lists
// exactly wire.Ops' names and opcodes, in order, and its "Request
// classes" table gives each opcode its row's class.
func TestServerDocListsEveryOpcode(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVER.md")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		want = append(want, fmt.Sprintf("%s %#02x", wire.Ops[op].Name, op))
	}
	var got []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z]+) +(0x[0-9A-F]{2})` \\|").FindAllSubmatch(doc, -1) {
		got = append(got, fmt.Sprintf("%s %s", m[1], strings.ToLower(string(m[2]))))
	}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("SERVER.md's opcode table lists\n  %s\nwant wire.Ops'\n  %s", strings.Join(got, ", "), strings.Join(want, ", "))
	}

	classOf := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| ([a-z]+) \\| (`[A-Z]+`(?:, `[A-Z]+`)*) \\|").FindAllSubmatch(doc, -1) {
		for _, name := range strings.Split(string(m[2]), ", ") {
			classOf[strings.Trim(name, "`")] = string(m[1])
		}
	}
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		row := wire.Ops[op]
		if got := classOf[row.Name]; got != row.Class.String() {
			t.Errorf("SERVER.md's request classes give %s class %q, want %q", row.Name, got, row.Class)
		}
	}
	if len(classOf) != int(wire.LastRequestOp) {
		t.Errorf("SERVER.md's request classes name %d opcodes, want %d", len(classOf), wire.LastRequestOp)
	}
}

// TestRequestClassDrain: on a draining server the monitor rows answer and
// every other row is refused with CodeShutdown — the stream row in its
// first frame.
func TestRequestClassDrain(t *testing.T) {
	srv, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "drain.log"), Config{})
	srv.draining.Store(true)
	sess := &session{srv: srv}
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		class := wire.Ops[op].Class
		var respOp byte
		var fields [][]byte
		if class == wire.ClassStream {
			server, client := net.Pipe()
			go func() {
				defer server.Close()
				routes[op].stream(srv, server, wire.ReplicateFields(0, 0, time.Second))
			}()
			var err error
			if respOp, fields, err = wire.ReadFrame(client, 0); err != nil {
				t.Fatalf("%s: %v", wire.OpName(op), err)
			}
			client.Close()
		} else {
			respOp, fields = srv.handle(sess, op, nil)
		}
		code := errCode(t, respOp, fields)
		if class == wire.ClassMonitor && respOp != wire.OpOK {
			t.Errorf("%s on a draining server answered %s (code %v), want OK", wire.OpName(op), wire.OpName(respOp), code)
		}
		if class != wire.ClassMonitor && code != wire.CodeShutdown {
			t.Errorf("%s on a draining server answered code %v, want %v", wire.OpName(op), code, wire.CodeShutdown)
		}
	}
}

// TestRequestClassRoleGate: every write row is refused with CodeReadOnly
// on a follower and with CodeFenced, naming the successor, on a fenced
// ex-primary; no other row is refused by role.
func TestRequestClassRoleGate(t *testing.T) {
	follower, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "follower.log"), Config{Follow: deadAddr(t)})
	fenced, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "fenced.log"), Config{})
	fenced.commitMu.Lock()
	fenced.fence(1, "successor:7070")
	fenced.commitMu.Unlock()
	for _, c := range []struct {
		srv  *Server
		want wire.Code
		name string // what the refusal must name
	}{
		{follower, wire.CodeReadOnly, follower.cfg.Follow},
		{fenced, wire.CodeFenced, "successor:7070"},
	} {
		sess := &session{srv: c.srv}
		for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
			class := wire.Ops[op].Class
			if class == wire.ClassStream {
				continue // takes the connection over; a follower serves it
			}
			respOp, fields := c.srv.handle(sess, op, nil)
			code := errCode(t, respOp, fields)
			if class != wire.ClassWrite {
				if code == c.want {
					t.Errorf("%s (not a write) refused with %v", wire.OpName(op), code)
				}
				continue
			}
			if code != c.want {
				t.Errorf("%s answered code %v, want %v", wire.OpName(op), code, c.want)
			} else if msg := wire.DecodeError(fields).Error(); !strings.Contains(msg, c.name) {
				t.Errorf("%s refusal %q does not name %s", wire.OpName(op), msg, c.name)
			}
		}
	}
}

// TestRequestClassAdmissionAndTracing: with the in-flight cap reached and
// every request sampled, the monitor rows answer, leave the in-flight
// gauge where it was and record no trace; every other row but the
// stream is shed, and traced but for PING. An opcode without a row is
// refused with CodeUnknownOp and counted as op="unknown".
func TestRequestClassAdmissionAndTracing(t *testing.T) {
	srv, _, addr := serveWB(t, "admit.log", Config{MaxInFlight: 1, TraceSampleRate: 1})
	srv.m.inflight.Add(1)
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		class := wire.Ops[op].Class
		before := len(srv.Traces())
		respOp, fields := roundTrip(t, addr, op)
		shed := errCode(t, respOp, fields) == wire.CodeOverloaded
		traced := len(srv.Traces()) != before
		switch class {
		case wire.ClassMonitor:
			if shed || traced {
				t.Errorf("%s: shed %v, traced %v; a monitor request is neither", wire.OpName(op), shed, traced)
			}
			if op == wire.OpHealth {
				if h, err := wire.DecodeHealth(fields); err != nil || h.InFlight != 1 {
					t.Errorf("HEALTH reports in-flight %d (%v), want 1: it must not count itself", h.InFlight, err)
				}
			}
		case wire.ClassStream:
			if shed || traced {
				t.Errorf("%s: shed %v, traced %v; a stream is neither", wire.OpName(op), shed, traced)
			}
		default:
			if !shed || traced != (op != wire.OpPing) {
				t.Errorf("%s: shed %v, traced %v; want shed, and traced but for PING", wire.OpName(op), shed, traced)
			}
		}
	}
	srv.m.inflight.Add(-1)

	const unknown = `dbpl_server_requests_total{op="unknown"}`
	before, _ := srv.m.reg.Snapshot().Counter(unknown)
	for _, op := range []byte{0, wire.LastRequestOp + 1} {
		if respOp, fields := roundTrip(t, addr, op); errCode(t, respOp, fields) != wire.CodeUnknownOp {
			t.Errorf("opcode %#x answered %s, want code %v", op, wire.OpName(respOp), wire.CodeUnknownOp)
		}
	}
	if after, _ := srv.m.reg.Snapshot().Counter(unknown); after != before+2 {
		t.Errorf("%s = %d after two unknown opcodes, want %d", unknown, after, before+2)
	}
}
