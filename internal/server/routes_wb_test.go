// White-box tests of the request table: every request opcode has a row,
// and the row's class alone decides the drain check, the role gate,
// admission and head sampling.
package server

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"

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

// roundTrip sends op with no fields on a fresh connection and reads the
// first frame of the answer.
func roundTrip(t *testing.T, addr string, op byte) (byte, [][]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, 0, op); err != nil {
		t.Fatal(err)
	}
	respOp, fields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatalf("%s: %v", wire.OpName(op), err)
	}
	return respOp, fields
}

// TestRequestTableCoversEveryOpcode: every request opcode has a row, of
// the class the "Request classes" table in docs/SERVER.md gives it.
func TestRequestTableCoversEveryOpcode(t *testing.T) {
	want := map[opClass][]byte{
		classMonitor: {wire.OpHealth, wire.OpStats, wire.OpTraces},
		classRead:    {wire.OpGet, wire.OpJoin, wire.OpAbort, wire.OpNames, wire.OpExplain},
		classWrite: {wire.OpPut, wire.OpDelete, wire.OpBegin, wire.OpCommit,
			wire.OpCreateIndex, wire.OpDropIndex},
		classAdmin:  {wire.OpPing, wire.OpPromote},
		classStream: {wire.OpReplicate},
	}
	n := 0
	for class, ops := range want {
		for _, op := range ops {
			n++
			if got := lookup(op).class; got != class {
				t.Errorf("%s has class %d, want %d", wire.OpName(op), got, class)
			}
		}
	}
	if n != int(wire.LastRequestOp) {
		t.Errorf("the expected classes cover %d opcodes, want all %d", n, wire.LastRequestOp)
	}
}

// TestRequestClassDrain: on a draining server the monitor rows answer and
// every other row is refused with CodeShutdown — the stream row after the
// opening heartbeat that carries the server's epoch.
func TestRequestClassDrain(t *testing.T) {
	srv, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "drain.log"), Config{})
	srv.draining.Store(true)
	sess := &session{srv: srv}
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		r := lookup(op)
		var respOp byte
		var fields [][]byte
		if r.class == classStream {
			server, client := net.Pipe()
			go func() {
				defer server.Close()
				r.stream(srv, server, wire.ReplicateFields(0, 0))
			}()
			for respOp == 0 || respOp == wire.OpRepHeartbeat {
				var err error
				if respOp, fields, err = wire.ReadFrame(client, 0); err != nil {
					t.Fatalf("%s: %v", wire.OpName(op), err)
				}
			}
			client.Close()
		} else {
			respOp, fields = srv.handle(sess, r, op, nil)
		}
		code := errCode(t, respOp, fields)
		if r.class == classMonitor && respOp != wire.OpOK {
			t.Errorf("%s on a draining server answered %s (code %v), want OK", wire.OpName(op), wire.OpName(respOp), code)
		}
		if r.class != classMonitor && code != wire.CodeShutdown {
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
			r := lookup(op)
			if r.class == classStream {
				continue // takes the connection over; a follower serves it
			}
			respOp, fields := c.srv.handle(sess, r, op, nil)
			code := errCode(t, respOp, fields)
			if r.class != classWrite {
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
// stream is shed and traced. An opcode without a row is refused with
// CodeUnknownOp and counted as op="unknown".
func TestRequestClassAdmissionAndTracing(t *testing.T) {
	srv, _, addr := serveWB(t, "admit.log", Config{MaxInFlight: 1, TraceSampleRate: 1})
	srv.m.inflight.Add(1)
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		r := lookup(op)
		before := srv.traces.Total()
		respOp, fields := roundTrip(t, addr, op)
		shed := errCode(t, respOp, fields) == wire.CodeOverloaded
		traced := srv.traces.Total() != before
		switch r.class {
		case classMonitor:
			if shed || traced {
				t.Errorf("%s: shed %v, traced %v; a monitor request is neither", wire.OpName(op), shed, traced)
			}
			if op == wire.OpHealth {
				if h, err := wire.DecodeHealth(fields); err != nil || h.InFlight != 1 {
					t.Errorf("HEALTH reports in-flight %d (%v), want 1: it must not count itself", h.InFlight, err)
				}
			}
		case classStream:
			if shed || traced {
				t.Errorf("%s: shed %v, traced %v; a stream is neither", wire.OpName(op), shed, traced)
			}
		default:
			if !shed || !traced {
				t.Errorf("%s: shed %v, traced %v; want both", wire.OpName(op), shed, traced)
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
