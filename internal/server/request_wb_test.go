// White-box tests of how a session reads its requests: into buffers it
// reuses from one request to the next, so no handler may keep a
// request's bytes, and a stream request with bytes behind it is refused.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/codec"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestRequestBytesNotKept: one connection sends BEGIN, 8 PUTs, COMMIT and
// 16 autocommitted PUTs back to back in one write, every PUT frame of one
// length and each value's string its own, so each request is read over
// the last in the session's buffers. Every root then reads back as it
// was sent: neither a buffered write nor a committed one kept a byte of
// its request.
func TestRequestBytesNotKept(t *testing.T) {
	_, _, addr := serveWB(t, "notkept.log", Config{})
	decl := types.MustParse("{Id: Int, Name: String}")
	sent := map[int64]value.Value{}
	var req []byte
	frame := func(op byte, fields ...[]byte) {
		var err error
		if req, err = wire.AppendFrame(req, 0, op, fields...); err != nil {
			t.Fatal(err)
		}
	}
	put := func(i int) {
		v := value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("name-%02d-%s", i, strings.Repeat(string(rune('a'+i)), 8))))
		img, err := codec.MarshalTagged(v, decl)
		if err != nil {
			t.Fatal(err)
		}
		sent[int64(i)] = v
		frame(wire.OpPut, []byte(fmt.Sprintf("r%02d", i)), img)
	}
	frame(wire.OpBegin)
	for i := range 8 {
		put(i)
	}
	frame(wire.OpCommit)
	for i := 8; i < 24; i++ {
		put(i)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	for i := range 1 + len(sent) + 1 {
		op, fields, err := wire.ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if op != wire.OpOK {
			t.Fatalf("reply %d: %s %v, want OK", i, wire.OpName(op), wire.DecodeError(fields))
		}
	}

	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps, err := c.Get(decl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(sent) {
		t.Fatalf("GET returned %d roots, want %d", len(ps), len(sent))
	}
	for _, p := range ps {
		id, _ := p.Value.(*value.Record).Get("Id")
		if want := sent[int64(id.(value.Int))]; !value.Equal(p.Value, want) {
			t.Errorf("root %v reads back as %v, want %v", id, p.Value, want)
		}
	}
}

// TestReplicateWithBytesBehindIsRefused: REPLICATE takes the connection
// over, so a REPLICATE whose connection has sent more behind it is refused
// with a typed bad-frame error, and the connection closed, instead of the
// bytes the session has read past it going unread.
func TestReplicateWithBytesBehindIsRefused(t *testing.T) {
	_, _, addr := serveWB(t, "replbehind.log", Config{})
	req, err := wire.AppendFrame(nil, 0, wire.OpReplicate, wire.ReplicateFields(0, 0, 50*time.Millisecond)...)
	if err != nil {
		t.Fatal(err)
	}
	if req, err = wire.AppendFrame(req, 0, wire.OpPing); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, fields, err := wire.ReadFrame(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	var we *wire.WireError
	if err := wire.DecodeError(fields); op != wire.OpError || !errors.As(err, &we) || we.Code != wire.CodeBadFrame {
		t.Fatalf("REPLICATE with a PING behind it answered %s %v, want a bad-frame error", wire.OpName(op), err)
	}
	if _, _, err := wire.ReadFrame(conn, 0); err != io.EOF {
		t.Fatalf("after the refusal the connection read %v, want EOF", err)
	}
}
