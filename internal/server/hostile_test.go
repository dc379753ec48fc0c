package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"dbpl/client"
	"dbpl/internal/persist/codec"
	"dbpl/internal/server"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// nestDeep repeats the one-level image's nesting bytes until the image is
// about size bytes: img is a header, then nest, then tail, and the result is
// the header, nest n times, then tail.
func nestDeep(img []byte, header, nest int, size int) []byte {
	out := bytes.NewBuffer(make([]byte, 0, size+len(img)))
	out.Write(img[:header])
	level := img[header : header+nest]
	for out.Len() < size {
		out.Write(level)
	}
	out.Write(img[header+nest:])
	return out.Bytes()
}

// TestHostileNestingIsABadRequest: a frame just under MaxFrame that nests a
// type or value one level per byte used to recurse the decoding goroutine
// until its stack overflowed — a fatal error, not a panic the handler's
// recover confines. Each is now a typed bad request, and the server stays
// up to answer HEALTH.
func TestHostileNestingIsABadRequest(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "hostile.log"))
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	size := wire.MaxFrame - 1<<20

	// GET List[List[…Int…]]: the image of List[Int] is a header, the list
	// tag and the Int tag, so its second-to-last byte is the nesting level.
	one, err := wire.MarshalType(types.NewList(types.Int))
	if err != nil {
		t.Fatal(err)
	}
	deepType := nestDeep(one, len(one)-2, 1, size)

	// PUT of list(list(…1…)) at List[Int]: the value's nesting level is its
	// list tag and a count of one, ahead of the element.
	img, err := codec.MarshalTagged(value.NewList(value.Int(1)), types.NewList(types.Int))
	if err != nil {
		t.Fatal(err)
	}
	deepValue := nestDeep(img, len(img)-4, 2, size)

	for _, req := range []struct {
		name   string
		op     byte
		fields [][]byte
	}{
		{"GET", wire.OpGet, [][]byte{deepType}},
		{"PUT", wire.OpPut, [][]byte{[]byte("deep"), deepValue}},
	} {
		if err := wire.WriteFrame(raw, 0, req.op, req.fields...); err != nil {
			t.Fatal(err)
		}
		op, fields, err := wire.ReadFrame(raw, 0)
		if err != nil {
			t.Fatalf("%s: no reply: %v", req.name, err)
		}
		if op != wire.OpError {
			t.Fatalf("%s: op=%#x, want OpError", req.name, op)
		}
		if err := wire.DecodeError(fields); !errors.Is(err, wire.ErrBadRequest) {
			t.Fatalf("%s: %v, want a bad request", req.name, err)
		}
	}
	if _, err := dial(t, h, nil).Health(); err != nil {
		t.Fatalf("HEALTH after hostile frames: %v", err)
	}
}

// TestOversizedReplyIsTypedError: a reply larger than the server's frame
// limit is refused with CodeTooLarge, trace echoed, on a connection that
// keeps serving — and the client gives up after one attempt instead of
// retrying the same GET as a lost connection.
func TestOversizedReplyIsTypedError(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "store.log"), nil, server.Config{MaxFrame: 4096})
	c := dial(t, h, &client.Options{PoolSize: 1})
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("employee-%03d-with-a-name-long-enough-to-add-up", i)
		if err := c.Put(fmt.Sprintf("e%03d", i), emp(name, int64(i), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	smallT := types.MustParse("{Tag: Int}")
	if err := c.Put("small", value.Rec("Tag", value.Int(1)), smallT); err != nil {
		t.Fatal(err)
	}

	const attempts = `dbpl_client_attempts_total{op="GET"}`
	before, _ := c.Telemetry().Snapshot().Counter(attempts)
	if _, err := c.Get(employeeT); !errors.Is(err, client.ErrTooLarge) {
		t.Fatalf("GET of an oversized extent = %v, want ErrTooLarge", err)
	}
	if after, _ := c.Telemetry().Snapshot().Counter(attempts); after-before != 1 {
		t.Fatalf("GET took %d attempts, want 1", after-before)
	}
	if got, err := c.Get(smallT); err != nil || len(got) != 1 {
		t.Fatalf("small GET after the refusal = (%d values, %v)", len(got), err)
	}

	// On the wire: the refusal echoes the trace, and the same connection
	// then answers a small GET.
	raw, err := net.Dial("tcp", h.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	get := func(tp types.Type, trace uint64) (byte, [][]byte) {
		t.Helper()
		tf, err := wire.MarshalType(tp)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendTracedFrame(nil, 0, wire.OpGet, trace, tf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
		rawOp, rawFields, err := wire.ReadFrame(raw, 0)
		if err != nil {
			t.Fatalf("no reply: %v", err)
		}
		op, echoed, fields, traced, err := wire.SplitTrace(rawOp, rawFields)
		if err != nil || !traced || echoed != trace {
			t.Fatalf("reply trace = (%#x, %v, %v), want %#x echoed", echoed, traced, err, trace)
		}
		return op, fields
	}
	if op, fields := get(employeeT, 0xB16); op != wire.OpError || !errors.Is(wire.DecodeError(fields), wire.ErrTooLarge) {
		t.Fatalf("oversized GET answered op %#x (%v), want a CodeTooLarge error", op, wire.DecodeError(fields))
	}
	if op, fields := get(smallT, 0xB17); op != wire.OpValues || len(fields) != 2 {
		t.Fatalf("small GET on the same connection answered op %#x with %d fields", op, len(fields))
	}
}
