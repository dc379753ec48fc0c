package server_test

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/codec"
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
