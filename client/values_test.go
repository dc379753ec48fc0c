package client

import (
	"net"
	"sync"
	"testing"

	"dbpl/internal/persist/codec"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// valuesServer answers PING with OK and every other request with a VALUES
// frame of the fields reply returns.
func valuesServer(t *testing.T, reply func() [][]byte) string {
	return fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			rawOp, rawFields, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			op, trace, _, _, err := wire.SplitTrace(rawOp, rawFields)
			if err != nil {
				return
			}
			respOp, fields := wire.OpOK, [][]byte(nil)
			if op != wire.OpPing {
				respOp, fields = wire.OpValues, reply()
			}
			respOp, fields = wire.AppendTrace(respOp, trace, fields)
			if err := wire.WriteFrame(conn, 0, respOp, fields...); err != nil {
				return
			}
		}
	})
}

// TestGetRefusesOldValuesPayload: GET and JOIN decode a reply of the
// layout, each witness type stated once, and refuse with a CodeBadFrame
// wire error the payload replies had before it — one tagged image a
// record, a field each — and a layout cut short or with bytes to spare.
func TestGetRefusesOldValuesPayload(t *testing.T) {
	wit := types.MustParse("{Name: String, Id: Int}")
	recs := []value.Value{
		value.Rec("Name", value.String("a"), "Id", value.Int(1)),
		value.Rec("Name", value.String("b"), "Id", value.Int(2)),
		value.Rec("Name", value.String("c"), "Id", value.Int(3)),
	}
	var w codec.ReplyWriter
	w.Reset(len(recs), 0)
	var old [][]byte
	for _, r := range recs {
		w.Row(r, wit)
		img, err := codec.AppendTagged(nil, r, wit)
		if err != nil {
			t.Fatal(err)
		}
		old = append(old, img)
	}
	good, err := w.Fields()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var fields [][]byte
	addr := valuesServer(t, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return fields
	})
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	answer := func(f [][]byte) {
		mu.Lock()
		fields = f
		mu.Unlock()
	}
	verbs := map[string]func() ([]Packed, error){
		"GET": func() ([]Packed, error) { return c.Get(wit) },
		"JOIN": func() ([]Packed, error) {
			vs, err := c.Join(wit, wit)
			ps := make([]Packed, len(vs))
			for i, v := range vs {
				ps[i].Value = v
			}
			return ps, err
		},
	}
	answer(good)
	for name, verb := range verbs {
		if ps, err := verb(); err != nil || len(ps) != len(recs) || !value.Equal(ps[2].Value, recs[2]) {
			t.Errorf("%s of a good reply = (%v, %v)", name, ps, err)
		}
	}
	for _, m := range []struct {
		name   string
		fields [][]byte
	}{
		{"one tagged image, 1 row", old[:1]},
		{"one tagged image a row, 2 rows", old[:2]},
		{"one tagged image a row, 3 rows", old},
		{"rows cut short", [][]byte{good[0], good[1][:len(good[1])-1]}},
		{"bytes after the rows", [][]byte{good[0], append(append([]byte{}, good[1]...), 0)}},
		{"no rows field", good[:1]},
	} {
		answer(m.fields)
		for name, verb := range verbs {
			if _, err := verb(); !isBadFrame(err) {
				t.Errorf("%s of %s: %v, want a %v wire error", name, m.name, err, wire.CodeBadFrame)
			}
		}
	}
}
