package client

import (
	"fmt"
	"testing"

	"dbpl/internal/persist/codec"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// BenchmarkPing measures the full client round trip, -benchmem being the
// point: stamping a trace ID onto a request costs no allocation (the E15
// addendum in EXPERIMENTS.md). The frame is encoded into the connection's
// reused buffer; AppendTracedFrame splices the trace field in place
// instead of building a fresh field slice. TestPingAllocs pins what it
// reads.
func BenchmarkPing(b *testing.B) {
	addr := fakeServer(b, answerPings)
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPingAllocs: a warm Ping costs at most 6 allocations in the whole
// process, and one of them is the client's: its copy of the reply frame.
// The client encodes the request into its connection's buffer, waits on
// a reused channel in a reused ring slot, and times the request by its
// reader's read deadline, not a timer. answerPings makes 4: it reads
// each request into a fresh header, payload and field slice, and encodes
// each reply into a fresh buffer. It measures 5 with Go 1.24 on
// linux/amd64, 6 under -race; the bound is -race's.
func TestPingAllocs(t *testing.T) {
	const maxAllocs = 6
	addr := fakeServer(t, answerPings)
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ping := func() {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	ping()
	allocs := testing.AllocsPerRun(200, ping)
	t.Logf("a warm Ping: %.2f allocations process-wide", allocs)
	if allocs > maxAllocs {
		t.Errorf("a warm Ping costs %.2f allocations process-wide, want <= %d", allocs, maxAllocs)
	}
}

// TestTracedStampWriteSideAllocs pins the write-side cost of trace
// stamping: encoding a traced frame into a reused buffer allocates
// nothing, for a request shape the client actually sends (a GET).
func TestTracedStampWriteSideAllocs(t *testing.T) {
	buf := make([]byte, 0, 256)
	name := []byte("account")
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = wire.AppendTracedFrame(buf[:0], 0, wire.OpGet, nextTrace(), name)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("traced frame encode allocates %v times per request, want 0", n)
	}
}

// TestDecodeGetAllocs: a VALUES reply of 512 records in 4 interleaved
// witness types decodes each record at the canonical type a one-shot
// DecodeTagged gives — its own types.Intern handle — at no more than 0.1
// allocations a record. The reply states each type once, cuts its records,
// value slices and boxed atoms from slabs, reads each record of exactly its
// witness's labels with the record program of the witness's type image,
// and slices its string atoms from the rows field, so what is left is the
// slabs and the answer. It measures 0.02 with Go 1.24 on linux/amd64. When
// every record has a field more than its witness, each row misses its
// program and the generic decoder reads it, giving the records of one
// label set their interned value.Shape without a label string; the reply
// backs that decoder's scratch, so this too costs at most 0.02.
func TestDecodeGetAllocs(t *testing.T) {
	const n, witnesses = 512, 4
	for _, c := range []struct {
		name         string
		extra        bool // each record has a field its witness lacks
		maxPerRecord float64
	}{{"at their witnesses", false, 0.1}, {"a field more than their witnesses", true, 0.02}} {
		recs := make([]value.Value, n)
		want := make([]types.Type, n)
		var w codec.ReplyWriter
		w.Reset(n, 0)
		for i := range recs {
			r := value.Rec("Id", value.Int(int64(4711+i)), "Name", value.String(fmt.Sprintf("name-%07d", i)),
				fmt.Sprintf("A%d", i%witnesses), value.Int(1<<24+int64(i)), "A2", value.Float(0.625))
			wit := value.TypeOf(r)
			if c.extra {
				r.Set("Z", value.Int(int64(i)))
			}
			recs[i] = r
			img, err := codec.AppendTagged(nil, r, wit)
			if err != nil {
				t.Fatal(err)
			}
			if _, want[i], err = codec.DecodeTagged(img); err != nil {
				t.Fatal(err)
			}
			w.Row(r, wit)
		}
		fields, err := w.Fields()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := decodeGet(fields, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != n {
			t.Fatalf("%s: decoded %d records, want %d", c.name, len(ps), n)
		}
		for i, p := range ps {
			if p.Witness != want[i] || types.Intern(p.Witness) != types.Intern(want[i]) {
				t.Fatalf("%s: record %d decoded at %s, not the one-shot decode's canonical %s", c.name, i, p.Witness, want[i])
			}
			if !value.Equal(p.Value, recs[i]) {
				t.Fatalf("%s: record %d decoded to %v, want %v", c.name, i, p.Value, recs[i])
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodeGet(fields, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: decoding a %d-record reply: %.2f allocs a record", c.name, n, allocs/n)
		if perRecord := allocs / n; perRecord > c.maxPerRecord {
			t.Errorf("%s: decoding a %d-record reply costs %.2f allocs a record, want <= %g", c.name, n, perRecord, c.maxPerRecord)
		}
	}
}
