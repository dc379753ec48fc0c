package client

import (
	"testing"

	"dbpl/internal/server/wire"
)

// BenchmarkPing measures the full client round trip, -benchmem being the
// point: stamping a trace ID onto a request costs no allocation (the E15
// addendum in EXPERIMENTS.md). The frame is encoded into the connection's
// reused buffer; AppendTracedFrame splices the trace field in place
// instead of building a fresh field slice.
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
