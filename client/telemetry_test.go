package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestClientMetricsCountAttemptsAndRetries: the client's own registry
// reflects what the retry machinery did — one attempt per wire frame
// (retries included), retries classified by cause, and the backoff sleep
// accumulated.
func TestClientMetricsCountAttemptsAndRetries(t *testing.T) {
	srv := &shedServer{sheds: 2, hint: 5 * time.Millisecond}
	addr := fakeServer(t, srv.serve)
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("k", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}

	snap := c.Telemetry().Snapshot()
	if got, _ := snap.Counter(`dbpl_client_attempts_total{op="PUT"}`); got != 3 {
		t.Errorf("PUT attempts = %d, want 3 (2 sheds + success)", got)
	}
	if got, _ := snap.Counter(`dbpl_client_attempts_total{op="PING"}`); got != 1 {
		t.Errorf("PING attempts = %d, want 1 (Dial's liveness check)", got)
	}
	if got, _ := snap.Counter(`dbpl_client_retries_total{cause="overloaded"}`); got != 2 {
		t.Errorf("overloaded retries = %d, want 2", got)
	}
	if got, _ := snap.Counter("dbpl_client_backoff_ns_total"); got < uint64(2*srv.hint) {
		t.Errorf("backoff total = %dns, want >= %v (the hint twice)", got, 2*srv.hint)
	}
}

// TestTraceMismatchCondemnsConn: a response echoing the WRONG trace ID
// means the FIFO pipeline has desynchronized — the only safe move is to
// fail the connection. The failure must classify as ErrConnLost so the
// retry wrapper redials rather than surfacing a confusing frame error.
func TestTraceMismatchCondemnsConn(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			rawOp, rawFields, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			op, trace, _, traced, err := wire.SplitTrace(rawOp, rawFields)
			if err != nil {
				return
			}
			if op == wire.OpPing || !traced {
				// Dial must succeed; untraced echoes are tolerated anyway.
				err = wire.WriteFrame(conn, 0, wire.OpOK)
			} else {
				respOp, respFields := wire.AppendTrace(wire.OpOK, trace+1, nil)
				err = wire.WriteFrame(conn, 0, respOp, respFields...)
			}
			if err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, &Options{PoolSize: 1, RetryPolicy: RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Put("k", value.Int(1), nil)
	if !errors.Is(err, ErrConnLost) {
		t.Fatalf("Put against a trace-corrupting server = %v, want ErrConnLost", err)
	}
	if got, _ := c.Telemetry().Snapshot().Counter(`dbpl_client_retries_total{cause="conn_lost"}`); got != 2 {
		t.Errorf("conn_lost retries = %d, want 2 (MaxAttempts-1)", got)
	}
}

// TestAttemptSeriesCoverEveryRequestOpcode: each request opcode is counted
// under its own op label, none under op="other".
func TestAttemptSeriesCoverEveryRequestOpcode(t *testing.T) {
	m := newClientMetrics(telemetry.NewRegistry())
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		m.attempt(op)
		name := `dbpl_client_attempts_total{op="` + wire.OpName(op) + `"}`
		if got, _ := m.reg.Snapshot().Counter(name); got != 1 {
			t.Errorf("%s = %d after one %s attempt, want 1", name, got, wire.OpName(op))
		}
	}
	if got, _ := m.reg.Snapshot().Counter(`dbpl_client_attempts_total{op="other"}`); got != 0 {
		t.Errorf(`op="other" counted %d request opcodes, want 0`, got)
	}
}

// tableServer answers every request with its wire.Ops reply opcode and no
// fields, echoing the trace, and records the opcodes it was sent.
type tableServer struct {
	mu  sync.Mutex
	ops []byte
}

func (s *tableServer) serve(conn net.Conn) {
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
		s.mu.Lock()
		s.ops = append(s.ops, op)
		s.mu.Unlock()
		respOp, respFields := wire.AppendTrace(wire.Lookup(op).Reply, trace, nil)
		if err := wire.WriteFrame(conn, 0, respOp, respFields...); err != nil {
			return
		}
	}
}

func (s *tableServer) sent() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.ops...)
}

// TestSessionFramesCountAsAttempts: a session's frames are wire frames
// sent like any other, so BEGIN, three session PUTs, a session GET and
// COMMIT count one attempt each under their own opcodes.
func TestSessionFramesCountAsAttempts(t *testing.T) {
	c, err := Dial(fakeServer(t, (&tableServer{}).serve), &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put("k", value.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get(types.MustParse("{A: Int}")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := c.Telemetry().Snapshot()
	for op, want := range map[string]uint64{"BEGIN": 1, "PUT": 3, "GET": 1, "COMMIT": 1} {
		name := `dbpl_client_attempts_total{op="` + op + `"}`
		if got, _ := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestEveryOpcodeHasAClientVerb: every wire.Ops row but REPLICATE, which
// only a follower sends, has a client verb, and the verb sends that
// opcode. The fake answers without the reply's fields, so verbs that
// decode them fail after sending; only what was sent is checked.
func TestEveryOpcodeHasAClientVerb(t *testing.T) {
	srv := &tableServer{}
	c, err := Dial(fakeServer(t, srv.serve), &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := types.MustParse("{A: Int}")
	inSession := func(end func(*Session) error) func() error {
		return func() error {
			s, err := c.Begin()
			if err != nil {
				return err
			}
			return end(s)
		}
	}
	verbs := map[byte]func() error{
		wire.OpPing:        c.Ping,
		wire.OpGet:         func() error { _, err := c.Get(rec); return err },
		wire.OpPut:         func() error { return c.Put("a", value.Int(1), nil) },
		wire.OpDelete:      func() error { _, err := c.Delete("a"); return err },
		wire.OpJoin:        func() error { _, err := c.Join(rec, rec); return err },
		wire.OpBegin:       inSession((*Session).Close),
		wire.OpCommit:      inSession((*Session).Commit),
		wire.OpAbort:       inSession((*Session).Abort),
		wire.OpNames:       func() error { _, err := c.Names(); return err },
		wire.OpHealth:      func() error { _, err := c.Health(); return err },
		wire.OpStats:       func() error { _, err := c.Stats(); return err },
		wire.OpCreateIndex: func() error { _, err := c.CreateIndex("A"); return err },
		wire.OpDropIndex:   func() error { _, err := c.DropIndex("A"); return err },
		wire.OpExplain:     func() error { _, err := c.ExplainGet(rec); return err },
		wire.OpPromote:     func() error { _, err := c.Promote(); return err },
		wire.OpTraces:      func() error { _, err := c.Traces(); return err },
	}
	for op := wire.OpPing; op <= wire.LastRequestOp; op++ {
		name := wire.Ops[op].Name
		verb, ok := verbs[op]
		switch {
		case op == wire.OpReplicate:
			if ok {
				t.Errorf("%s has a client verb; only a follower sends it", name)
			}
			continue
		case !ok:
			t.Errorf("%s has no client verb", name)
			continue
		}
		before := len(srv.sent())
		verb()
		if sent := srv.sent()[before:]; !bytes.Contains(sent, []byte{op}) {
			t.Errorf("%s's verb sent %v, not %#x", name, sent, op)
		}
	}
}
