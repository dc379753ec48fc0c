package client

import (
	"errors"
	"net"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
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
