package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/types"
)

// fakeServer accepts one connection and hands it to serve; the wire
// protocol is spoken by hand so the client's transport behavior is tested
// without a real server behind it.
func fakeServer(t testing.TB, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// answerPings responds OK to every frame it reads, forever.
func answerPings(conn net.Conn) {
	defer conn.Close()
	for {
		if _, _, err := wire.ReadFrame(conn, 0); err != nil {
			return
		}
		if err := wire.WriteFrame(conn, 0, wire.OpOK); err != nil {
			return
		}
	}
}

// TestRequestTimeoutKillsConn: a server that swallows requests must not
// wedge the caller — the request fails with ErrDeadline, the connection
// is condemned, and the pool redials transparently on next use.
func TestRequestTimeoutKillsConn(t *testing.T) {
	var responsive atomic.Bool
	responsive.Store(true)
	addr := fakeServer(t, func(conn net.Conn) {
		if responsive.Load() {
			answerPings(conn)
			return
		}
		// Swallow everything, answer nothing.
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, &Options{PoolSize: 1, RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	responsive.Store(false) // the redial after this lands on the black hole
	// Kill the live conn so the next request redials to the black hole.
	c.mu.Lock()
	c.pool[0].fail(errors.New("test: condemned"))
	c.mu.Unlock()

	start := time.Now()
	if err := c.Ping(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Ping against a black hole = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~100ms", elapsed)
	}

	responsive.Store(true)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after redial: %v", err)
	}
}

// TestRequestTimeoutPipelined: goroutines pipelining on one connection
// against a server that stalls some replies each get their own reply or
// ErrDeadline, never another call's reply, and leave no goroutine
// behind. A stall past RequestTimeout fails the connection with
// ErrDeadline for every call queued on it, and the next call redials.
// Run it under -race: the reader sets the head's deadline while callers
// queue theirs and reuse the result channels.
func TestRequestTimeoutPipelined(t *testing.T) {
	const goroutines, calls, timeout = 6, 30, 50 * time.Millisecond
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			rawOp, rawFields, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			op, trace, fields, _, err := wire.SplitTrace(rawOp, rawFields)
			if err != nil {
				return
			}
			// EXPLAIN is answered with its own type image as the text.
			if op == wire.OpExplain && bytes.Contains(fields[0], []byte("stall")) {
				time.Sleep(4 * timeout)
			}
			if op != wire.OpExplain {
				fields = nil
			}
			frame, err := wire.AppendTracedFrame(nil, 0, wire.OpOK, trace, fields...)
			if err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	})
	before := runtime.NumGoroutine()
	c, err := Dial(addr, &Options{PoolSize: 1, RequestTimeout: timeout, RetryPolicy: RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var answered, timedOut atomic.Int64
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				label := fmt.Sprintf("g%d_%d", g, i)
				stall := (g*calls+i)%17 == 0
				if stall {
					label = "stall_" + label
				}
				ty := types.NewRecord(types.Field{Label: label, Type: types.Int})
				want, err := wire.MarshalType(ty)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := c.ExplainGet(ty)
				switch {
				case err == nil && stall:
					t.Errorf("%s: answered %q, want ErrDeadline", label, got)
				case err == nil && got != string(want):
					t.Errorf("%s: answered another call's reply %q", label, got)
				case err == nil:
					answered.Add(1)
				case errors.Is(err, ErrDeadline):
					timedOut.Add(1)
				default:
					t.Errorf("%s: %v, want its reply or ErrDeadline", label, err)
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	t.Logf("%d calls answered, %d timed out", answered.Load(), timedOut.Load())
	if answered.Load() == 0 || timedOut.Load() == 0 {
		t.Errorf("%d calls answered and %d timed out, want some of each", answered.Load(), timedOut.Load())
	}
	// The fake server's handlers finish their stalls and exit once the
	// client has closed their connections.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the client dialed", runtime.NumGoroutine(), before)
		}
	}
}

// TestPoolRedialsDeadSlots: every pooled connection dying (server
// restart) is invisible to callers beyond the failed in-flight requests.
func TestPoolRedialsDeadSlots(t *testing.T) {
	addr := fakeServer(t, answerPings)
	c, err := Dial(addr, &Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ { // touch both slots
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	for _, cn := range c.pool {
		if cn != nil {
			cn.fail(errors.New("test: server restarted"))
		}
	}
	c.mu.Unlock()
	for i := 0; i < 4; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping %d after restart: %v", i, err)
		}
	}
}

// TestUnsolicitedResponseCondemnsConn: a server pushing frames nobody
// asked for is a protocol violation, not a crash.
func TestUnsolicitedResponseCondemnsConn(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		// Answer the Dial-time ping, then inject garbage.
		if _, _, err := wire.ReadFrame(conn, 0); err != nil {
			return
		}
		wire.WriteFrame(conn, 0, wire.OpOK)
		wire.WriteFrame(conn, 0, wire.OpOK) // unsolicited
		// Hold the conn open so the client reader sees the frame.
		time.Sleep(2 * time.Second)
	})
	c, err := Dial(addr, &Options{PoolSize: 1, RequestTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		cn := c.pool[0]
		c.mu.Unlock()
		if cn != nil && cn.isDead() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unsolicited response did not condemn the connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteErrorsKeepTheTaxonomy: an OpError response surfaces as the
// typed wire error, and the connection stays usable (an application
// error is not a transport error).
func TestRemoteErrorsKeepTheTaxonomy(t *testing.T) {
	reqs := 0
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for {
			if _, _, err := wire.ReadFrame(conn, 0); err != nil {
				return
			}
			reqs++
			if reqs == 2 { // the post-Dial request gets the error
				wire.WriteFrame(conn, 0, wire.OpError,
					wire.ErrorFields(&wire.WireError{Code: wire.CodeNoRoot, Msg: "no root \"x\""})...)
				continue
			}
			wire.WriteFrame(conn, 0, wire.OpOK)
		}
	})
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Names(); !errors.Is(err, wire.ErrNoRoot) {
		t.Fatalf("err = %v, want wire.ErrNoRoot", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after an application error: %v", err)
	}
}

// failWriteConn wraps a net.Conn so the one armed write forwards its bytes
// to the peer, then waits for release and reports failure — modeling a
// write error on a frame the server nevertheless received and answered.
type failWriteConn struct {
	net.Conn
	arm     atomic.Bool
	wrote   chan struct{}
	release chan struct{}
}

func (f *failWriteConn) Write(p []byte) (int, error) {
	if !f.arm.Load() {
		return f.Conn.Write(p)
	}
	f.arm.Store(false)
	if _, err := f.Conn.Write(p); err != nil {
		return 0, err
	}
	close(f.wrote)
	<-f.release
	return 0, errors.New("test: injected write failure")
}

// TestWriteFailureKeepsWonResponse: when a request's response wins the
// race with the write error's fail delivery, roundTrip must return that
// successful response — not op 0 with a nil error, which callers would
// report as a bogus "unexpected response opcode 0x0".
func TestWriteFailureKeepsWonResponse(t *testing.T) {
	addr := fakeServer(t, answerPings)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := &failWriteConn{Conn: nc, wrote: make(chan struct{}), release: make(chan struct{})}
	cn := &conn{nc: fw, maxFrame: wire.MaxFrame}
	go cn.readLoop()

	fw.arm.Store(true)
	type res struct {
		op  byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		op, _, err := cn.roundTrip(5*time.Second, wire.OpPing)
		done <- res{op, err}
	}()

	<-fw.wrote
	// The slot was enqueued before the write, so pending draining to zero
	// means the reader has matched the response to our request. Only then
	// let the write failure land: the drained result is the won response.
	deadline := time.Now().Add(2 * time.Second)
	for {
		cn.mu.Lock()
		n := cn.n
		cn.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reader never delivered the response")
		}
		time.Sleep(time.Millisecond)
	}
	close(fw.release)
	r := <-done
	if r.err != nil || r.op != wire.OpOK {
		t.Fatalf("roundTrip = op %#x, err %v; want the won OpOK response", r.op, r.err)
	}
	if !cn.isDead() {
		t.Error("connection must still be condemned after the write failure")
	}
}

// TestClosedConnReportsItsCause: a connection the client closes on purpose
// — a finished Session's (ErrDone) or a closed client's (ErrClosed) —
// answers the request it had in flight, and every later one, with that
// cause and never ErrConnLost, although its reader sees the close as a
// failed read: the reader returns as soon as it finds the connection
// failed, without wrapping the read error it will not deliver.
func TestClosedConnReportsItsCause(t *testing.T) {
	swallowed := make(chan struct{}, 1)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		for { // read every request and answer none
			if _, _, err := wire.ReadFrame(conn, 0); err != nil {
				return
			}
			swallowed <- struct{}{}
		}
	})
	for _, cause := range []error{ErrDone, ErrClosed} {
		cn, err := dialConn(addr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		inflight := make(chan error, 1)
		go func() {
			_, _, err := cn.roundTrip(0, wire.OpPing)
			inflight <- err
		}()
		<-swallowed // the request reached the server, which keeps it
		cn.fail(cause)
		for i, err := range []error{<-inflight, func() error { _, _, err := cn.roundTrip(0, wire.OpPing); return err }()} {
			if !errors.Is(err, cause) || errors.Is(err, ErrConnLost) {
				t.Errorf("request %d on a connection failed with %v: %v, want %v and not %v", i, cause, err, cause, ErrConnLost)
			}
		}
	}
}

// TestEndedSessionConnIsReused: a session that ends with an OK answer gives
// its connection to the next Begin, which dials nothing; the client keeps
// at most PoolSize of them; and a kept connection the server has closed
// fails only a BEGIN attempt, which the retry answers with a fresh dial.
func TestEndedSessionConnIsReused(t *testing.T) {
	var mu sync.Mutex
	var conns []net.Conn
	addr := fakeServer(t, func(conn net.Conn) {
		mu.Lock()
		conns = append(conns, conn)
		mu.Unlock()
		answerPings(conn)
	})
	accepted := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
	c, err := Dial(addr, &Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	txn := func() *Session {
		t.Helper()
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := txn().Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn().Abort(); err != nil {
		t.Fatal(err)
	}
	if got := accepted(); got != 2 {
		t.Fatalf("the pool and two transactions in turn made %d connections, want 2", got)
	}
	a, b := txn(), txn() // the second dials: the first holds the kept one
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	kept := len(c.idle)
	c.mu.Unlock()
	if got := accepted(); got != 3 || kept != 1 {
		t.Fatalf("two open transactions: %d connections made, %d kept; want 3 and PoolSize 1", got, kept)
	}
	mu.Lock()
	for _, conn := range conns[1:] {
		conn.Close()
	}
	mu.Unlock()
	if err := txn().Commit(); err != nil {
		t.Fatalf("a transaction after the server closed the kept connection: %v", err)
	}
	if got := accepted(); got != 4 {
		t.Fatalf("%d connections made, want 4: one fresh dial after the closed one", got)
	}
}
