package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/telemetry/trace"
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

// replyServer answers PING with OK and every other request with OK and
// the fields reply returns, echoing the request's trace.
func replyServer(t *testing.T, reply func() [][]byte) string {
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
			var fields [][]byte
			if op != wire.OpPing {
				fields = reply()
			}
			respOp, respFields := wire.AppendTrace(wire.OpOK, trace, fields)
			if err := wire.WriteFrame(conn, 0, respOp, respFields...); err != nil {
				return
			}
		}
	})
}

// telemetryFixtures returns a snapshot and a trace with their JSON, as a
// server sends them.
func telemetryFixtures(t testing.TB) (*telemetry.Snapshot, []byte, Trace, []byte) {
	r := telemetry.NewRegistry()
	r.Counter("c").Add(123456789)
	r.Gauge("g").Set(-42)
	r.Histogram("lat", telemetry.UnitDuration, []int64{10, 100}).Observe(50)
	r.Histogram("plain", telemetry.UnitCount, []int64{1}).Observe(1)
	snap := r.Snapshot()
	tr := trace.New(0xBEEF, "PUT")
	tr.SetLink(0xFEED)
	tr.Start(tr.Start(0, "commit"), "fsync")
	tr.Finish()
	d := tr.Data()
	snapJSON, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	traceJSON, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return snap, snapJSON, d, traceJSON
}

// sameSnapshot reports whether two snapshots hold the same values, with
// TakenAt compared as an instant.
func sameSnapshot(a, b *telemetry.Snapshot) bool {
	if !a.TakenAt.Equal(b.TakenAt) {
		return false
	}
	bb := *b
	bb.TakenAt = a.TakenAt
	return reflect.DeepEqual(a, &bb)
}

// sameTraces reports whether two trace lists hold the same values, with
// each Begin compared as an instant.
func sameTraces(a, b []Trace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		bi := b[i]
		if !a[i].Begin.Equal(bi.Begin) {
			return false
		}
		bi.Begin = a[i].Begin
		if !reflect.DeepEqual(a[i], bi) {
			return false
		}
	}
	return true
}

func isBadFrame(err error) bool {
	var we *wire.WireError
	return errors.As(err, &we) && we.Code == wire.CodeBadFrame
}

// malformedTelemetry lists replies the client must refuse, by opcode:
// what the binary codecs before JSON sent, and JSON that is cut short,
// carries trailing bytes or the wrong types, or whose histograms or span
// trees do not hang together.
func malformedTelemetry(snapJSON, traceJSON []byte) map[byte]map[string][][]byte {
	oldSnapV2 := []byte{'S', 2, 1, 1, 1, 'c', 3, 0, 0}
	oldSnapV1 := []byte{'S', 1, 1, 1, 1, 'c', 3, 0, 0}
	oldTrace := []byte{'T', 1, 1, 0, 3, 'G', 'E', 'T', 2, 0}
	rows := map[byte]map[string][][]byte{wire.OpStats: {}, wire.OpTraces: {}}
	for op, good := range map[byte][]byte{wire.OpStats: snapJSON, wire.OpTraces: traceJSON} {
		rows[op]["empty"] = [][]byte{{}}
		rows[op]["truncated"] = [][]byte{good[:len(good)-1]}
		rows[op]["trailing"] = [][]byte{append(append([]byte{}, good...), 'x')}
		rows[op]["non-JSON"] = [][]byte{[]byte("\x00\xffnot json")}
		rows[op]["binary snapshot v2"] = [][]byte{oldSnapV2}
		rows[op]["binary snapshot v1"] = [][]byte{oldSnapV1}
		rows[op]["binary trace v1"] = [][]byte{oldTrace}
		rows[op]["bad magic"] = [][]byte{{'X', 1}}
	}
	for name, s := range map[string]string{
		"counter cutoff":        `{"counters":[{"name":"a","value":5`,
		"gauge cutoff":          `{"counters":[],"gauges":[{"name":"g"`,
		"histogram cutoff":      `{"histograms":[{"name":"h"`,
		"counter overflow":      `{"counters":[{"name":"c","value":18446744073709551616}]}`,
		"negative counter":      `{"counters":[{"name":"c","value":-1}]}`,
		"counters not a list":   `{"counters":{}}`,
		"bad taken_at":          `{"taken_at":"yesterday"}`,
		"more bounds":           `{"histograms":[{"name":"h","bounds":[1,2,3],"counts":[1]}]}`,
		"more counts":           `{"histograms":[{"name":"h","bounds":[1],"counts":[1,2,3]}]}`,
		"counts without bounds": `{"histograms":[{"name":"h","counts":[]}]}`,
	} {
		rows[wire.OpStats][name] = [][]byte{[]byte(s)}
	}
	rows[wire.OpStats]["two fields"] = [][]byte{snapJSON, snapJSON}
	for name, s := range map[string]string{
		"parent past spans": `{"id":1,"op":"GET","begin":"2026-01-02T03:04:05Z","spans":[{"name":"a","parent":5}]}`,
		"parent below root": `{"id":1,"op":"GET","begin":"2026-01-02T03:04:05Z","spans":[{"name":"a","parent":-2}]}`,
		"parent overflow":   `{"spans":[{"name":"a","parent":4294967296}]}`,
		"bad begin":         `{"begin":"now"}`,
	} {
		rows[wire.OpTraces][name] = [][]byte{[]byte(s)}
	}
	rows[wire.OpTraces]["second trace cut"] = [][]byte{traceJSON, traceJSON[:len(traceJSON)/2]}
	return rows
}

// TestTelemetryReplyDecoding: STATS and TRACES replies decode to the
// snapshot and traces the server encoded, and every malformed reply is
// refused with a CodeBadFrame wire error, never a panic.
func TestTelemetryReplyDecoding(t *testing.T) {
	snap, snapJSON, d, traceJSON := telemetryFixtures(t)
	var mu sync.Mutex
	var fields [][]byte
	addr := replyServer(t, func() [][]byte {
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

	answer([][]byte{snapJSON})
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(snap, got) {
		t.Errorf("Stats() = %+v, want %+v", got, snap)
	}
	if lat, _ := got.Histogram("lat"); lat.Count != 1 || lat.Counts[1] != 1 {
		t.Errorf("lat count %d, buckets %v: want 1, in bucket 1", lat.Count, lat.Counts)
	}
	answer([][]byte{olderStats(t)})
	if got, err = c.Stats(); err != nil {
		t.Fatalf("a reply from an older server: %v", err)
	}
	if lat, _ := got.Histogram("lat"); lat.Count != 1 || lat.Counts[1] != 1 || lat.Sum != 50 {
		t.Errorf("older server's lat count %d, buckets %v, sum %d: want 1, in bucket 1, and 50", lat.Count, lat.Counts, lat.Sum)
	}
	answer([][]byte{traceJSON, traceJSON})
	ds, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if !sameTraces([]Trace{d, d}, ds) {
		t.Errorf("Traces() = %+v, want two of %+v", ds, d)
	}

	verbs := map[byte]func() error{
		wire.OpStats:  func() error { _, err := c.Stats(); return err },
		wire.OpTraces: func() error { _, err := c.Traces(); return err },
	}
	for op, rows := range malformedTelemetry(snapJSON, traceJSON) {
		for name, f := range rows {
			answer(f)
			if err := verbs[op](); !isBadFrame(err) {
				t.Errorf("%s/%s: %v, want a %v wire error", wire.OpName(op), name, err, wire.CodeBadFrame)
			}
		}
	}
}

// olderStats is a STATS reply from an older server, whose histograms
// carried one more key, a trace ID per bucket. It decodes, with the key
// dropped.
func olderStats(t testing.TB) []byte {
	b, err := os.ReadFile(filepath.Join("testdata", "older-stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzTelemetryReply feeds one arbitrary field to the client's STATS and
// TRACES reply decoding. Neither may panic; a refusal is a CodeBadFrame
// wire error, and a snapshot or trace accepted re-marshals to JSON that
// decodes to an equal value. The seeds are a current server's replies,
// an older server's STATS reply and the malformed replies.
func FuzzTelemetryReply(f *testing.F) {
	_, snapJSON, _, traceJSON := telemetryFixtures(f)
	f.Add(snapJSON)
	f.Add(traceJSON)
	f.Add(olderStats(f))
	for _, rows := range malformedTelemetry(snapJSON, traceJSON) {
		for _, fields := range rows {
			f.Add(fields[len(fields)-1])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := decodeStats([][]byte{b}, nil); err != nil {
			if !isBadFrame(err) {
				t.Fatalf("STATS refusal %v is not a %v wire error", err, wire.CodeBadFrame)
			}
		} else {
			again, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("accepted snapshot does not marshal: %v", err)
			}
			s2, err := decodeStats([][]byte{again}, nil)
			if err != nil || !sameSnapshot(s, s2) {
				t.Fatalf("snapshot %+v re-marshalled to %s, decoded to %+v, %v", s, again, s2, err)
			}
		}
		if ds, err := decodeTraces([][]byte{b}, nil); err != nil {
			if !isBadFrame(err) {
				t.Fatalf("TRACES refusal %v is not a %v wire error", err, wire.CodeBadFrame)
			}
		} else {
			again, err := json.Marshal(ds[0])
			if err != nil {
				t.Fatalf("accepted trace does not marshal: %v", err)
			}
			ds2, err := decodeTraces([][]byte{again}, nil)
			if err != nil || !sameTraces(ds, ds2) {
				t.Fatalf("trace %+v re-marshalled to %s, decoded to %+v, %v", ds[0], again, ds2, err)
			}
		}
	})
}
