// White-box tests of the telemetry replies: STATS and TRACES carry the
// server's own snapshot and traces, and a full trace ring is one frame.
package server

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// sameTraces reports whether two trace lists hold the same values, with
// each Begin compared as an instant.
func sameTraces(a, b []rtrace.Data) bool {
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

// TestTelemetryRepliesMatchServer: after traffic, a client's Stats() holds
// the server's own registry snapshot — every counter, gauge and
// histogram's unit, bounds, counts, count and sum — and its
// Traces() the server's own ring. Only the series the STATS request
// itself moves (its own request counter and latency, and the uptime
// gauge) may differ from a snapshot taken after it.
func TestTelemetryRepliesMatchServer(t *testing.T) {
	srv, _, addr := serveWB(t, "telemetry.log", Config{TraceSampleRate: 1})
	reg := srv.m.reg
	reg.Counter("test_big_total").Add(123456789)
	reg.Gauge("test_negative").Set(-42)
	h := reg.Histogram("test_seconds", telemetry.UnitDuration, []int64{100, 2000})
	h.Observe(50)
	h.Observe(1500)
	h.Observe(999999)
	reg.Histogram("test_plain", telemetry.UnitCount, []int64{1}).Observe(1)

	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	personT := types.MustParse("{Name: String}")
	if err := c.Put("alice", value.Rec("Name", value.String("Alice")), personT); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(personT); err != nil {
		t.Fatal(err)
	}

	before := time.Now()
	got, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := reg.Snapshot()
	if got.TakenAt.Before(before) || got.TakenAt.After(want.TakenAt) {
		t.Errorf("TakenAt %v outside the STATS call [%v, %v]", got.TakenAt, before, want.TakenAt)
	}
	moved := func(name string) bool {
		return strings.Contains(name, `op="STATS"`) || name == "dbpl_server_uptime_ns"
	}
	for _, cw := range want.Counters {
		if v, ok := got.Counter(cw.Name); !moved(cw.Name) && (!ok || v != cw.Value) {
			t.Errorf("counter %s = %d (present %v), want %d", cw.Name, v, ok, cw.Value)
		}
	}
	for _, gw := range want.Gauges {
		if v, ok := got.Gauge(gw.Name); !moved(gw.Name) && (!ok || v != gw.Value) {
			t.Errorf("gauge %s = %d (present %v), want %d", gw.Name, v, ok, gw.Value)
		}
	}
	for _, hw := range want.Histograms {
		if hg, ok := got.Histogram(hw.Name); !moved(hw.Name) && !reflect.DeepEqual(hg, hw) {
			t.Errorf("histogram %s = %+v (present %v), want %+v", hw.Name, hg, ok, hw)
		}
	}
	if len(got.Counters) != len(want.Counters) || len(got.Gauges) != len(want.Gauges) ||
		len(got.Histograms) != len(want.Histograms) {
		t.Errorf("Stats() has %d counters, %d gauges, %d histograms; the registry %d, %d, %d",
			len(got.Counters), len(got.Gauges), len(got.Histograms),
			len(want.Counters), len(want.Gauges), len(want.Histograms))
	}
	if hs, _ := got.Histogram("test_seconds"); hs.Count != 3 || hs.Counts[1] != 1 {
		t.Errorf("test_seconds count %d, buckets %v: want 3, and one in bucket 1", hs.Count, hs.Counts)
	}

	ds, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 || !sameTraces(ds, srv.Traces()) {
		t.Errorf("Traces() = %+v, want the server's %+v", ds, srv.Traces())
	}
}

// TestFullTraceRingOneFrame: a full default ring — 256 traces of 64 spans
// each — is answered by one TRACES frame, and decodes to the ring.
func TestFullTraceRingOneFrame(t *testing.T) {
	const traces, spans = 256, 64
	srv, _, addr := serveWB(t, "ring.log", Config{TraceSampleRate: 1})
	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	begin := time.Now()
	for i := 0; i < traces; i++ {
		d := rtrace.Data{ID: uint64(i + 1), Op: "PUT", Begin: begin.Add(time.Duration(i)), Link: uint64(i % 2)}
		for j := 0; j < spans; j++ {
			d.Spans = append(d.Spans, rtrace.Span{Name: fmt.Sprintf("span-%02d", j), Parent: rtrace.SpanID(j - 1),
				Start: time.Duration(j) * time.Microsecond, Dur: time.Duration(spans-j) * time.Microsecond})
		}
		srv.traces.Record(d, false)
	}
	ds, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != traces || !sameTraces(ds, srv.Traces()) {
		t.Fatalf("Traces() returned %d traces, want the server's %d", len(ds), traces)
	}
	_, fields := srv.handleTraces(nil, nil)
	n := 0
	for _, f := range fields {
		n += len(f)
	}
	t.Logf("%d traces of %d spans: %d B of TRACES fields", traces, spans, n)
}

// TestDialsLeaveNoPingTrace: on a server tracing every request, two
// dials — each of which sends a PING — followed by TRACES leave no PING
// trace in the ring, and a GET is still traced.
func TestDialsLeaveNoPingTrace(t *testing.T) {
	_, _, addr := serveWB(t, "ping.log", Config{TraceSampleRate: 1})
	var cs []*client.Client
	for range 2 {
		c, err := client.Dial(addr, &client.Options{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs = append(cs, c)
	}
	ds, err := cs[1].Traces()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Op == "PING" {
			t.Errorf("a dial's PING is traced: %+v", d)
		}
	}
	if _, err := cs[0].Get(types.MustParse("{Name: String}")); err != nil {
		t.Fatal(err)
	}
	if ds, err = cs[1].Traces(); err != nil {
		t.Fatal(err)
	}
	ops := make([]string, len(ds))
	for i, d := range ds {
		ops[i] = d.Op
	}
	if !slices.Equal(ops, []string{"GET"}) {
		t.Errorf("the ring holds traces of %v, want one GET", ops)
	}
}
