package telemetry

import (
	"encoding/json"
	"io"
	"testing"
	"time"
)

// The instruments are on every request path, so their per-update cost is
// the whole argument for always-on telemetry. E15 in EXPERIMENTS.md
// records these alongside the end-to-end server delta.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Add(1)
		g.Add(-1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", UnitDuration, DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A mid-range value: the linear scan pays for about half the
		// bucket list, the common case for request latencies.
		h.ObserveDuration(750 * time.Microsecond)
	}
}

// benchRegistry approximates the serve verb's live registry: the
// per-opcode server series plus the persistence set.
func benchRegistry() *Registry {
	r := NewRegistry()
	for _, op := range []string{"PING", "GET", "PUT", "DELETE", "JOIN",
		"BEGIN", "COMMIT", "ABORT", "NAMES", "HEALTH", "STATS"} {
		r.Counter(`dbpl_server_requests_total{op="` + op + `"}`).Add(1000)
		h := r.Histogram(`dbpl_server_request_seconds{op="`+op+`"}`,
			UnitDuration, DurationBuckets)
		for i := 0; i < 100; i++ {
			h.ObserveDuration(time.Duration(i) * 50 * time.Microsecond)
		}
	}
	r.Counter("dbpl_persist_fsync_total").Add(500)
	r.Histogram("dbpl_persist_fsync_seconds", UnitDuration, DurationBuckets)
	r.Gauge("dbpl_server_inflight").Add(3)
	r.Gauge("dbpl_server_sessions").Add(7)
	return r
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := benchRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Snapshot()
	}
}

func BenchmarkSnapshotMarshalJSON(b *testing.B) {
	snap := benchRegistry().Snapshot()
	buf, err := json.Marshal(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotWriteProm(b *testing.B) {
	snap := benchRegistry().Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := snap.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
