package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("re-registering a counter name returned a different instance")
	}
	g := r.Gauge("g")
	g.Set(7)
	if got := g.Add(-3); got != 4 {
		t.Errorf("Gauge.Add returned %d, want the post-update value 4", got)
	}
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

// TestHistogramZeroObservations: the degenerate histogram must stay fully
// well-defined — zero counts, zero sum, quantiles and mean of 0 — because
// a scrape can land before the first request does.
func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", UnitDuration, DurationBuckets)
	snap := r.Snapshot()
	h, ok := snap.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if h.Count != 0 || h.Sum != 0 {
		t.Errorf("empty histogram count=%d sum=%d, want 0/0", h.Count, h.Sum)
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("Quantile(0.99) of empty histogram = %d, want 0", q)
	}
	if m := h.Mean(); m != 0 {
		t.Errorf("Mean of empty histogram = %v, want 0", m)
	}
	for i, n := range h.Counts {
		if n != 0 {
			t.Errorf("bucket %d = %d, want 0", i, n)
		}
	}
}

// TestHistogramBucketBoundaries: bounds are inclusive upper bounds
// (Prometheus le semantics) — an observation equal to a bound lands in
// that bound's bucket, one past it lands in the next, and one past the
// last bound lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", UnitCount, []int64{10, 20, 30})
	for _, v := range []int64{0, 10, 11, 20, 21, 30, 31, 1 << 40} {
		h.Observe(v)
	}
	hs, _ := r.Snapshot().Histogram("h")
	want := []uint64{2, 2, 2, 2} // {0,10} {11,20} {21,30} {31,2^40}
	for i, n := range hs.Counts {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, n, want[i], hs.Counts)
		}
	}
	if hs.Count != 8 {
		t.Errorf("count = %d, want 8", hs.Count)
	}
	wantSum := int64(0 + 10 + 11 + 20 + 21 + 30 + 31 + 1<<40)
	if hs.Sum != wantSum {
		t.Errorf("sum = %d, want %d (exact)", hs.Sum, wantSum)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", UnitCount, []int64{100, 200})
	for i := 0; i < 100; i++ {
		h.Observe(150) // all in the (100,200] bucket
	}
	hs, _ := r.Snapshot().Histogram("h")
	p50 := hs.Quantile(0.5)
	if p50 <= 100 || p50 > 200 {
		t.Errorf("p50 = %d, want inside the (100,200] bucket", p50)
	}
	// Overflow-only data floors at the last bound.
	h2 := r.Histogram("h2", UnitCount, []int64{10})
	h2.Observe(1000)
	hs2, _ := r.Snapshot().Histogram("h2")
	if q := hs2.Quantile(0.5); q != 10 {
		t.Errorf("overflow-bucket quantile = %d, want the last bound 10", q)
	}
	// With no bounds there is no last bound to floor at, as a STATS reply
	// may say.
	h3 := r.Histogram("h3", UnitCount, nil)
	h3.Observe(1000)
	hs3, _ := r.Snapshot().Histogram("h3")
	if q := hs3.Quantile(0.5); q != 0 {
		t.Errorf("bound-free quantile = %d, want 0", q)
	}
}

// TestHistogramConcurrentObserve: many writers under -race, then the
// totals must balance exactly — Observe may not lose updates.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", UnitCount, SizeBuckets)
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(seed) // constant per goroutine; exact sum is checkable
			}
		}(int64(w + 1))
	}
	wg.Wait()
	hs, _ := r.Snapshot().Histogram("h")
	if hs.Count != writers*per {
		t.Errorf("count = %d, want %d", hs.Count, writers*per)
	}
	wantSum := int64(per * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8))
	if hs.Sum != wantSum {
		t.Errorf("sum = %d, want %d", hs.Sum, wantSum)
	}
}

// TestSnapshotImmutableUnderConcurrentWrites: a snapshot taken while
// writers keep hammering must not change afterwards — its bucket arrays
// are copies, not views.
func TestSnapshotImmutableUnderConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", UnitCount, SizeBuckets)
	c := r.Counter("c")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				h.Observe(3)
				c.Inc()
			}
		}
	}()
	snap := r.Snapshot()
	hs, _ := snap.Histogram("h")
	counts := append([]uint64(nil), hs.Counts...)
	cv, _ := snap.Counter("c")
	time.Sleep(20 * time.Millisecond) // let the writer mutate the registry
	close(stop)
	wg.Wait()
	hs2, _ := snap.Histogram("h")
	for i := range counts {
		if hs2.Counts[i] != counts[i] {
			t.Fatalf("snapshot bucket %d changed after capture: %d -> %d", i, counts[i], hs2.Counts[i])
		}
	}
	if cv2, _ := snap.Counter("c"); cv2 != cv {
		t.Fatalf("snapshot counter changed after capture: %d -> %d", cv, cv2)
	}
	// And the registry itself did move on.
	if now, _ := r.Snapshot().Counter("c"); now <= cv {
		t.Errorf("registry counter did not advance past the snapshot (%d <= %d)", now, cv)
	}
}

func TestGaugeFuncAndSnapshotLookups(t *testing.T) {
	r := NewRegistry()
	v := int64(41)
	r.GaugeFunc("derived", func() int64 { return v })
	v = 42
	snap := r.Snapshot()
	if got, ok := snap.Gauge("derived"); !ok || got != 42 {
		t.Errorf("gauge func = %d,%v, want 42,true (evaluated at snapshot time)", got, ok)
	}
	if _, ok := snap.Gauge("absent"); ok {
		t.Error("lookup of absent gauge reported ok")
	}
	if _, ok := snap.Counter("absent"); ok {
		t.Error("lookup of absent counter reported ok")
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		r.Counter(n)
	}
	snap := r.Snapshot()
	for i := 1; i < len(snap.Counters); i++ {
		if snap.Counters[i-1].Name >= snap.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", snap.Counters[i-1].Name, snap.Counters[i].Name)
		}
	}
}

// TestUnmarshalSnapshotMalformed: hostile and truncated JSON, and
// histograms whose buckets do not hang together, are refused, never
// decoded with defaults or a panic.
func TestUnmarshalSnapshotMalformed(t *testing.T) {
	valid, err := json.Marshal(&Snapshot{TakenAt: time.Unix(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        {'X', 1},
		"bad version":      {'S', 99},
		"truncated":        valid[:len(valid)-1],
		"trailing":         append(append([]byte{}, valid...), 0),
		"counter cutoff":   []byte(`{"counters":[{"name":"a","value":5`),
		"gauge cutoff":     []byte(`{"counters":[],"gauges":[{"name":"g"`),
		"hist cutoff":      []byte(`{"histograms":[{"name":"h"`),
		"hist no bounds":   []byte(`{"histograms":[{"name":"h","counts":[]}]}`),
		"hist big bounds":  []byte(`{"histograms":[{"name":"h","bounds":[1,2,3],"counts":[1]}]}`),
		"hist more counts": []byte(`{"histograms":[{"name":"h","bounds":[1],"counts":[1,2,3]}]}`),
		"null histogram":   []byte(`{"histograms":[null]}`),
	}
	for name, b := range cases {
		if err := json.Unmarshal(b, new(Snapshot)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var s Snapshot
	if err := json.Unmarshal(valid, &s); err != nil {
		t.Fatalf("valid empty snapshot failed to decode: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"histograms":[{"name":"h","bounds":[1],"counts":[2,3]}]}`), &s); err != nil {
		t.Fatal(err)
	}
	if h, _ := s.Histogram("h"); h.Count != 5 {
		t.Errorf("decoded count = %d, want 5 recomputed from the buckets", h.Count)
	}
}

// TestWritePromParses validates the exposition with a miniature parser
// implementing the format rules a real scraper enforces: TYPE lines
// precede their samples, bucket counts are cumulative and end at the
// +Inf == _count invariant, durations render in seconds.
func TestWritePromParses(t *testing.T) {
	r := NewRegistry()
	r.Counter(`req_total{op="GET"}`).Add(3)
	r.Counter(`req_total{op="PUT"}`).Add(2)
	r.Gauge("inflight").Set(7)
	h := r.Histogram("lat_seconds", UnitDuration, []int64{int64(time.Millisecond), int64(time.Second)})
	h.Observe(int64(500 * time.Microsecond))
	h.Observe(int64(2 * time.Second))
	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	typed := map[string]string{}
	samples := map[string]string{}
	var lastBucketCum map[string]string // series base -> last cumulative value seen
	lastBucketCum = map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			t.Fatalf("unexpected comment/blank line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		series, val := line[:sp], line[sp+1:]
		samples[series] = val
		base := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base = series[:i]
		}
		if strings.HasSuffix(base, "_bucket") {
			lastBucketCum[strings.TrimSuffix(base, "_bucket")] = val
		}
		// Every sample's base (or its _bucket/_sum/_count family) must have
		// been typed already.
		family := base
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(base, suffix) && typed[strings.TrimSuffix(base, suffix)] == "histogram" {
				family = strings.TrimSuffix(base, suffix)
			}
		}
		if typed[family] == "" {
			t.Errorf("sample %q appears before its TYPE line", series)
		}
	}
	if typed["req_total"] != "counter" || typed["inflight"] != "gauge" || typed["lat_seconds"] != "histogram" {
		t.Errorf("TYPE lines wrong: %v", typed)
	}
	if samples[`req_total{op="GET"}`] != "3" {
		t.Errorf(`req_total{op="GET"} = %q, want 3`, samples[`req_total{op="GET"}`])
	}
	// The final (+Inf) bucket must equal _count.
	if lastBucketCum["lat_seconds"] != samples["lat_seconds_count"] {
		t.Errorf("+Inf bucket %q != count %q", lastBucketCum["lat_seconds"], samples["lat_seconds_count"])
	}
	if samples["lat_seconds_count"] != "2" {
		t.Errorf("lat_seconds_count = %q, want 2", samples["lat_seconds_count"])
	}
	// Durations render as seconds: the sum is 2.0005, not 2000500000.
	if got := samples["lat_seconds_sum"]; got != "2.0005" {
		t.Errorf("lat_seconds_sum = %q, want 2.0005 (seconds)", got)
	}
	// An le label merged into an existing label set keeps both.
	if !strings.Contains(text, `lat_seconds_bucket{le="0.001"} 1`) {
		t.Errorf("missing cumulative 1ms bucket; got:\n%s", text)
	}
}
