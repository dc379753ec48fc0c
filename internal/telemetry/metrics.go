// Package telemetry is the zero-dependency observability layer beneath
// the served database: a metrics registry (atomic counters, gauges and
// fixed-bucket histograms), an instrumented file system for the
// persistence seam, and a hand-rolled Prometheus text exposition. Slow
// requests are recorded in the span tracer's ring (subpackage trace). A Snapshot's wire form, the STATS reply,
// is its encoding/json output through the struct tags below.
//
// "Orthogonal Persistence Revisited" (PAPERS.md) stresses that
// persistent systems live or die by their operational behaviour, not
// just their semantics; this package makes that behaviour observable
// without adding a dependency or a lock to any hot path. Design rules,
// enforced by the benchmarks in bench_test.go:
//
//   - Updating a metric is one or two uncontended atomic operations and
//     never allocates. Hot paths hold *Counter/*Gauge/*Histogram
//     pointers obtained once at construction; the registry's maps are
//     touched only at registration and snapshot time.
//   - Reads are race-free by construction: Snapshot() deep-copies every
//     value into an immutable Snapshot, so a scraper can never observe
//     a histogram mid-update or tear a multi-field report. All derived
//     views (the STATS JSON, the Prometheus text, the health report)
//     are computed from one Snapshot.
//   - Histograms have fixed, immutable bucket bounds and an exact sum:
//     quantiles are estimates (linear interpolation inside a bucket) but
//     totals and averages are not.
//
// Metric names follow the Prometheus convention, with an optional
// brace-delimited label set baked into the registered name — e.g.
// "dbpl_server_requests_total{op=\"GET\"}" is one series; the registry
// itself is label-agnostic.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta and returns the new value (so a gauge can double as an
// admission-control counter: the caller learns atomically whether it
// crossed a cap).
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Unit says how a histogram's observations should be rendered.
type Unit byte

const (
	// UnitCount: dimensionless observations (e.g. commit-group sizes).
	UnitCount Unit = iota
	// UnitDuration: observations are nanoseconds; expositions render
	// them as seconds.
	UnitDuration
)

// Histogram is a fixed-bucket histogram with an exact sum. Bounds are
// ascending inclusive upper bounds; one implicit overflow bucket catches
// everything past the last bound. Observe is lock-free and
// allocation-free.
type Histogram struct {
	unit   Unit
	bounds []int64 // immutable after construction
	counts []atomic.Uint64
	sum    atomic.Int64
}

func newHistogram(unit Unit, bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{unit: unit, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation. An observation lands in the first
// bucket whose bound is >= v (Prometheus "le" semantics); past the last
// bound it lands in the overflow bucket.
func (h *Histogram) Observe(v int64) {
	idx := len(h.bounds)
	// Linear scan: bucket counts are small (~20) and the loop is
	// branch-predictable; a binary search costs more in practice.
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration observation (for UnitDuration
// histograms: the duration in nanoseconds).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Stat returns the observation count and exact sum without the deep copy
// a Snapshot performs — cheap enough to call on every request. The two
// loads are not mutually atomic; under concurrent Observes the pair is
// approximate, which is fine for its consumer (the cost model's
// mean-per-item feedback loop).
func (h *Histogram) Stat() (count uint64, sum int64) {
	for i := range h.counts {
		count += h.counts[i].Load()
	}
	return count, h.sum.Load()
}

// DurationBuckets is the default latency bucket layout: 1µs to 10s in a
// 1–2.5–5 progression, wide enough for a cache hit and an fsync alike.
var DurationBuckets = []int64{
	int64(1 * time.Microsecond), int64(2500 * time.Nanosecond), int64(5 * time.Microsecond),
	int64(10 * time.Microsecond), int64(25 * time.Microsecond), int64(50 * time.Microsecond),
	int64(100 * time.Microsecond), int64(250 * time.Microsecond), int64(500 * time.Microsecond),
	int64(1 * time.Millisecond), int64(2500 * time.Microsecond), int64(5 * time.Millisecond),
	int64(10 * time.Millisecond), int64(25 * time.Millisecond), int64(50 * time.Millisecond),
	int64(100 * time.Millisecond), int64(250 * time.Millisecond), int64(500 * time.Millisecond),
	int64(1 * time.Second), int64(2500 * time.Millisecond), int64(5 * time.Second),
	int64(10 * time.Second),
}

// SizeBuckets is the default layout for small-count distributions
// (commit-group sizes): powers of two up to 1024.
var SizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Registry is a named collection of metrics. Registration is
// get-or-create and safe for concurrent use; hot paths should register
// once and hold the returned pointer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
	helps    map[string]string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
		helps:    map[string]string{},
	}
}

// SetHelp records a one-line description for a metric family (the base
// name, without any {label} suffix); the Prometheus exposition emits it
// as the family's # HELP line. Help text is registry-local operator
// documentation — the STATS reply does not carry it.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = help
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a derived gauge computed at snapshot time (uptime,
// root counts — values that already live elsewhere as atomics). fn must
// be safe to call concurrently and must not call back into the registry.
// Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it with the given unit
// and bucket bounds on first use. Later calls ignore unit and bounds.
func (r *Registry) Histogram(name string, unit Unit, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(unit, bounds)
		r.hists[name] = h
	}
	return h
}

// ---------------------------------------------------------------------------
// Snapshot: the race-free read side
// ---------------------------------------------------------------------------

// NamedCounter is one counter in a snapshot.
type NamedCounter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// NamedGauge is one gauge (or gauge func) in a snapshot.
type NamedGauge struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's state: immutable copies of the
// bounds and bucket counts, the exact sum, and the total count. Count is
// derived from Counts, so it is not encoded: a decoder recomputes it.
type HistogramSnapshot struct {
	Name   string   `json:"name"`
	Unit   Unit     `json:"unit"`
	Bounds []int64  `json:"bounds"` // ascending inclusive upper bounds
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is the overflow bucket
	Sum    int64    `json:"sum"`
	Count  uint64   `json:"-"`
}

// UnmarshalJSON decodes a histogram's JSON, refusing one without a count
// per bucket, as Quantile indexes them so. Count is recomputed from the
// buckets. A key it does not know, such as a per-bucket list an older
// server sent, is dropped.
func (h *HistogramSnapshot) UnmarshalJSON(b []byte) error {
	type plain HistogramSnapshot
	if err := json.Unmarshal(b, (*plain)(h)); err != nil {
		return err
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("telemetry: histogram %q has %d bounds and %d counts",
			h.Name, len(h.Bounds), len(h.Counts))
	}
	h.Count = 0
	for _, n := range h.Counts {
		h.Count += n
	}
	return nil
}

// Snapshot is a point-in-time copy of a registry, immutable after
// construction: every consumer (HEALTH, STATS, /metrics) reads one
// Snapshot instead of re-loading atomics field by field, so a report can
// never mix values from different instants of its own capture.
type Snapshot struct {
	TakenAt    time.Time           `json:"taken_at"`
	Counters   []NamedCounter      `json:"counters"`   // sorted by name
	Gauges     []NamedGauge        `json:"gauges"`     // sorted by name (includes gauge funcs)
	Histograms []HistogramSnapshot `json:"histograms"` // sorted by name
	Helps      map[string]string   `json:"-"`          // family help text; local only, not wire-encoded
}

// Snapshot captures every registered metric. Values are copied with one
// atomic load each; bucket arrays are deep-copied, so the result stays
// stable under concurrent writers.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{TakenAt: time.Now()}
	s.Counters = make([]NamedCounter, 0, len(r.counters))
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedCounter{Name: name, Value: c.Value()})
	}
	s.Gauges = make([]NamedGauge, 0, len(r.gauges)+len(r.gaugeFns))
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedGauge{Name: name, Value: g.Value()})
	}
	for name, fn := range r.gaugeFns {
		s.Gauges = append(s.Gauges, NamedGauge{Name: name, Value: fn()})
	}
	s.Histograms = make([]HistogramSnapshot, 0, len(r.hists))
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Name:   name,
			Unit:   h.unit,
			Bounds: h.bounds, // immutable; shared deliberately
			Counts: make([]uint64, len(h.counts)),
		}
		var total uint64
		for i := range h.counts {
			n := h.counts[i].Load()
			hs.Counts[i] = n
			total += n
		}
		hs.Count = total
		hs.Sum = h.sum.Load()
		s.Histograms = append(s.Histograms, hs)
	}
	if len(r.helps) > 0 {
		s.Helps = make(map[string]string, len(r.helps))
		for name, help := range r.helps {
			s.Helps[name] = help
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter finds a counter by name.
func (s *Snapshot) Counter(name string) (uint64, bool) {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value, true
	}
	return 0, false
}

// Gauge finds a gauge by name.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	i := sort.Search(len(s.Gauges), func(i int) bool { return s.Gauges[i].Name >= name })
	if i < len(s.Gauges) && s.Gauges[i].Name == name {
		return s.Gauges[i].Value, true
	}
	return 0, false
}

// Histogram finds a histogram by name.
func (s *Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i], true
	}
	return HistogramSnapshot{}, false
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the target rank. Inside the overflow bucket
// the last bound is returned — the histogram cannot resolve beyond it.
// Returns 0 for an empty histogram, and for one with no bounds.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, n := range h.Counts {
		next := cum + float64(n)
		if next >= rank && n > 0 {
			lo := int64(0)
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1] // overflow bucket: floor at the last bound
			}
			hi := h.Bounds[i]
			frac := (rank - cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Mean is the exact average observation (Sum/Count), 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Delta returns the change from prev to s, for rate displays (`dbpl
// stats -watch`): counter values and histogram bucket counts/sums become
// the interval's increments, and gauges keep their current
// (instantaneous) values. A metric absent
// from prev — or one that shrank, meaning the server restarted between
// snapshots — passes through whole rather than going negative. TakenAt
// is s's capture time; the interval length is s.TakenAt−prev.TakenAt.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	d := &Snapshot{TakenAt: s.TakenAt, Helps: s.Helps}
	d.Counters = make([]NamedCounter, len(s.Counters))
	for i, c := range s.Counters {
		if old, ok := prev.Counter(c.Name); ok && old <= c.Value {
			c.Value -= old
		}
		d.Counters[i] = c
	}
	d.Gauges = append([]NamedGauge(nil), s.Gauges...)
	d.Histograms = make([]HistogramSnapshot, len(s.Histograms))
	for i, h := range s.Histograms {
		old, ok := prev.Histogram(h.Name)
		if ok && len(old.Counts) == len(h.Counts) && old.Count <= h.Count {
			nh := HistogramSnapshot{
				Name: h.Name, Unit: h.Unit, Bounds: h.Bounds,
				Counts: make([]uint64, len(h.Counts)),
				Sum:    h.Sum - old.Sum,
				Count:  h.Count - old.Count,
			}
			for j := range h.Counts {
				if old.Counts[j] <= h.Counts[j] {
					nh.Counts[j] = h.Counts[j] - old.Counts[j]
				}
			}
			h = nh
		}
		d.Histograms[i] = h
	}
	return d
}
