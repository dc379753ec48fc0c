// Package trace records lightweight span trees for individual requests.
//
// A Trace is a flat array of spans; each span names an interval of work
// and points at its parent by index, so building one costs a handful of
// appends and no per-span allocations beyond the backing array. The
// trace ID reuses the wire trace ID the client stamped on the request
// (or a server-generated one when the request arrived unstamped), which
// makes a span tree joinable against client logs without any extra
// correlation machinery.
//
// Every method on *Trace is nil-safe: an unsampled request carries a nil
// trace and every Start/End/Add collapses to a no-op without a branch at
// the call sites. That is the whole overhead story for sampling-off —
// see EXPERIMENTS.md E20.
//
// Traces cross goroutines: the server's committer goroutine appends
// lock-wait/stage/fsync/publish spans to a waiter's trace while the
// waiter owns it, so span mutation is guarded by a mutex. The completed tree is
// snapshotted into a plain-value Data before it enters the ring.
//
// Data has one machine encoding, its encoding/json output through the
// struct tags below: the TRACES opcode sends one trace per reply field,
// and the ops endpoint's /traces serves the same as one array.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID indexes a span within its trace. The root span is always index
// 0; NoSpan is returned by Start on a nil or full trace and is accepted
// (as a no-op) everywhere a SpanID is.
type SpanID int32

// NoSpan is the SpanID of a span that was never recorded.
const NoSpan SpanID = -1

// maxSpans bounds one trace's span count so a pathological handler loop
// cannot grow a trace without bound; Start past the cap drops the span.
const maxSpans = 1 << 12

// Span is one named interval. Start and Dur are offsets relative to the
// trace's Begin so a span costs 8+8 bytes instead of two time.Times, and
// encodes as two integers of nanoseconds.
type Span struct {
	Name   string        `json:"name"`
	Parent SpanID        `json:"parent"` // index into the trace's span array; -1 for the root
	Start  time.Duration `json:"start"`  // offset from the trace's Begin
	Dur    time.Duration `json:"dur"`
}

// Trace is one in-progress span tree. The zero value is not useful; use
// New. A nil *Trace is the "unsampled" trace and all methods no-op on it.
type Trace struct {
	id    uint64
	op    string
	begin time.Time
	link  uint64 // originating trace on another node (follower apply → primary commit)

	mu    sync.Mutex
	spans []Span
}

// New starts a trace rooted at a span named op. The root span is open
// until Finish.
func New(id uint64, op string) *Trace {
	return &Trace{
		id:    id,
		op:    op,
		begin: time.Now(),
		spans: []Span{{Name: op, Parent: NoSpan}},
	}
}

// ID reports the trace ID; 0 on a nil (unsampled) trace.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// SetLink records the ID of the trace this one continues on another
// node — a follower's apply trace links to the primary commit trace
// carried by the REPDATA frame.
func (t *Trace) SetLink(link uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.link = link
	t.mu.Unlock()
}

// Start opens a child span under parent and returns its ID. On a nil
// trace, or when the trace is full, it returns NoSpan (which End
// ignores).
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return NoSpan
	}
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: time.Since(t.begin)})
	return SpanID(len(t.spans) - 1)
}

// End closes the span opened by Start. NoSpan and out-of-range IDs are
// ignored.
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return
	}
	t.spans[id].Dur = time.Since(t.begin) - t.spans[id].Start
}

// Add records an already-completed interval as a child of parent. This
// is how a different goroutine (the committer) attributes work — the
// wait for the commit lock, the batched fsync — to a waiter's trace: it
// measures the interval itself and appends it wholesale.
func (t *Trace) Add(parent SpanID, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return
	}
	t.spans = append(t.spans, Span{
		Name:   name,
		Parent: parent,
		Start:  start.Sub(t.begin),
		Dur:    end.Sub(start),
	})
}

// Finish closes the root span. Call once, when the request completes.
func (t *Trace) Finish() {
	t.End(0)
}

// Data is a completed trace as plain values: safe to retain in the ring
// or serve as JSON while the originating goroutines move on. A request's
// trace also carries what its reply settled: the peer address of the
// session that sent it, the reply's field bytes and its error code, if
// any; each is left out of the JSON when empty.
type Data struct {
	ID      uint64    `json:"id"`
	Op      string    `json:"op"`
	Begin   time.Time `json:"begin"`
	Link    uint64    `json:"link,omitempty"`
	Session string    `json:"session,omitempty"`
	Bytes   int       `json:"bytes,omitempty"`
	Err     string    `json:"err,omitempty"`
	Spans   []Span    `json:"spans"`
}

// UnmarshalJSON decodes a trace's JSON, refusing a span whose parent is
// neither the root marker nor another span of the same trace.
func (d *Data) UnmarshalJSON(b []byte) error {
	type plain Data
	if err := json.Unmarshal(b, (*plain)(d)); err != nil {
		return err
	}
	for _, s := range d.Spans {
		if s.Parent < NoSpan || int(s.Parent) >= len(d.Spans) {
			return fmt.Errorf("trace: span parent %d out of range", s.Parent)
		}
	}
	return nil
}

// Data snapshots the trace. On a nil trace it returns the zero Data.
func (t *Trace) Data() Data {
	if t == nil {
		return Data{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Data{ID: t.id, Op: t.op, Begin: t.begin, Link: t.link}
	d.Spans = make([]Span, len(t.spans))
	copy(d.Spans, t.spans)
	return d
}

// Sampler decides, from the trace ID alone, whether a request is traced.
// Trace IDs are splitmix64 outputs (uniform over uint64), so comparing
// against rate×MaxUint64 head-samples at the configured rate — and both
// ends of a replication link holding the same rate make the *same*
// decision for the same ID, which is what links a follower's apply trace
// to the primary's commit trace without any negotiation.
type Sampler struct {
	threshold uint64
}

// NewSampler builds a sampler keeping approximately rate of traffic;
// rate ≤ 0 keeps nothing, rate ≥ 1 keeps everything.
func NewSampler(rate float64) Sampler {
	switch {
	case rate <= 0:
		return Sampler{}
	case rate >= 1:
		return Sampler{threshold: ^uint64(0)}
	default:
		return Sampler{threshold: uint64(rate * float64(^uint64(0)))}
	}
}

// Sample reports whether the trace ID is kept. ID 0 (untraced wire
// request) is never kept — callers mint an ID with NextID first.
func (s Sampler) Sample(id uint64) bool {
	return id != 0 && id <= s.threshold
}

// traceSeq seeds server-generated trace IDs; crypto-seeded once so
// concurrent servers in one process do not collide.
var traceSeq atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		traceSeq.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

// NextID returns a fresh non-zero trace ID: splitmix64 over a seeded
// counter, the same generator the client uses to stamp requests, so
// server-minted IDs are uniform and the Sampler's threshold comparison
// stays honest.
func NextID() uint64 {
	for {
		z := traceSeq.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}
