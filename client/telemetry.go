package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/telemetry/trace"
)

// ---------------------------------------------------------------------------
// Trace IDs
// ---------------------------------------------------------------------------

// traceSeq is the process-global trace-ID sequence, seeded once from the
// system entropy source so IDs from different processes don't collide on
// a shared server's trace ring.
var traceSeq atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		traceSeq.Store(binary.BigEndian.Uint64(b[:]))
	} else {
		traceSeq.Store(uint64(time.Now().UnixNano()))
	}
}

// nextTrace returns a fresh nonzero trace ID: a splitmix64 finalizer over
// a crypto-seeded counter — allocation-free, well distributed, unique per
// process for 2^64 calls. Zero is skipped because the wire encoding uses
// it for "untraced".
func nextTrace() uint64 {
	for {
		z := traceSeq.Add(0x9e3779b97f4a7c15)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// ---------------------------------------------------------------------------
// Client-side metrics
// ---------------------------------------------------------------------------

// clientMetrics counts what the retry machinery actually did: attempts
// per opcode (so attempts minus calls is the retry amplification),
// retries by cause, and total backoff sleep. Like the server's set,
// counters are pre-resolved into an opcode-indexed array so the request
// path never touches the registry's maps.
type clientMetrics struct {
	reg *telemetry.Registry

	attempts      [wire.LastRequestOp + 1]*telemetry.Counter
	attemptsOther *telemetry.Counter

	retryOverloaded *telemetry.Counter
	retryDeadline   *telemetry.Counter
	retryConnLost   *telemetry.Counter
	retryNet        *telemetry.Counter

	backoffNS *telemetry.Counter

	// Replica fan-out: reads attempted against a follower, and replica
	// failures that fell back to the primary.
	replicaReads     *telemetry.Counter
	replicaFallbacks *telemetry.Counter

	// failovers counts write re-pins to a different primary (probing that
	// merely re-confirmed the current pin is not counted).
	failovers *telemetry.Counter
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	m := &clientMetrics{reg: reg}
	for op, row := range wire.Ops {
		if row.Class != wire.ClassNone {
			m.attempts[op] = reg.Counter(`dbpl_client_attempts_total{op="` + row.Name + `"}`)
		}
	}
	m.attemptsOther = reg.Counter(`dbpl_client_attempts_total{op="other"}`)
	m.retryOverloaded = reg.Counter(`dbpl_client_retries_total{cause="overloaded"}`)
	m.retryDeadline = reg.Counter(`dbpl_client_retries_total{cause="deadline"}`)
	m.retryConnLost = reg.Counter(`dbpl_client_retries_total{cause="conn_lost"}`)
	m.retryNet = reg.Counter(`dbpl_client_retries_total{cause="net"}`)
	m.backoffNS = reg.Counter("dbpl_client_backoff_ns_total")
	m.replicaReads = reg.Counter("dbpl_client_replica_reads_total")
	m.replicaFallbacks = reg.Counter("dbpl_client_replica_fallbacks_total")
	m.failovers = reg.Counter("dbpl_client_failovers_total")
	return m
}

func (m *clientMetrics) attempt(op byte) {
	if int(op) < len(m.attempts) && m.attempts[op] != nil {
		m.attempts[op].Inc()
		return
	}
	m.attemptsOther.Inc()
}

// retry records one retry actually taken, classified by what failed.
func (m *clientMetrics) retry(err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		m.retryOverloaded.Inc()
	case errors.Is(err, ErrDeadline):
		m.retryDeadline.Inc()
	case errors.Is(err, ErrConnLost):
		m.retryConnLost.Inc()
	default:
		m.retryNet.Inc()
	}
}

func (m *clientMetrics) backoff(d time.Duration) { m.backoffNS.Add(uint64(d)) }

// Telemetry returns the client's metrics registry: attempt counts per
// opcode, retries by cause, and cumulative backoff sleep.
func (c *Client) Telemetry() *telemetry.Registry { return c.m.reg }

// Stats asks the server for its full telemetry snapshot (the STATS
// opcode): every counter, gauge and histogram the server and its
// persistence layer maintain. Answered even by an overloaded, draining or
// poisoned server.
func (c *Client) Stats() (*telemetry.Snapshot, error) {
	return decodeStats(c.call(wire.OpStats))
}

// Trace is one retained server-side span tree, as returned by Traces.
type Trace = trace.Data

// Traces asks the server for its retained request traces (the TRACES
// opcode), newest first. A server running with sampling disabled answers
// an empty slice, not an error.
func (c *Client) Traces() ([]Trace, error) {
	return decodeTraces(c.call(wire.OpTraces))
}

// decodeStats decodes a STATS reply: one field holding the snapshot's
// JSON. Unmarshalling refuses a histogram without one count per bucket
// (HistogramSnapshot.UnmarshalJSON) and recomputes its Count. TakenAt is
// given in the client's zone, not the server's.
func decodeStats(fields [][]byte, err error) (*telemetry.Snapshot, error) {
	if err != nil {
		return nil, err
	}
	if len(fields) != 1 {
		return nil, badTelemetry("STATS", fmt.Sprintf("%d fields", len(fields)))
	}
	s := new(telemetry.Snapshot)
	if err := json.Unmarshal(fields[0], s); err != nil {
		return nil, badTelemetry("STATS", err.Error())
	}
	s.TakenAt = s.TakenAt.Local()
	return s, nil
}

// decodeTraces decodes a TRACES reply: one field per trace, each the
// trace's JSON. Unmarshalling refuses a span whose parent is not in the
// trace (Data.UnmarshalJSON). Begin is given in the client's zone.
func decodeTraces(fields [][]byte, err error) ([]Trace, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Trace, len(fields))
	for i, f := range fields {
		if err := json.Unmarshal(f, &out[i]); err != nil {
			return nil, badTelemetry("TRACES", err.Error())
		}
		out[i].Begin = out[i].Begin.Local()
	}
	return out, nil
}

func badTelemetry(op, why string) error {
	return &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed " + op + " response: " + why}
}
