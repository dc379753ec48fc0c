// Package client is the Go client for `dbpl serve` (internal/server): a
// connection-pooled, pipelining front end to the remote store.
//
// A Client multiplexes stateless requests (Get, Put, Delete, Join, Names,
// Ping) over a small fixed pool of connections. Each connection pipelines:
// concurrent callers write their frames back to back and a single reader
// goroutine matches responses to callers in FIFO order, so N in-flight
// requests cost one round trip, not N. Dead connections are redialed
// transparently on next use — a client survives a server restart and sees
// exactly the state the server recovered from its log.
//
// A round trip allocates nothing but its answer: the request is encoded
// into buffers the client keeps, its caller waits on a reused channel in
// a reused queue slot, and Options.RequestTimeout is enforced without a
// timer. The requests in flight on a connection are answered in order and
// share one timeout, so the oldest has the earliest deadline: the
// connection's reader reads under that deadline, and a read it cuts short
// fails every request on the connection with ErrDeadline.
//
// Transactions are session-scoped on the server, so Begin pins a dedicated
// connection: the *Session's Put/Delete buffer server-side until Commit
// makes them one durable commit group (Abort discards them). A Session's
// own Get sees its buffered writes; other clients never do.
//
// # Retries
//
// Every stateless call runs under the Options.RetryPolicy (on by default):
// dial failures, request deadlines, lost connections and CodeOverloaded
// load-shedding refusals are retried with exponential backoff, full
// jitter, and a total sleep budget. Reads (Get, Join, Names, Ping,
// Health) are idempotent and retried as-is; Put and Delete are stamped
// with a client-unique idempotency key that the server deduplicates in a
// bounded LRU of applied write ids, so a retry after a lost
// acknowledgement applies exactly once. See docs/RESILIENCE.md.
//
// Failures carry the server's taxonomy: errors returned by remote
// operations unwrap to the wire sentinels (wire.ErrNoRoot, wire.ErrTxn,
// wire.ErrRemoteCorrupt, ...) and remote I/O failures additionally to
// iofault.ErrIOFailed, so errors.Is against a remote store reads the same
// as against a local one.
package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/core"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Errors produced locally by the client.
var (
	ErrClosed   = errors.New("client: closed")
	ErrDeadline = errors.New("client: request deadline exceeded")
	ErrDone     = errors.New("client: session already finished")
	// ErrConnLost marks transport failures (a reset, an unexpected close,
	// a failed write): the connection died with the request in flight.
	// Idempotent and key-stamped requests are retried on it.
	ErrConnLost = errors.New("client: connection lost")
)

// The remote failure taxonomy, re-exported from the wire protocol
// (which lives under internal/) so programs outside this module can
// dispatch on remote failures with errors.Is.
var (
	ErrBadFrame      = wire.ErrBadFrame
	ErrTooLarge      = wire.ErrTooLarge
	ErrUnknownOp     = wire.ErrUnknownOp
	ErrBadRequest    = wire.ErrBadRequest
	ErrNoRoot        = wire.ErrNoRoot
	ErrNotConforming = wire.ErrNotConforming
	ErrInconsistent  = wire.ErrInconsistent
	ErrTxn           = wire.ErrTxn
	ErrRemoteIO      = wire.ErrRemoteIO
	ErrRemoteCorrupt = wire.ErrRemoteCorrupt
	ErrShutdown      = wire.ErrShutdown
	ErrInternal      = wire.ErrInternal
	// ErrOverloaded is admission control shedding the request; the retry
	// policy backs off (honoring the server's retry-after hint) and tries
	// again, so callers usually only see it once the budget is exhausted.
	ErrOverloaded = wire.ErrOverloaded
	// ErrDegraded is the server's degraded read-only mode: its write path
	// is poisoned and every write is refused until the process restarts,
	// while reads and Health keep working. Not retryable.
	ErrDegraded = wire.ErrDegraded
	// ErrReadOnly is a replication follower refusing a write: this server
	// never accepts writes, by role, and the refusal names the primary to
	// aim at. Never retryable against the same server — but with
	// Options.Replicas set it triggers failover: the client probes the
	// candidate set for the real primary and replays there.
	ErrReadOnly = wire.ErrReadOnly
	// ErrFenced is a demoted primary refusing a write: a newer primary
	// exists at a higher promotion epoch and this one is permanently
	// read-only (the refusal names its successor). With Options.Replicas
	// set the client fails over — it probes the candidate set for the
	// highest-epoch writable server, re-pins writes there, and replays
	// the in-flight request under its original idempotency key, so the
	// write applies exactly once even across the promotion.
	ErrFenced = wire.ErrFenced

	// ErrIOFailed is the persistence layer's I/O sentinel
	// (iofault.ErrIOFailed); a remote I/O failure unwraps to it too, so
	// one errors.Is covers local and served stores alike.
	ErrIOFailed = iofault.ErrIOFailed
)

// Health is the server's HEALTH self-report (wire.Health re-exported):
// poisoned flag, in-flight count, session count, root count, uptime,
// durable end, replication role and promotion epoch.
type Health = wire.Health

// Options tunes a Client. The zero value is usable.
type Options struct {
	// PoolSize is the number of pooled connections for stateless
	// requests; 0 means 2. A session has a connection of its own, which
	// it gives back when it ends: Begin takes one of at most PoolSize
	// connections kept idle that way before it dials a new one.
	PoolSize int
	// MaxFrame bounds frames in both directions; 0 means wire.MaxFrame.
	MaxFrame int
	// DialTimeout bounds connection establishment; 0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout is the per-request deadline, covering the write and
	// the wait for the response from the moment the request is queued on
	// its connection; 0 means 30s, negative disables. It is enforced as
	// the connection's read deadline, the oldest request's, and on expiry
	// every request in flight on the connection fails with ErrDeadline.
	// Under the retry policy it bounds each *attempt*, not the whole call.
	RequestTimeout time.Duration
	// RetryPolicy governs transparent retries of failed requests. The
	// zero value is the documented default (retries ON: 4 attempts,
	// 25ms–1s exponential backoff with full jitter, 3s sleep budget);
	// set MaxAttempts to 1 (or negative) to disable retries.
	RetryPolicy RetryPolicy
	// Registry receives the client's metrics (attempts per opcode, retries
	// by cause, backoff sleep); nil means a fresh private registry,
	// readable via Telemetry().
	Registry *telemetry.Registry
	// Replicas lists read-only follower addresses. They do two jobs:
	// idempotent reads (Get, Join, Names, Explain*) fan out to caught-up
	// followers, and together with the dialed address they form the
	// *failover set* — when the primary is lost or fenced, the client
	// probes every candidate's HEALTH for the highest-epoch writable
	// server and re-pins writes there. Writes, transactions, Health and
	// Stats always go to the currently pinned primary. See
	// client/replicas.go and client/failover.go.
	Replicas []string
	// ReplicaProbe is the health-probe interval for replica rotation;
	// 0 means 1s.
	ReplicaProbe time.Duration
}

// RetryPolicy is exponential backoff with full jitter, capped by a total
// sleep budget. A request is retried when it failed in a way that cannot
// have half-happened or that is safe to repeat: dial errors, request
// deadlines, lost connections, and the server's CodeOverloaded
// load-shedding refusal (whose retry-after hint, when longer than the
// computed backoff, is honored instead). Reads are idempotent by nature;
// writes are made idempotent by the key the client stamps on them (the
// server deduplicates applied write ids), so both retry safely.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call, including
	// the first; 0 means 4, 1 or negative disables retries.
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff before the first retry and
	// doubles per attempt; 0 means 25ms.
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter backoff; 0 means 1s.
	MaxDelay time.Duration
	// Budget caps the total time one call may spend sleeping between
	// attempts; a retry that would exceed it is not taken and the last
	// error returns. 0 means 3s, negative means unlimited.
	Budget time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts == 0 {
		return 4
	}
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) baseDelay() time.Duration {
	if p.BaseDelay <= 0 {
		return 25 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return time.Second
	}
	return p.MaxDelay
}

func (p RetryPolicy) budget() time.Duration {
	if p.Budget == 0 {
		return 3 * time.Second
	}
	if p.Budget < 0 {
		return time.Duration(1<<63 - 1)
	}
	return p.Budget
}

// backoff computes the sleep before attempt (1-based retry index): full
// jitter over min(BaseDelay<<(attempt-1), MaxDelay).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.baseDelay()
	for i := 1; i < attempt && d < p.maxDelay(); i++ {
		d *= 2
	}
	if d > p.maxDelay() {
		d = p.maxDelay()
	}
	return time.Duration(rand.Int63n(int64(d) + 1))
}

func (o Options) poolSize() int {
	if o.PoolSize <= 0 {
		return 2
	}
	return o.PoolSize
}

func (o Options) maxFrame() int {
	if o.MaxFrame <= 0 {
		return wire.MaxFrame
	}
	return o.MaxFrame
}

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout == 0 {
		return 30 * time.Second
	}
	if o.RequestTimeout < 0 {
		return 0
	}
	return o.RequestTimeout
}

func (o Options) replicaProbe() time.Duration {
	if o.ReplicaProbe <= 0 {
		return time.Second
	}
	return o.ReplicaProbe
}

// Packed mirrors core.Packed: a remote object with the witness type it was
// stored at. The values of one reply (Get, GetExpr, Join) share what the
// reply was decoded into: the frame's payload, which their string atoms
// are substrings of, and the slabs their records and boxed atoms come
// from. So a value kept from a reply, down to one atom taken out of a
// record, pins what that one frame was decoded into, and nothing of any
// other reply; the witness types pin none of it.
type Packed = core.Packed

// Client is a pooled connection to one dbpl server. It is safe for
// concurrent use.
type Client struct {
	handle // the verbs Client and Session share

	// addr is the current write target, guarded by mu: failover re-pins
	// it to a newly promoted primary. origin is the address Dial was
	// given, immutable, and always part of the failover candidate set.
	addr   string
	origin string
	o      Options

	// id is the client-unique prefix of idempotency keys; seq the
	// per-client write counter completing them.
	id  [8]byte
	seq atomic.Uint64

	// m counts attempts, retries and backoff; see telemetry.go.
	m *clientMetrics

	// tbufs holds the buffers query encodes type images into, and Put
	// its tagged image, one for each call in flight at once at most,
	// guarded by tmu.
	tmu   sync.Mutex
	tbufs [][]byte

	mu     sync.Mutex
	pool   []*conn // fixed slots, lazily (re)dialed
	idle   []*conn // ended sessions' connections, at most PoolSize
	closed bool
	next   atomic.Uint64 // round-robin over the pool

	// writes is the read-your-writes stamp (see noteWrite); reps the
	// replica read rotation, nil without Options.Replicas.
	writes atomic.Uint64
	reps   *replicaSet
}

// Dial connects to a dbpl server, verifying liveness with a Ping.
func Dial(addr string, opts *Options) (*Client, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &Client{addr: addr, origin: addr, o: o, pool: make([]*conn, o.poolSize())}
	c.handle = handle{c: c}
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c.m = newClientMetrics(reg)
	if _, err := crand.Read(c.id[:]); err != nil {
		// A broken system entropy source: keys stay unique per process,
		// which is what the dedup window actually relies on.
		binary.BigEndian.PutUint64(c.id[:], uint64(time.Now().UnixNano()))
	}
	if err := c.Ping(); err != nil {
		c.Close()
		return nil, err
	}
	if len(o.Replicas) > 0 {
		c.reps = newReplicaSet(c, o.Replicas)
	}
	return c, nil
}

// nextKey stamps one write with a client-unique idempotency key: the
// 8-byte client id plus a monotone counter. The server remembers applied
// keys, so resending the same frame after a lost acknowledgement applies
// exactly once.
func (c *Client) nextKey() []byte {
	key := make([]byte, 16)
	copy(key, c.id[:])
	binary.BigEndian.PutUint64(key[8:], c.seq.Add(1))
	return key
}

// Close closes every pooled, idle and replica connection. Sessions hold
// their own connections and must be finished separately.
func (c *Client) Close() error {
	if c.reps != nil {
		c.reps.close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.dropConns(ErrClosed)
	return nil
}

// dropConns fails every pooled and idle connection with err. Callers hold
// c.mu.
func (c *Client) dropConns(err error) {
	for i, cn := range c.pool {
		if cn != nil {
			cn.fail(err)
			c.pool[i] = nil
		}
	}
	for i, cn := range c.idle {
		cn.fail(err)
		c.idle[i] = nil
	}
	c.idle = c.idle[:0]
}

// primary returns the current write target: the dialed address, or the
// server failover last re-pinned writes to.
func (c *Client) primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr
}

// getConn returns a live pooled connection, redialing a dead slot.
func (c *Client) getConn() (*conn, error) {
	slot := int(c.next.Add(1)-1) % len(c.pool)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	cn := c.pool[slot]
	if cn != nil && !cn.isDead() {
		c.mu.Unlock()
		return cn, nil
	}
	addr := c.addr
	c.mu.Unlock()
	// Dial outside the lock; racing callers may dial the same slot, the
	// loser's connection is closed.
	fresh, err := dialConn(addr, c.o)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		fresh.fail(ErrClosed)
		return nil, ErrClosed
	}
	if c.addr != addr {
		// Failover re-pinned the primary while we were dialing the old
		// one: pooling this connection would route writes to a fenced
		// server. Drop it and let the retry loop dial the new address.
		fresh.fail(ErrConnLost)
		return nil, fmt.Errorf("%w: primary re-pinned to %s during dial", ErrConnLost, c.addr)
	}
	if cur := c.pool[slot]; cur != nil && !cur.isDead() {
		fresh.fail(ErrClosed)
		return cur, nil
	}
	c.pool[slot] = fresh
	return fresh, nil
}

// roundTrip is one attempt on a pooled connection.
func (c *Client) roundTrip(op byte, fields ...[]byte) (byte, [][]byte, error) {
	cn, err := c.getConn()
	if err != nil {
		return 0, nil, err
	}
	return cn.roundTrip(c.o.requestTimeout(), op, fields...)
}

// policy is how a request retries a failed attempt.
type policy uint8

const (
	// retryAll is the RetryPolicy with failover: every stateless verb, and
	// Begin. The request must be idempotent or carry an idempotency key.
	retryAll policy = iota
	// once is a single attempt: Promote, whose replay would bump the
	// epoch again, HEALTH probes, and a session's verbs.
	once
	// retryOverload retries overload sheds only: a session's COMMIT. A
	// shed leaves the session's connection, and so the transaction,
	// alive; a lost connection took the transaction with it.
	retryOverload
)

// run is the one round-trip loop. try sends op on the connection it
// selects; run counts an attempt for every try, checks each reply against
// op's row in wire.Ops and retries a failed attempt as p allows.
func (c *Client) run(p policy, op byte, try func() (byte, [][]byte, error)) ([][]byte, error) {
	pol := c.o.RetryPolicy
	var slept time.Duration
	for attempt := 1; ; attempt++ {
		c.m.attempt(op)
		respOp, fields, err := try()
		if err == nil {
			if fields, err = reply(op, respOp, fields); err == nil {
				return fields, nil
			}
		}
		if p == once || attempt >= pol.maxAttempts() {
			return nil, err
		}
		// Failover: the primary is gone (lost connection, dial failure) or
		// refuses writes by role (fenced, demoted). With a failover set
		// configured, find the highest-epoch writable server and replay
		// there; the frame — including its idempotency key — is reused
		// verbatim, so the replayed write applies exactly once even if the
		// original reached the old primary's log. The replay skips the
		// backoff (the new primary is fresh evidence, not a guess) but
		// still counts against MaxAttempts.
		if p == retryAll && c.failoverEligible(err) && c.failover() {
			continue
		}
		if p == retryAll && !retryable(err) || p == retryOverload && !errors.Is(err, ErrOverloaded) {
			return nil, err
		}
		d := pol.backoff(attempt)
		if hint := retryAfterOf(err); hint > d {
			d = hint
		}
		if slept+d > pol.budget() {
			return nil, err
		}
		c.m.retry(err)
		c.m.backoff(d)
		time.Sleep(d)
		slept += d
	}
}

// reply checks a response to op against op's row in wire.Ops: the row's
// reply opcode passes, an ERROR frame decodes to its *wire.WireError and
// any other opcode is bad-frame.
func reply(op, respOp byte, fields [][]byte) ([][]byte, error) {
	switch respOp {
	case wire.Ops[op].Reply:
		return fields, nil
	case wire.OpError:
		return nil, wire.DecodeError(fields)
	}
	return nil, &wire.WireError{Code: wire.CodeBadFrame,
		Msg: fmt.Sprintf("unexpected response opcode %#x", respOp)}
}

// retryable classifies failures that are safe to repeat: the request
// never executed (dial failure, overload shed), or executed at most once
// with the outcome unknown (deadline, lost connection) — which idempotent
// and key-stamped requests tolerate. Application errors (no-root, txn,
// I/O, degraded, ...) report a definite outcome and are never retried.
func retryable(err error) bool {
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrDone) {
		return false
	}
	// A follower's or fenced server's write refusal is permanent and by
	// role — unlike CodeOverloaded it cannot clear with time, so retrying
	// against the same server only burns the backoff budget. The typed
	// refusal names the primary; surface it immediately. (With a failover
	// set configured, call() handles these before consulting retryable:
	// the retry then goes to a *different* server.)
	if errors.Is(err, ErrReadOnly) || errors.Is(err, ErrFenced) {
		return false
	}
	// A frame over the size limit — a reply the server could not send, or
	// one this client will not read — is the same size on every attempt.
	if errors.Is(err, ErrTooLarge) {
		return false
	}
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadline) || errors.Is(err, ErrConnLost) {
		return true
	}
	var ne net.Error // dial timeouts, refused connections, resets
	return errors.As(err, &ne)
}

// retryAfterOf extracts the server's backoff hint, 0 when absent.
func retryAfterOf(err error) time.Duration {
	var we *wire.WireError
	if errors.As(err, &we) {
		return we.RetryAfter
	}
	return 0
}

// ---------------------------------------------------------------------------
// Verbs
// ---------------------------------------------------------------------------

// handle is the one path every verb takes to the server: a connection
// selector and a round-trip policy. A Client's handle (s nil) selects the
// pool, or for a read a caught-up replica first, under the retry policy.
// A Session's selects the session's connection, one attempt a frame.
// Client and Session both embed one, so the verbs they share are written
// once, here.
type handle struct {
	c *Client
	s *Session
}

// call sends op on the handle's connection under its policy and returns
// the reply's fields.
func (h *handle) call(op byte, fields ...[]byte) ([][]byte, error) {
	c, s := h.c, h.s
	if s != nil && s.done {
		return nil, ErrDone
	}
	if s == nil && c.reps != nil && wire.Ops[op].Class == wire.ClassRead {
		if ok, out, err := c.replicaRead(op, fields); ok {
			return out, err
		}
	}
	p := retryAll
	switch {
	case s != nil && op == wire.OpCommit:
		p = retryOverload
	case s != nil || op == wire.OpPromote:
		p = once
	}
	return c.run(p, op, func() (byte, [][]byte, error) {
		if s != nil {
			return s.cn.roundTrip(c.o.requestTimeout(), op, fields...)
		}
		return c.roundTrip(op, fields...)
	})
}

// write sends a write verb of at most two fields. On a Client the frame
// gets a fresh idempotency key as its last field, and the write is noted
// for read-your-writes once answered; a Session buffers the write as-is.
func (h *handle) write(op byte, fields ...[]byte) ([][]byte, error) {
	if h.s != nil {
		return h.call(op, fields...)
	}
	defer h.c.noteWrite()
	// A local array keeps the frame's fields, the key included, off the
	// heap.
	var keyed [3][]byte
	for i, f := range fields {
		keyed[i] = f
	}
	keyed[len(fields)] = h.c.nextKey()
	return h.call(op, keyed[:len(fields)+1]...)
}

// Get is the paper's generic extraction, remotely: every root whose
// declared type is a subtype of t, packaged with its witness. With
// Options.Replicas a Client's Get may be served by a caught-up follower.
// A Session's Get answers from the state its Commit would publish over
// the snapshot pinned at Begin: its own buffered writes included, in the
// order a Get right after Commit returns them. The values share the
// reply's payload and slabs (see Packed): a kept value pins at most one
// frame.
func (h *handle) Get(t types.Type) ([]Packed, error) {
	return decodeGet(h.query(wire.OpGet, t))
}

// Put binds name to v at the declared type (nil means v's most specific
// type). A Client commits it as one group; the frame carries an
// idempotency key, so a retry after a lost acknowledgement applies
// exactly once. A Session buffers it until Commit.
func (h *handle) Put(name string, v value.Value, declared types.Type) error {
	c := h.c
	b := c.takeBuf()
	img, err := codec.AppendTagged(b, v, declared)
	if err == nil {
		_, err = h.write(wire.OpPut, []byte(name), img)
	}
	c.putBuf(img)
	return err
}

// Delete unbinds name, reporting whether it existed: in the committed
// state for a Client, in the session's view for a Session. A Client's
// Delete is key-stamped like Put, so a retried DELETE reports the
// existed bit of its first application, not of the retry.
func (h *handle) Delete(name string) (bool, error) {
	return decodeBool(h.write(wire.OpDelete, []byte(name)))
}

// Join computes the generalized natural join (the paper's Figure 1) of
// the extents at t1 and t2, remotely, over the same state Get reads.
func (h *handle) Join(t1, t2 types.Type) ([]value.Value, error) {
	ps, err := decodeGet(h.query(wire.OpJoin, t1, t2))
	if err != nil {
		return nil, err
	}
	out := make([]value.Value, len(ps))
	for i, p := range ps {
		out[i] = p.Value
	}
	return out, nil
}

// Names lists the root names of the state Get reads.
func (h *handle) Names() ([]string, error) {
	fields, err := h.call(wire.OpNames)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out, nil
}

// ExplainGet renders the exact counts behind a GET at t right now —
// "get n=… types=… matched=… result=…": the members and member types the
// server holds, the member types conforming to t and the members a GET
// returns — without executing the GET. It counts the state Get reads.
func (h *handle) ExplainGet(t types.Type) (string, error) {
	return decodeText(h.query(wire.OpExplain, t))
}

// ExplainJoin renders the join plan for joining GET's answers at t1 and
// t2 without running the join: "join left=… right=… pairs=…", the two
// sides' sizes and the exact number of member pairs the join will try,
// followed by "attr=… build=left|right" when it partitions on a shared
// atomic label.
func (h *handle) ExplainJoin(t1, t2 types.Type) (string, error) {
	return decodeText(h.query(wire.OpExplain, t1, t2))
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.call(wire.OpPing)
	return err
}

// Health asks the server for its self-report: degraded (poisoned) flag,
// in-flight requests, sessions, committed roots, uptime. It is answered
// even by an overloaded or poisoned server.
func (c *Client) Health() (Health, error) {
	return decodeHealth(c.call(wire.OpHealth))
}

// GetExpr is Get over the concrete type syntax, e.g. "{Name: String}".
func (c *Client) GetExpr(src string) ([]Packed, error) {
	t, err := types.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Get(t)
}

// CreateIndex declares a field-value index on a record label, reporting
// whether it was newly created (false: it already existed). Only the
// declaration is durable; no read consults the index (docs/INDEXES.md).
// Key-stamped like every write, so a retry applies exactly once.
func (c *Client) CreateIndex(field string) (bool, error) {
	return decodeBool(c.write(wire.OpCreateIndex, []byte(field)))
}

// DropIndex removes a field-value index declaration, reporting whether it
// existed. Key-stamped.
func (c *Client) DropIndex(field string) (bool, error) {
	return decodeBool(c.write(wire.OpDropIndex, []byte(field)))
}

// Promote orders the server to take over as primary: it stops following
// its upstream, bumps the promotion epoch durably, and starts accepting
// writes. The new epoch is returned. The server must have been started
// with -allow-promote; a staged or poisoned server refuses. Deliberately
// a single attempt with no retries — promotion is an admin action whose
// replay would bump the epoch again, so a lost acknowledgement is left
// to the operator (probe Health for the role and epoch, then decide).
func (c *Client) Promote() (uint64, error) {
	fields, err := c.call(wire.OpPromote)
	if err != nil {
		return 0, err
	}
	if len(fields) != 1 {
		return 0, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed PROMOTE response"}
	}
	epoch, n := binary.Uvarint(fields[0])
	if n <= 0 {
		return 0, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed PROMOTE epoch"}
	}
	return epoch, nil
}

// ---------------------------------------------------------------------------
// Sessions (server-side transactions)
// ---------------------------------------------------------------------------

// Session is one server-side transaction, pinned to its own connection.
// Finish it with Commit or Abort (Close aborts if neither happened).
type Session struct {
	handle
	cn   *conn
	done bool
}

// Begin opens a transaction on a connection of its own: one an ended
// session gave back, or a new dial. Nothing has been buffered yet, so the
// whole BEGIN is retried under the policy — a kept connection the server
// has since closed fails its attempt, and the next takes another or dials
// — and fails over like a stateless call: redialing the new primary is
// free.
func (c *Client) Begin() (*Session, error) {
	s := &Session{}
	s.handle = handle{c: c, s: s}
	_, err := c.run(retryAll, wire.OpBegin, func() (byte, [][]byte, error) {
		cn, err := c.sessionConn()
		if err != nil {
			return 0, nil, err
		}
		op, fields, err := cn.roundTrip(c.o.requestTimeout(), wire.OpBegin)
		if err != nil || op != wire.OpOK {
			cn.fail(ErrClosed)
		}
		s.cn = cn
		return op, fields, err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Commit makes the buffered writes one durable commit group and ends the
// session. The COMMIT frame is key-stamped and retried on overload sheds
// (the session connection is still alive then, so the buffered writes
// are too); a lost connection is not retryable — the server discards the
// transaction with the session, so there is nothing left to commit.
func (s *Session) Commit() error {
	if s.done {
		return ErrDone
	}
	defer s.c.noteWrite()
	_, err := s.call(wire.OpCommit, s.c.nextKey())
	s.finish(err)
	return err
}

// Abort discards the buffered writes and ends the session.
func (s *Session) Abort() error {
	_, err := s.call(wire.OpAbort)
	s.finish(err)
	return err
}

// Close aborts the session if it is still open.
func (s *Session) Close() error {
	if s.done {
		return nil
	}
	return s.Abort()
}

// finish ends the session. The server answered err to its COMMIT or
// ABORT: nil leaves the connection outside any transaction, and it goes
// back to the client for the next Begin; any error closes it.
func (s *Session) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if err != nil || !s.c.keepIdle(s.cn) {
		s.cn.fail(ErrDone)
	}
	s.cn = nil
}

// sessionConn returns a connection for a new session: the last one an
// ended session gave back that is still open, or a new dial of the
// primary.
func (c *Client) sessionConn() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	for k := len(c.idle); k > 0; k-- {
		cn := c.idle[k-1]
		c.idle[k-1], c.idle = nil, c.idle[:k-1]
		if !cn.isDead() {
			c.mu.Unlock()
			return cn, nil
		}
	}
	addr := c.addr
	c.mu.Unlock()
	return dialConn(addr, c.o)
}

// keepIdle takes an ended session's connection for a later Begin, and
// reports false when PoolSize of them are kept already or the client is
// closed.
func (c *Client) keepIdle(cn *conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.idle) >= c.o.poolSize() {
		return false
	}
	c.idle = append(c.idle, cn)
	return true
}

// ---------------------------------------------------------------------------
// Request/response plumbing
// ---------------------------------------------------------------------------

// query sends op with the type images of ts, at most two, as its fields.
// The images are encoded into one of the client's image buffers, which is
// put back once the call returns.
func (h *handle) query(op byte, ts ...types.Type) ([][]byte, error) {
	c := h.c
	b := c.takeBuf()
	var ends [2]int
	for i, t := range ts {
		var err error
		if b, err = codec.AppendType(b, t); err != nil {
			// Every types.Type the package can produce is encodable; an
			// unencodable one is a programming error surfaced loudly.
			panic(fmt.Sprintf("client: unencodable type %s: %v", t, err))
		}
		ends[i] = len(b)
	}
	var imgs [2][]byte
	for i, start := 0, 0; i < len(ts); i++ {
		imgs[i], start = b[start:ends[i]], ends[i]
	}
	fields, err := h.call(op, imgs[:len(ts)]...)
	c.putBuf(b)
	return fields, err
}

// takeBuf returns one of the client's image buffers, empty, or nil when
// every kept one is in use.
func (c *Client) takeBuf() []byte {
	c.tmu.Lock()
	defer c.tmu.Unlock()
	var b []byte
	if k := len(c.tbufs); k > 0 {
		b, c.tbufs = c.tbufs[k-1], c.tbufs[:k-1]
	}
	return b
}

// putBuf gives back a buffer takeBuf returned, which the call it was taken
// for has done with: the request frame is a copy of it, and no reply
// aliases it. One over maxRetainedImageBuf is dropped.
func (c *Client) putBuf(b []byte) {
	if cap(b) > maxRetainedImageBuf {
		return
	}
	c.tmu.Lock()
	c.tbufs = append(c.tbufs, b[:0])
	c.tmu.Unlock()
}

// maxRetainedImageBuf caps each image buffer a client keeps.
const maxRetainedImageBuf = 4 << 10

// The reply decoders take a checked reply's fields and the round trip's
// error, so a verb is one decoder over one call.

func decodeGet(fields [][]byte, err error) ([]Packed, error) {
	if err != nil {
		return nil, err
	}
	n, err := codec.ReplyRows(fields)
	if err != nil {
		return nil, badValues(err)
	}
	out := make([]Packed, n)
	if err := codec.DecodeReply(fields, func(i int, v value.Value, t types.Type) {
		out[i] = Packed{Value: v, Witness: t}
	}); err != nil {
		return nil, badValues(err)
	}
	return out, nil
}

// badValues is the refusal of a VALUES reply the codec could not read.
func badValues(err error) error {
	return &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed VALUES reply: " + err.Error()}
}

// decodeBool decodes a reply carrying one boolean field (the existed bit
// of DELETE, the created/existed bit of the index opcodes).
func decodeBool(fields [][]byte, err error) (bool, error) {
	if err != nil {
		return false, err
	}
	if len(fields) != 1 || len(fields[0]) != 1 {
		return false, &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed boolean response"}
	}
	return fields[0][0] == 1, nil
}

// decodeText decodes a reply carrying one text field (EXPLAIN).
func decodeText(fields [][]byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	if len(fields) != 1 {
		return "", &wire.WireError{Code: wire.CodeBadFrame, Msg: "malformed EXPLAIN response"}
	}
	return string(fields[0]), nil
}

func decodeHealth(fields [][]byte, err error) (Health, error) {
	if err != nil {
		return Health{}, err
	}
	return wire.DecodeHealth(fields)
}

// ---------------------------------------------------------------------------
// conn: one pipelining connection
// ---------------------------------------------------------------------------

type result struct {
	op     byte
	fields [][]byte
	err    error
}

// pendingSlot is one in-flight request awaiting its FIFO-matched
// response: the channel its caller waits on, the trace ID it was stamped
// with so the reader can verify the server's echo, and its deadline, zero
// for none.
type pendingSlot struct {
	ch       chan result
	trace    uint64
	deadline time.Time
}

// conn is a single connection with FIFO request pipelining: writers queue
// a response slot and write their frame under wmu (so slot order equals
// frame order), and the reader goroutine delivers responses to slots in
// order.
//
// A request's deadline is enforced as the reader's read deadline. Every
// request on a connection has the same timeout and its deadline is set as
// it is queued, so the head of the queue has the earliest; the read
// deadline is the head's, set under mu whenever the head changes, and a
// read that fails past it fails the connection with ErrDeadline.
type conn struct {
	nc       net.Conn
	maxFrame int

	wmu  sync.Mutex // serializes {enqueue, encode, write}
	wbuf []byte     // reused frame-encode buffer, guarded by wmu

	mu sync.Mutex
	// ring holds the in-flight requests in frame order, n of them from
	// ring[head]; it grows when full, and is otherwise reused.
	ring    []pendingSlot
	head, n int
	// armed is the read deadline last set: the head's, zero for none.
	armed time.Time
	// free holds result channels to reuse: a request's channel receives
	// exactly one result, which its caller takes before putting it back.
	free []chan result
	dead error // sticky; set once by fail
}

// maxRetainedWriteBuf caps the encode buffer kept across requests: one
// oversized PUT must not pin its payload's worth of memory on the
// connection forever.
const maxRetainedWriteBuf = 64 << 10

func dialConn(addr string, o Options) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, o.dialTimeout())
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, maxFrame: o.maxFrame()}
	go c.readLoop()
	return c, nil
}

func (c *conn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead != nil
}

// push queues s behind the in-flight requests; the caller holds mu.
func (c *conn) push(s pendingSlot) {
	if c.n == len(c.ring) {
		ring := make([]pendingSlot, max(4, 2*len(c.ring)))
		for i := range c.n {
			ring[i] = c.ring[(c.head+i)%len(c.ring)]
		}
		c.ring, c.head = ring, 0
	}
	c.ring[(c.head+c.n)%len(c.ring)] = s
	c.n++
	if c.n == 1 {
		c.arm()
	}
}

// pop dequeues the head request; the caller holds mu and has checked
// that one is in flight.
func (c *conn) pop() pendingSlot {
	s := c.ring[c.head]
	c.ring[c.head] = pendingSlot{}
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	return s
}

// arm sets the read deadline to the head request's, or to none when
// nothing is in flight; the caller holds mu.
func (c *conn) arm() {
	var d time.Time
	if c.n > 0 {
		d = c.ring[c.head].deadline
	}
	if !d.Equal(c.armed) {
		c.armed = d
		c.nc.SetReadDeadline(d)
	}
}

// fail marks the connection dead, closes it, and delivers err to every
// in-flight request. Idempotent.
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.dead = err
	for c.n > 0 {
		c.pop().ch <- result{err: err} // buffered, and empty until now
	}
	c.mu.Unlock()
	c.nc.Close()
}

func (c *conn) readLoop() {
	// The reply frames are read into fresh slices: a reply's values alias
	// its frame, and its caller keeps them.
	r := wire.NewFrameReader(c.nc, c.maxFrame, 0)
	for {
		rawOp, rawFields, err := r.ReadFrame()
		c.mu.Lock()
		if c.dead != nil {
			// The connection was failed, and closed, from outside: a
			// finished Session or a Close. That closing is what ended the
			// read, and every request in flight has its answer already.
			c.mu.Unlock()
			return
		}
		if err != nil {
			// The read deadline is the head request's: a read that fails
			// once it has passed is that request's timeout.
			if c.n > 0 && !c.armed.IsZero() && !time.Now().Before(c.armed) {
				err = ErrDeadline
			} else {
				err = fmt.Errorf("%w: %w", ErrConnLost, err)
			}
			c.mu.Unlock()
			c.fail(err)
			return
		}
		if c.n == 0 {
			c.mu.Unlock()
			c.fail(&wire.WireError{Code: wire.CodeBadFrame, Msg: "unsolicited response"})
			return
		}
		slot := c.pop()
		c.arm()
		c.mu.Unlock()
		// Strip the server's trace echo. An untraced response is tolerated
		// (a server reports a request it could not read untraced); a
		// response carrying a different trace than the head-of-line request
		// means FIFO matching has desynchronized, and every answer on this
		// connection is suspect — kill it. Both failure modes wrap
		// ErrConnLost, so idempotent and key-stamped requests retry.
		op, trace, fields, traced, terr := wire.SplitTrace(rawOp, rawFields)
		if terr != nil {
			werr := fmt.Errorf("%w: %w", ErrConnLost, terr)
			c.fail(werr)
			slot.ch <- result{err: werr}
			return
		}
		if traced && trace != slot.trace {
			werr := fmt.Errorf("%w: trace mismatch: response carries %#x, request sent %#x",
				ErrConnLost, trace, slot.trace)
			c.fail(werr)
			slot.ch <- result{err: werr}
			return
		}
		slot.ch <- result{op: op, fields: fields}
	}
}

// roundTrip writes one request and waits for its response. Concurrent
// callers pipeline: their frames are written back to back and answered in
// order. timeout covers the whole round trip from the moment the request
// is queued; on expiry the connection is killed (responses can no longer
// be matched) and redialed by the pool on next use.
func (c *conn) roundTrip(timeout time.Duration, op byte, fields ...[]byte) (byte, [][]byte, error) {
	c.wmu.Lock()
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, err
	}
	slot := pendingSlot{trace: nextTrace()}
	if k := len(c.free); k > 0 {
		slot.ch, c.free = c.free[k-1], c.free[:k-1]
	} else {
		slot.ch = make(chan result, 1)
	}
	if timeout > 0 {
		slot.deadline = time.Now().Add(timeout)
	}
	c.push(slot)
	c.mu.Unlock()
	c.nc.SetWriteDeadline(slot.deadline)
	// Encode into the connection's reused buffer and write in one syscall.
	// Trace stamping this way costs zero allocations (E15 addendum in
	// EXPERIMENTS.md): AppendTracedFrame splices the trace field into the
	// frame in place, where the old AppendTrace-then-WriteFrame pair built
	// a fresh field slice and a fresh frame buffer per request.
	buf, err := wire.AppendTracedFrame(c.wbuf[:0], c.maxFrame, op, slot.trace, fields...)
	if err == nil {
		c.wbuf = buf
		if cap(c.wbuf) > maxRetainedWriteBuf {
			c.wbuf = nil
		}
		_, err = c.nc.Write(buf)
	}
	c.wmu.Unlock()
	if err != nil {
		// fail delivers to every queued slot, ours included, unless the
		// response won the race: the frame reached the server despite the
		// reported write error, and the reader matched its answer to our
		// slot before fail drained it.
		c.fail(fmt.Errorf("%w: write failed: %w", ErrConnLost, err))
	}
	r := <-slot.ch
	c.mu.Lock()
	c.free = append(c.free, slot.ch)
	c.mu.Unlock()
	return r.op, r.fields, r.err
}
