// Package server is `dbpl serve`: a concurrent TCP front end that exposes
// the paper's operations — the generic Get, PUT/DELETE on named handles,
// the generalized-relation join, and commit groups — to many remote
// programs at once. "Orthogonal Persistence Revisited" (PAPERS.md) argues
// the persistent-store abstraction earns its keep precisely when shared by
// concurrent programs; this package is that sharing.
//
// # Architecture
//
// The server owns one intrinsic store (durability) and publishes, through
// an atomic pointer, an immutable *state*: the store's committed root
// table itself (Store.Committed — one root table, not a copy kept in
// step) plus one index.Set — the maintained extents over the same
// dynamics, the only membership structure. Index definitions are not part
// of it: they live in the store's log alone, which answers
// CREATEINDEX/DROPINDEX. Every
// read (GET, JOIN, NAMES, EXPLAIN) answers from one state; outside a
// transaction that is the published one: readers load the pointer and
// run lock-free against that snapshot — they can never
// observe a commit in progress, because the pointer is swapped only after
// the store's commit group is durable. Writers buffer per session and
// hand each commit to one committer goroutine (coalesce.go), which
// serializes through commitMu: bind the batch's dynamics in the store's
// working table as the handlers built them (one conformance check per
// PUT), stage each commit as one commit group (StageBound: the store walks
// only the roots just bound, which is sound because this server binds
// freshly decoded values and never mutates a published one), sync the
// batch, then publish the next state (the store's new committed table and
// the index.Set advanced by the delta, each sharing every node the delta
// did not touch). Under the default per-commit durability a batch is one
// commit; under group it is whatever queued, up to 64. In both modes a
// writer is answered only after the sync, so an acknowledged write is
// durable. If the store commit fails, store.AbortBound() restores the
// store's working state to the last durable group without reading the
// log, and the published state is left untouched — the remote failure
// taxonomy (wire.CodeIO / wire.CodeCorrupt) mirrors the local one.
//
// # Sessions and transactions
//
// Each connection is a session. Outside BEGIN, PUT and DELETE autocommit
// (a one-operation commit group). BEGIN pins the session to the state
// current at that moment and buffers subsequent PUT/DELETE; the session's
// own reads answer from the state its COMMIT would publish over the pin —
// the same state.apply, over a Fork of the pinned index.Set
// (read-your-writes at repeatable-read isolation) — while every other
// session keeps reading the published committed state. COMMIT turns the
// buffer into one commit group; ABORT discards it. Conflicts are resolved
// last-writer-wins per root name at commit time.
//
// # Shutdown
//
// Shutdown closes the listener, interrupts idle reads, lets every
// in-flight request finish and its response flush, force-closes laggards
// when the context expires, and then closes the committer, which syncs
// the batch it holds before it exits. Shutdown appends nothing of its
// own: restarting an idle server leaves its log byte-identical. It is the
// same path cmd/dbpl routes SIGINT and SIGTERM through.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/pmap"
	"dbpl/internal/relation"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	rtrace "dbpl/internal/telemetry/trace"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// ErrServerClosed is returned by Serve after Shutdown completes the drain.
var ErrServerClosed = errors.New("server: closed")

// Config tunes a Server. The zero value is usable.
type Config struct {
	// MaxFrame bounds request and response payloads; 0 means
	// wire.MaxFrame.
	MaxFrame int
	// MaxInFlight is the admission-control cap: the number of requests
	// allowed to execute concurrently across all connections. A request
	// past the cap is shed immediately with CodeOverloaded and a
	// retry-after hint — it is never queued, so load cannot pile up
	// behind a slow disk. The monitor class (HEALTH, STATS, TRACES) is
	// exempt, so a monitor can always ask an overloaded server how
	// overloaded it is (docs/SERVER.md, "Request classes"). 0 means 1024;
	// negative disables the cap.
	MaxInFlight int
	// IdemCacheSize bounds the LRU of applied write ids that deduplicates
	// retried PUT/DELETE/COMMIT frames carrying idempotency keys; 0 means
	// 4096, negative disables deduplication.
	IdemCacheSize int
	// Registry receives the server's metrics (and is served by STATS and
	// the ops endpoint). Pass the registry the store's instrumented FS
	// writes to and one snapshot covers both layers; nil means a fresh
	// private registry. Telemetry is always on — E15 measures its cost.
	Registry *telemetry.Registry
	// SlowOpThreshold is the duration at or above which a request is
	// recorded in the trace ring whether or not head sampling chose it,
	// force-retained; 0 means 10ms, negative records every request
	// (useful under test).
	SlowOpThreshold time.Duration
	// Logf, when set, receives one line per accepted connection error and
	// per protocol violation. nil discards.
	Logf func(format string, args ...any)
	// Follow, when non-empty, makes this server a read-only replication
	// follower of the primary at that address: it streams the primary's
	// log via REPLICATE, applies each verified commit group to its own log
	// and published state, serves reads, and refuses every write with
	// CodeReadOnly. See docs/REPLICATION.md.
	Follow string
	// AllowPromote enables the PROMOTE opcode on this server: a follower
	// may be promoted to primary (failover), and a primary may bump its
	// epoch. Off by default — promotion rewrites who may ack writes, so
	// every failover-enabled node must opt in explicitly (the serve verb's
	// -allow-promote flag). Fence *notifications* are always accepted:
	// refusing to learn about a higher epoch would defeat fencing.
	AllowPromote bool
	// ReplHeartbeat is the heartbeat interval this server asks for as a
	// follower: its REPLICATE request carries it, the primary heartbeats
	// an idle stream at it, and the follower declares the link dead after
	// 4 missed heartbeats and redials with jittered backoff. A primary
	// heartbeats each stream at the interval its subscriber asked for,
	// whatever its own setting. 0 means 1s; it is clamped to [10ms, 60s].
	ReplHeartbeat time.Duration
	// Durability selects how many commits share one fsync, and is the
	// committer's only setting. Both modes run the same committer, whose
	// batch is whatever queued while the previous fsync ran, and ack every
	// write after its fsync: DurPerCommit (default) caps the batch at one
	// commit group, DurGroup lets up to 64 concurrent commits share one
	// fsync. See coalesce.go and docs/PERSISTENCE.md.
	Durability Durability
	// TraceSampleRate is the head-sampling probability for span-based
	// request tracing: that share of requests (by uniform trace ID)
	// record a full span tree into the trace ring, fetchable via TRACES
	// / `dbpl trace` / the ops endpoint's /traces. 0 (the default)
	// samples nothing — an unsampled request costs one nil check per
	// span site; >= 1 traces everything. A request at or past
	// SlowOpThreshold is recorded force-retained regardless of ring
	// pressure: its span tree when sampled, else its root span alone.
	// See docs/OBSERVABILITY.md.
	TraceSampleRate float64
	// TraceRingSize bounds the ring of completed trace trees; 0 means
	// 256, negative disables the ring: no sampled and no slow request is
	// recorded.
	TraceRingSize int
}

func (c Config) maxFrame() int {
	if c.MaxFrame <= 0 {
		return wire.MaxFrame
	}
	return c.MaxFrame
}

func (c Config) maxInFlight() int64 {
	if c.MaxInFlight == 0 {
		return 1024
	}
	if c.MaxInFlight < 0 {
		return 0 // uncapped
	}
	return int64(c.MaxInFlight)
}

func (c Config) idemCacheSize() int {
	if c.IdemCacheSize == 0 {
		return 4096
	}
	if c.IdemCacheSize < 0 {
		return 0 // disabled
	}
	return c.IdemCacheSize
}

func (c Config) slowOpThreshold() time.Duration {
	if c.SlowOpThreshold == 0 {
		return 10 * time.Millisecond
	}
	if c.SlowOpThreshold < 0 {
		return 0 // record everything
	}
	return c.SlowOpThreshold
}

func (c Config) replHeartbeat() time.Duration {
	if c.ReplHeartbeat <= 0 {
		return time.Second
	}
	return min(max(c.ReplHeartbeat, wire.MinReplHeartbeat), wire.MaxReplHeartbeat)
}

func (c Config) traceRingSize() int {
	if c.TraceRingSize == 0 {
		return 256
	}
	if c.TraceRingSize < 0 {
		return 0 // disabled
	}
	return c.TraceRingSize
}

// Fixed limits of every server.
const (
	// readTimeout bounds receiving the remainder of a request frame once
	// its header has arrived; an idle connection may block indefinitely.
	readTimeout = 30 * time.Second
	// writeTimeout bounds writing one response frame.
	writeTimeout = 30 * time.Second
	// retryAfterHint is the backoff hint attached to CodeOverloaded
	// refusals.
	retryAfterHint = 50 * time.Millisecond
	// replChunk is the soft size target of one REPDATA frame; a single
	// commit group larger than it is still shipped whole.
	replChunk = 256 << 10
)

// state is one immutable view of the database: the root bindings and the
// maintained extents over the same dynamics, from which every read
// answers. Published through Server.state, or built as a transaction's
// view (session.view); never mutated after publication. Both tables are
// persistent (internal/pmap), so a successor shares everything but the
// paths to what its commit changed.
//
// A published state also says what it was published for: the log end it
// covers, the trace ID of the batch that committed it (0 when none of its
// waiters was sampled, and on a follower or a promotion) with the wall
// clock of its publication, and next, closed when its successor is
// published. HEALTH reports end and a replication streamer ships up to
// it, stamps the frame that ends there and waits on next, all from the
// one state it loaded. A transaction's view leaves them zero.
type state struct {
	roots pmap.Map[*dynamic.Dynamic]
	idx   *index.Set

	end   int64
	trace uint64
	ns    int64
	next  chan struct{}
}

// stateOf builds the state over a root table in one pass, the index set
// inserting its dynamics in name order. The index set rebuilds from the
// store's committed roots on every open, so it can never be ahead of the
// durable state — the crash-matrix invariant.
func stateOf(roots pmap.Map[*dynamic.Dynamic]) *state {
	members := make([]*dynamic.Dynamic, 0, roots.Len())
	roots.Range(func(_ string, d *dynamic.Dynamic) bool {
		members = append(members, d)
		return true
	})
	return &state{roots: roots, idx: index.Rebuild(members)}
}

// apply returns a transaction view's state with ops applied: each root op
// edits the name it binds in the persistent root table, and the index set
// advances by the same membership delta (COW, single successor), so the
// previous state stays valid for readers holding it and the cost is
// O(changed · log n) plus the extents the removals rewrite. Index DDL ops
// change nothing a read consults and are skipped. The returned stats
// report the index-maintenance work done. (A commit edits only the store's
// working table and publishes the store's committed one; see coalesce.go.)
func (st *state) apply(ops []txnOp) (*state, index.ApplyStats) {
	next := &state{roots: st.roots, idx: st.idx}
	iops := make([]index.Op, 0, len(ops))
	for _, o := range ops {
		if o.index {
			continue
		}
		var iop index.Op
		if old, ok := next.roots.Get(o.name); ok {
			iop.Remove = old
		}
		if o.del {
			next.roots = next.roots.Delete(o.name)
		} else {
			next.roots = next.roots.Set(o.name, o.dyn)
			iop.Add = o.dyn
		}
		if iop.Remove != nil || iop.Add != nil {
			iops = append(iops, iop)
		}
	}
	var stats index.ApplyStats
	if len(iops) > 0 {
		next.idx, stats = next.idx.Apply(iops)
	}
	return next, stats
}

// txnOp is one write of a commit: bind name to dyn, or delete it (del).
// With index set it is index DDL instead, on the field name: declare the
// field-value index, or drop it (del). Only the store records it (the
// committer calls DeclareIndex/DropIndexDef); state.apply skips it.
type txnOp struct {
	name  string
	dyn   *dynamic.Dynamic
	del   bool
	index bool
}

// Server serves the dbpl wire protocol over an intrinsic store.
type Server struct {
	cfg   Config
	store *intrinsic.Store

	// state is the published committed view; see the package comment.
	// Only New and publish store it.
	state atomic.Pointer[state]
	// commitMu serializes writers end to end: store mutation, commit
	// group, state publication.
	commitMu sync.Mutex
	// mode is the write mode (see mode), loaded lock-free: HEALTH has to
	// report it even while a wedged commit is holding commitMu.
	mode atomic.Pointer[mode]
	// idem (guarded by commitMu) deduplicates retried writes; see idem.go.
	idem *idemCache

	// m is the always-on metric set; m.inflight is the admission-control
	// gauge (requests admitted, response not yet produced).
	m     *serverMetrics
	start time.Time

	// traces is the ring of completed span trees, nil when
	// cfg.TraceRingSize disables it; it holds the sampled requests and the
	// slow ones. sampler is the head-sampling decision, consulted only
	// when the sample rate is positive: an unsampled request carries a nil
	// *rtrace.Trace, and each span site then costs one nil check — the E20
	// overhead budget.
	traces  *rtrace.Ring
	sampler rtrace.Sampler

	draining atomic.Bool
	mu       sync.Mutex // guards ln, conns
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// shutdownCh is closed when Shutdown begins, waking replication
	// streamers and the follow loop, which never sit in deadline-
	// interruptible request reads.
	shutdownCh   chan struct{}
	shutdownOnce sync.Once
	// follower is the follow-loop state, nil unless cfg.Follow is set.
	follower *followerState

	// commitCh feeds the committer goroutine, the one path every commit
	// takes in every durability mode. committerDone closes when the
	// committer has drained the queue and exited; committerStop guards the
	// close of commitCh (Shutdown may be called twice). See coalesce.go.
	commitCh      chan *commitReq
	committerDone chan struct{}
	committerStop sync.Once
}

// mode is the server's write mode, one immutable value: the replication
// role — RolePrimary acks writes, RoleFollower refuses them naming the
// upstream, RoleFenced is a demoted primary that observed a higher
// promotion epoch and refuses them naming successor ("" when unknown: the
// fence was inferred from a replication stream, not a notification) — and
// poisoned, set when a failed commit could not be rolled back: the store
// could not trim the failed batch's bytes from its log, and any further
// commit group would land behind them. The role
// starts from cfg.Follow. Only promote, fence and rollback replace the
// value, each under commitMu, so no write decision can race a transition
// (the double-ack discipline).
type mode struct {
	role      wire.Role
	successor string
	poisoned  error
}

// New builds a server over an opened store, deriving the initial
// published state from the store's committed roots. When cfg.Follow is
// set, the store enters replica mode (local writes refused from here on)
// and the follow loop starts immediately — the server replicates even
// before Serve is called.
func New(store *intrinsic.Store, cfg Config) (*Server, error) {
	role := wire.RolePrimary
	if cfg.Follow != "" {
		store.EnterReplica()
		role = wire.RoleFollower
	}
	st := stateOf(store.Committed())
	st.end, st.next = store.DurableEnd(), make(chan struct{})
	srv := &Server{cfg: cfg, store: store, conns: map[net.Conn]struct{}{}, start: time.Now()}
	srv.mode.Store(&mode{role: role})
	srv.shutdownCh = make(chan struct{})
	if n := cfg.idemCacheSize(); n > 0 {
		srv.idem = newIdemCache(n)
	}
	srv.state.Store(st)
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	srv.m = newServerMetrics(reg)
	// Derived gauges: values that already live elsewhere, captured at
	// snapshot time so HEALTH, STATS and /metrics all read one consistent
	// Snapshot instead of re-loading atomics field by field.
	reg.GaugeFunc("dbpl_server_uptime_ns", func() int64 { return int64(time.Since(srv.start)) })
	reg.GaugeFunc("dbpl_server_roots", func() int64 { return int64(srv.state.Load().roots.Len()) })
	reg.GaugeFunc("dbpl_index_extents", func() int64 { return int64(srv.state.Load().idx.Types()) })
	reg.GaugeFunc("dbpl_server_degraded", func() int64 {
		if srv.mode.Load().poisoned != nil {
			return 1
		}
		return 0
	})
	// The durable end a reader can rely on: the end the published state
	// covers. A follower's store end moves when a group is applied, before
	// the state that serves it is published, and a client that saw the
	// store's end would route a read-your-writes GET here one step early.
	reg.GaugeFunc("dbpl_store_durable_end", func() int64 { return srv.state.Load().end })
	// Failover observability: the promotion epoch (the store's, so it is
	// exactly what the log holds) and the current role, for HEALTH, STATS
	// and /metrics — a client picks the new primary as the highest-epoch
	// node reporting RolePrimary.
	reg.GaugeFunc("dbpl_server_epoch", func() int64 { return int64(store.Epoch()) })
	reg.GaugeFunc("dbpl_repl_role", func() int64 { return int64(srv.mode.Load().role) })
	if n := cfg.traceRingSize(); n > 0 {
		srv.traces = rtrace.NewRing(n)
		srv.sampler = rtrace.NewSampler(cfg.TraceSampleRate)
	}
	if cfg.Follow != "" {
		f := &followerState{done: make(chan struct{}), stop: make(chan struct{})}
		srv.follower = f
		// Lag from the published end, as dbpl_store_durable_end and HEALTH
		// report it, so the three agree within one snapshot.
		reg.GaugeFunc("dbpl_repl_lag_bytes", func() int64 {
			if lag := f.primaryEnd.Load() - srv.state.Load().end; lag > 0 {
				return lag
			}
			return 0
		})
		go srv.followLoop()
	}
	// The committer always starts — even on a follower, where it idles: a
	// promoted follower must be able to ack writes immediately, and
	// starting the goroutine late would race every reader of commitCh.
	// Sized to one batch: a full batch can queue while the committer syncs
	// the previous one.
	srv.commitCh = make(chan *commitReq, cfg.Durability.maxBatch())
	srv.committerDone = make(chan struct{})
	go srv.committerLoop()
	return srv, nil
}

// Telemetry returns the server's metrics registry (the one STATS and the
// ops endpoint serve).
func (s *Server) Telemetry() *telemetry.Registry { return s.m.reg }

// Traces returns the retained completed trace trees, newest first; nil
// when the ring is disabled.
func (s *Server) Traces() []rtrace.Data {
	if s.traces == nil {
		return nil
	}
	return s.traces.Snapshot()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Addr returns the listening address, nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown, returning
// ErrServerClosed after a clean drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.draining.Load() {
		ln.Close()
		return ErrServerClosed
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Shutdown drains the server: no new connections or requests are
// accepted, requests already received run to completion and their
// responses flush, and the committer syncs what it holds and exits. When
// ctx expires first, remaining connections are force-closed. Shutdown
// appends nothing to the log, so a second call is harmless, and it
// returns nil: a poisoned write path stays visible in HEALTH and in
// every refused write. The store is left open — the caller owns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Wake replication streamers (select-blocked, not read-blocked) and the
	// follow loop, and sever the follower's upstream link so its blocked
	// stream read fails now rather than at the heartbeat deadline.
	s.shutdownOnce.Do(func() { close(s.shutdownCh) })
	if s.follower != nil {
		s.follower.closeConn()
	}
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Interrupt idle reads: a session blocked waiting for the next request
	// header wakes with a deadline error and exits; a session mid-handle
	// is untouched (writes have their own deadline) and finishes.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}

	if s.follower != nil {
		<-s.follower.done
	}

	// Every request handler has returned (wg), so no writer can enqueue
	// again: close the commit queue and wait for the committer. It syncs
	// each batch before it acks it and takes the next, so once it has
	// exited every queued write is durable.
	s.committerStop.Do(func() { close(s.commitCh) })
	<-s.committerDone
	return nil
}

// session is the per-connection protocol state.
type session struct {
	srv   *Server
	inTxn bool
	base  *state // snapshot pinned at BEGIN
	ops   []txnOp
	// cur is base with ops applied, built by view on the first read after
	// a buffered write and dropped by buffer; nil until then.
	cur *state
	// tr is the current request's span tree, nil when the request is
	// unsampled. Set by serveConn around each dispatch; handlers thread
	// it into the exec and commit spans.
	tr *rtrace.Trace
	// frame is the buffer serveConn encodes replies into, kept while it
	// is at most maxRetainedFrame.
	frame []byte
	// peer is the connection's remote address, read when the ring first
	// records one of its requests.
	peer string
}

// maxRetainedFrame caps the reply buffer a session keeps between
// requests: one large reply must not pin its size on an idle connection.
const maxRetainedFrame = 64 << 10

// view returns the one state every read of the session answers from:
// outside a transaction the published state, inside one the state its
// COMMIT would publish over the pinned snapshot. That is base itself
// while nothing is buffered, else state.apply of the buffer over a Fork
// of base's index.Set: base is a published Set whose lineage keeps
// advancing, so applying to it directly would append into extents the
// committer appends to too (the single-successor rule).
func (sess *session) view(s *Server) *state {
	switch {
	case !sess.inTxn:
		return s.state.Load()
	case len(sess.ops) == 0:
		return sess.base
	case sess.cur == nil:
		sess.cur, _ = (&state{roots: sess.base.roots, idx: sess.base.idx.Fork()}).apply(sess.ops)
	}
	return sess.cur
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	s.m.sessions.Add(1)
	defer s.m.sessions.Add(-1)
	sess := &session{srv: s}
	for {
		if s.draining.Load() {
			return // an implicit abort of any open transaction
		}
		op, trace, fields, traced, err := s.readRequest(conn)
		if err != nil {
			var we *wire.WireError
			if errors.As(err, &we) {
				// Protocol violation (a framing error or a malformed trace
				// field): report it, then close — the stream is not
				// trustworthy past it.
				s.logf("server: %v: %v", conn.RemoteAddr(), we)
				conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				wire.WriteFrame(conn, s.cfg.maxFrame(), wire.OpError, wire.ErrorFields(we)...)
			}
			return
		}
		class := wire.Lookup(op).Class
		// The stream row consumes the connection: it becomes a one-way
		// stream of REPDATA frames until the peer hangs up or
		// we drain. Trace IDs are per-request and do not apply to a stream.
		if class == wire.ClassStream {
			s.m.requests[op].Inc()
			routes[op].stream(s, conn, fields)
			return
		}
		began := time.Now()
		// The ring records this request when head sampling picks it — the
		// wire trace ID, or a server-minted one when the client did not
		// stamp, decides — or when it turns out slow. The monitor class is
		// never recorded — HEALTH polls every second on a replica set and
		// TRACES would record its own fetch; their traces are noise that
		// would churn the ring. Nor is PING: every client dial sends one,
		// so each run of a monitoring CLI would record its PING in the ring
		// it reads.
		recorded := s.traces != nil && class != wire.ClassMonitor && op != wire.OpPing
		var tr *rtrace.Trace
		if recorded && s.cfg.TraceSampleRate > 0 {
			id := trace
			if id == 0 {
				id = rtrace.NextID()
			}
			if s.sampler.Sample(id) {
				tr = rtrace.New(id, wire.OpName(op))
			}
		}
		sess.tr = tr
		var respOp byte
		var respFields [][]byte
		// Admission control: a request past the in-flight cap is shed here
		// — typed refusal with a backoff hint, nothing executed, nothing
		// queued — so overload cannot grow the server's memory or wedge
		// its handlers. The monitor class bypasses the gate (and is not
		// counted): a monitor must get an answer from exactly the server
		// that is refusing everyone else.
		if class == wire.ClassMonitor {
			respOp, respFields = s.handle(sess, op, fields)
		} else if s.admit() {
			respOp, respFields = s.handle(sess, op, fields)
			s.m.inflight.Add(-1)
		} else {
			s.m.shed.Inc()
			respOp, respFields = errResp(&wire.WireError{
				Code:       wire.CodeOverloaded,
				Msg:        "server overloaded: in-flight request cap reached",
				RetryAfter: retryAfterHint,
			})
		}
		sess.tr = nil
		dur := time.Since(began)
		slow := recorded && dur >= s.cfg.slowOpThreshold()
		s.m.observe(op, dur, respOp, respFields)
		if tr != nil || slow {
			var d rtrace.Data
			if tr != nil {
				tr.Finish()
				d = tr.Data()
			} else {
				// A slow unsampled request keeps the client's wire trace as
				// its ID, or is minted one.
				id := trace
				if id == 0 {
					id = rtrace.NextID()
				}
				name := wire.OpName(op)
				d = rtrace.Data{ID: id, Op: name, Begin: began,
					Spans: []rtrace.Span{{Name: name, Parent: rtrace.NoSpan, Dur: dur}}}
			}
			// The facts only the reply settles: who asked, how many reply
			// bytes, which error.
			if sess.peer == "" {
				sess.peer = conn.RemoteAddr().String()
			}
			d.Session = sess.peer
			for _, f := range respFields {
				d.Bytes += len(f)
			}
			if code, ok := replyCode(respOp, respFields); ok {
				d.Err = code.String()
			}
			// A slow request is force-retained: the trace that explains it
			// must survive ring churn until an operator fetches it.
			s.traces.Record(d, slow)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		frame, err := s.appendReply(sess.frame[:0], respOp, respFields, trace, traced)
		if we, ok := err.(*wire.WireError); ok && we.Code == wire.CodeTooLarge {
			// The reply does not fit a frame. Nothing was written, so the
			// stream is intact: send the typed refusal and keep serving.
			respOp, respFields = errResp(&wire.WireError{Code: wire.CodeTooLarge, Msg: "reply " + we.Msg})
			frame, err = s.appendReply(sess.frame[:0], respOp, respFields, trace, traced)
		}
		if err == nil {
			_, err = conn.Write(frame)
		}
		if cap(frame) <= maxRetainedFrame {
			sess.frame = frame
		}
		if err != nil {
			return
		}
		conn.SetWriteDeadline(time.Time{})
	}
}

// appendReply appends the reply frame to dst, echoing the request's trace
// if it carried one, so the client can tie the reply to its call; see
// docs/OBSERVABILITY.md.
func (s *Server) appendReply(dst []byte, op byte, fields [][]byte, trace uint64, traced bool) ([]byte, error) {
	if traced {
		return wire.AppendTracedFrame(dst, s.cfg.maxFrame(), op, trace, fields...)
	}
	return wire.AppendFrame(dst, s.cfg.maxFrame(), op, fields...)
}

// admit claims an in-flight slot, reporting false (shed) when the cap is
// reached. The caller must release the slot with m.inflight.Add(-1) once
// the response is produced. The in-flight gauge doubles as the admission
// counter — Gauge.Add returns the post-increment value, exactly like the
// bare atomic it replaced.
func (s *Server) admit() bool {
	n := s.m.inflight.Add(1)
	if cap := s.cfg.maxInFlight(); cap > 0 && n > cap {
		s.m.inflight.Add(-1)
		return false
	}
	return true
}

// readRequest reads one request frame and strips its trace extension, so
// every handler sees the base opcode; a malformed trace field is a
// protocol violation like a framing error. The wait for the header may
// block indefinitely (idle connection; Shutdown interrupts it via read
// deadline); once the header has arrived the remainder must land within
// readTimeout.
func (s *Server) readRequest(conn net.Conn) (op byte, trace uint64, fields [][]byte, traced bool, err error) {
	conn.SetReadDeadline(time.Time{})
	// Re-check draining after clearing the deadline: Shutdown may have set
	// its wake-up deadline between our caller's check and the clear above,
	// and it must not be lost or this connection idles until force-close.
	if s.draining.Load() {
		conn.SetReadDeadline(time.Now())
	}
	rawOp, rawFields, err := wire.ReadFrame(&deadlineReader{conn: conn}, s.cfg.maxFrame())
	if err != nil {
		return 0, 0, nil, false, err
	}
	return wire.SplitTrace(rawOp, rawFields)
}

// deadlineReader arms the body deadline after the first successful read
// (the frame header), bounding how long a half-sent request can hold the
// session.
type deadlineReader struct {
	conn    net.Conn
	started bool
}

func (d *deadlineReader) Read(p []byte) (int, error) {
	n, err := d.conn.Read(p)
	if err == nil && !d.started {
		d.started = true
		d.conn.SetReadDeadline(time.Now().Add(readTimeout))
	}
	return n, err
}

// route is one row of the request table: the handler of a wire.Ops row.
// Handlers are method expressions, so dispatch allocates nothing.
type route struct {
	handle func(*Server, *session, [][]byte) (byte, [][]byte)
	stream func(*Server, net.Conn, [][]byte) // the stream row's, instead of handle
}

// routes is the request table, indexed by opcode: one row per wire.Ops
// row, holding only its handler. The row's class and arity come from
// wire.Ops.
var routes = [wire.LastRequestOp + 1]route{
	wire.OpPing:        {handle: (*Server).handlePing},
	wire.OpGet:         {handle: (*Server).handleGet},
	wire.OpPut:         {handle: (*Server).handlePut},
	wire.OpDelete:      {handle: (*Server).handleDelete},
	wire.OpJoin:        {handle: (*Server).handleJoin},
	wire.OpBegin:       {handle: (*Server).handleBegin},
	wire.OpCommit:      {handle: (*Server).handleCommit},
	wire.OpAbort:       {handle: (*Server).handleAbort},
	wire.OpNames:       {handle: (*Server).handleNames},
	wire.OpHealth:      {handle: (*Server).handleHealth},
	wire.OpStats:       {handle: (*Server).handleStats},
	wire.OpCreateIndex: {handle: (*Server).handleCreateIndex},
	wire.OpDropIndex:   {handle: (*Server).handleDropIndex},
	wire.OpExplain:     {handle: (*Server).handleExplain},
	wire.OpReplicate:   {stream: (*Server).streamReplicate},
	wire.OpPromote:     {handle: (*Server).handlePromote},
	wire.OpTraces:      {handle: (*Server).handleTraces},
}

// handle dispatches one request by its wire.Ops row and returns the
// response frame: the class gates first, then the row's arity, then the
// handler. All failures become OpError frames; a handler panic is
// confined to the request that caused it.
func (s *Server) handle(sess *session, op byte, fields [][]byte) (respOp byte, respFields [][]byte) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("server: panic handling op %#x: %v", op, p)
			respOp = wire.OpError
			respFields = wire.ErrorFields(&wire.WireError{Code: wire.CodeInternal, Msg: fmt.Sprint(p)})
		}
	}()
	row := wire.Lookup(op)
	// The monitor class answers before the drain check: a server that is
	// shutting down (or poisoned) reports its state instead of only
	// refusing work.
	if row.Class != wire.ClassMonitor && s.draining.Load() {
		return errResp(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
	}
	// A non-primary refuses every write by role — distinct from
	// CodeDegraded (this server is healthy) and never retryable against
	// this server. PROMOTE is an admin row, not a write: a follower is
	// exactly what gets promoted.
	if row.Class == wire.ClassWrite {
		if we := s.refuseWrite(s.mode.Load(), false); we != nil {
			return errResp(we)
		}
	}
	if row.Class == wire.ClassNone {
		return errResp(&wire.WireError{Code: wire.CodeUnknownOp, Msg: fmt.Sprintf("opcode %#x", op)})
	}
	if err := row.CheckFields(len(fields)); err != nil {
		return errResp(toWireError(err))
	}
	return routes[op].handle(s, sess, fields)
}

func (s *Server) handlePing(*session, [][]byte) (byte, [][]byte) { return wire.OpOK, nil }

func (s *Server) handleBegin(sess *session, _ [][]byte) (byte, [][]byte) {
	if sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "BEGIN inside a transaction"})
	}
	sess.inTxn = true
	sess.base = s.state.Load()
	sess.ops = nil
	sess.cur = nil
	return wire.OpOK, nil
}

func (s *Server) handleCommit(sess *session, fields [][]byte) (byte, [][]byte) {
	if !sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "COMMIT outside a transaction"})
	}
	ops := sess.ops
	sess.endTxn()
	if _, err := s.commit(ops, keyOf(fields, 0), sess.tr); err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, nil
}

func (s *Server) handleAbort(sess *session, _ [][]byte) (byte, [][]byte) {
	if !sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "ABORT outside a transaction"})
	}
	sess.endTxn()
	return wire.OpOK, nil
}

// handleNames lists the root names of the session's view, sorted (the
// root table is ordered by name).
func (s *Server) handleNames(sess *session, _ [][]byte) (byte, [][]byte) {
	roots := sess.view(s).roots
	out := make([][]byte, 0, roots.Len())
	roots.Range(func(n string, _ *dynamic.Dynamic) bool {
		out = append(out, []byte(n))
		return true
	})
	return wire.OpOK, out
}

func (sess *session) endTxn() {
	sess.inTxn = false
	sess.base = nil
	sess.ops = nil
	sess.cur = nil
}

func errResp(we *wire.WireError) (byte, [][]byte) {
	return wire.OpError, wire.ErrorFields(we)
}

// refuseWrite builds the refusal of one write under m, nil when m takes
// it: CodeDegraded naming the poisoning (only when poison is set),
// CodeFenced for a demoted primary (naming its successor when known),
// CodeReadOnly for a follower (naming the upstream primary). The refusal
// is counted once, by its code in dbpl_server_errors_total, as the error
// reply it becomes. Dispatch gates on the role alone, so a poisoned
// primary still opens a transaction; the committer gates on poison, then
// the role, under commitMu, so a write admitted before a fence cannot be
// acked after it.
func (s *Server) refuseWrite(m *mode, poison bool) *wire.WireError {
	switch {
	case poison && m.poisoned != nil:
		return &wire.WireError{Code: wire.CodeDegraded, Msg: m.poisoned.Error()}
	case m.role == wire.RoleFenced:
		msg := "fenced: a primary with a higher promotion epoch exists; writes refused"
		if m.successor != "" {
			msg = fmt.Sprintf("fenced: the primary is now %s (higher promotion epoch); writes must go there", m.successor)
		}
		return &wire.WireError{Code: wire.CodeFenced, Msg: msg}
	case m.role == wire.RoleFollower:
		return &wire.WireError{Code: wire.CodeReadOnly,
			Msg: fmt.Sprintf("read-only replication follower of %s; writes must go to the primary", s.cfg.Follow)}
	}
	return nil
}

// toWireError folds any server-side failure into the wire taxonomy,
// preserving the message so the remote diagnosis matches the local one.
func toWireError(err error) *wire.WireError {
	var we *wire.WireError
	if errors.As(err, &we) {
		return we
	}
	code := wire.CodeInternal
	switch {
	case errors.Is(err, intrinsic.ErrNoRoot):
		code = wire.CodeNoRoot
	case errors.Is(err, intrinsic.ErrNotConforming):
		code = wire.CodeNotConforming
	case errors.Is(err, intrinsic.ErrInconsistent), errors.Is(err, intrinsic.ErrMigrationRequired):
		code = wire.CodeInconsistent
	case errors.Is(err, intrinsic.ErrCorrupt):
		code = wire.CodeCorrupt
	case errors.Is(err, iofault.ErrIOFailed), errors.Is(err, intrinsic.ErrPoisoned):
		code = wire.CodeIO
	case errors.Is(err, intrinsic.ErrClosed):
		code = wire.CodeShutdown
	case errors.Is(err, intrinsic.ErrReplica):
		code = wire.CodeReadOnly
	case errors.Is(err, intrinsic.ErrBadOffset), errors.Is(err, intrinsic.ErrBadGroup):
		code = wire.CodeBadRequest
	case errors.Is(err, codec.ErrCorrupt), errors.Is(err, codec.ErrBadMagic),
		errors.Is(err, codec.ErrBadVersion), errors.Is(err, codec.ErrLimitExceeded),
		errors.Is(err, codec.ErrUnsupported):
		code = wire.CodeBadRequest
	}
	return &wire.WireError{Code: code, Msg: err.Error()}
}

// badReq shortens the common decode-failure response.
func badReq(format string, args ...any) (byte, [][]byte) {
	return errResp(&wire.WireError{Code: wire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Reads: GET, JOIN, NAMES
// ---------------------------------------------------------------------------

// handleGet answers each member with the value bytes its dynamic keeps
// (dynamic.Image): written by the first GET that returns the member and
// shared by every copy of its index entry. A rebind or a delete publishes
// a new member, so a member's bytes are those of its value for as long
// as it is served.
func (s *Server) handleGet(sess *session, fields [][]byte) (byte, [][]byte) {
	ws, err := internTypes(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	idx := sess.view(s).idx
	n, _ := idx.MatchStats(ws[0])
	w := codec.NewReplyWriter(n)
	esp := sess.tr.Start(0, "exec")
	var ierr error
	idx.Walk(ws[0], func(e index.Entry) bool {
		img, err := e.Dyn.Image(codec.ValueBytes)
		if err != nil {
			ierr = err
			return false
		}
		w.RowBytes(img, e.Dyn.Type())
		return true
	})
	sess.tr.End(esp)
	if ierr != nil {
		return errResp(toWireError(ierr))
	}
	return valuesOf(&w)
}

// valuesOf answers with the reply w wrote.
func valuesOf(w *codec.ReplyWriter) (byte, [][]byte) {
	out, err := w.Fields()
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpValues, out
}

// internTypes decodes and interns the type images of a GET, JOIN or
// EXPLAIN request; their rows in wire.Ops allow at most two.
func internTypes(fields [][]byte) ([2]*types.Interned, error) {
	var ws [2]*types.Interned
	for i, f := range fields {
		t, err := wire.UnmarshalType(f)
		if err != nil {
			return ws, err
		}
		ws[i] = types.Intern(t)
	}
	return ws, nil
}

// handleJoin answers the generalized join in the paper's types: the member
// joining a left member declared at σ with a right one declared at τ ships
// at σ ⊓ τ, computed once per pair of witnesses and type generation
// (index.Set.Meet). A member ships at its most specific type
// (value.TypeOf) instead when the meet is uninhabited, which takes a
// quantified witness or a recursive one past types.Meet's unfolding bound,
// or when the member does not conform to it. Only a ⊥ the join filled can
// cause that: ⊥ conforms to every type, so a member declared {A: Int} may
// hold ⊥ at A, and joined with {A = 1.5} it holds a Float there. So only
// the members of pairs holding ⊥ are checked.
//
// Each side is read as its operand, kept while the side's extents are
// unchanged (operandOf), so a JOIN of unchanged extents builds no
// relation and no partition. When both relations are keyed, the pairs
// that join are the members (relation.EachPair), and a pair of records
// of atoms is written from the two members' stored value bytes
// (codec.ReplyWriter.RowMerged), with no joined value built. Such a pair
// holds no ⊥, so its row is at the meet. Any pair the merge cannot decide
// is joined as a value.
func (s *Server) handleJoin(sess *session, fields [][]byte) (byte, [][]byte) {
	ws, err := internTypes(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	st := sess.view(s)
	left, right := operandOf(st, ws[0]), operandOf(st, ws[1])
	plan := relation.PlanJoin(left.rel, right.rel)
	if !left.rel.Keyed() || !right.rel.Keyed() {
		joined, pairs := relation.JoinPairs(left.rel, right.rel, plan)
		w := codec.NewReplyWriter(joined.Len())
		for i, m := range joined.Members() {
			l, r := left.ws[pairs[i][0]], right.ws[pairs[i][1]]
			joinRow(&w, st.idx.Meet(l.dyn.Interned(), r.dyn.Interned()), m, l, r)
		}
		return valuesOf(&w)
	}
	w := codec.NewReplyWriter(plan.Pairs)
	relation.EachPair(left.rel, right.rel, plan, func(i, j int) { joinPair(&w, st.idx, left.ws[i], right.ws[j]) })
	return valuesOf(&w)
}

// joinPair adds the row of the join of two members of keyed relations,
// unless they conflict: merged from their value bytes when the merge
// decides, else joined as values.
func joinPair(w *codec.ReplyWriter, idx *index.Set, l, r witnessed) {
	meet := idx.Meet(l.dyn.Interned(), r.dyn.Interned())
	if meet != nil {
		a, errA := l.dyn.Image(codec.ValueBytes)
		b, errB := r.dyn.Image(codec.ValueBytes)
		if errA == nil && errB == nil && w.RowMerged(a, b, meet.Type()) != codec.Undecided {
			return
		}
	}
	if m, err := value.Join(l.dyn.Value(), r.dyn.Value()); err == nil {
		joinRow(w, meet, m, l, r)
	}
}

// joinRow adds the member m, the join of l and r, at meet, the meet of
// their witnesses, or at its most specific type.
func joinRow(w *codec.ReplyWriter, meet *types.Interned, m value.Value, l, r witnessed) {
	if meet == nil || (l.bottom || r.bottom) && !value.ConformsInterned(m, meet) {
		w.Row(m, value.TypeOf(m))
	} else {
		w.Row(m, meet.Type())
	}
}

// ---------------------------------------------------------------------------
// Writes: PUT, DELETE, commit
// ---------------------------------------------------------------------------

func (s *Server) handlePut(sess *session, fields [][]byte) (byte, [][]byte) {
	name := string(fields[0])
	if name == "" {
		return badReq("PUT with empty root name")
	}
	v, t, err := codec.DecodeTagged(fields[1])
	if err != nil {
		return errResp(toWireError(err))
	}
	d, err := dynamic.MakeAt(v, t)
	if err != nil {
		// The refusal names the declared type, which the request wrote
		// out, and not the value's: TypeOf shares record types as the
		// value shares records, and a type renders as its unfolding.
		return errResp(&wire.WireError{Code: wire.CodeNotConforming, Msg: "value does not conform to its declared type " + t.String()})
	}
	op := txnOp{name: name, dyn: d}
	if sess.inTxn {
		sess.buffer(op)
		return wire.OpOK, nil
	}
	if _, err := s.commit([]txnOp{op}, keyOf(fields, 2), sess.tr); err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, nil
}

func (s *Server) handleDelete(sess *session, fields [][]byte) (byte, [][]byte) {
	name := string(fields[0])
	if name == "" {
		return badReq("DELETE with empty root name")
	}
	op := txnOp{name: name, del: true}
	if sess.inTxn {
		_, existed := sess.view(s).roots.Get(name)
		sess.buffer(op)
		return wire.OpOK, [][]byte{boolField(existed)}
	}
	existed, err := s.commit([]txnOp{op}, keyOf(fields, 1), sess.tr)
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{boolField(existed[0])}
}

// ---------------------------------------------------------------------------
// Index administration: CREATEINDEX, DROPINDEX, EXPLAIN
// ---------------------------------------------------------------------------

func (s *Server) handleCreateIndex(sess *session, fields [][]byte) (byte, [][]byte) {
	return s.handleIndexDDL(sess, fields, "CREATEINDEX", false)
}

func (s *Server) handleDropIndex(sess *session, fields [][]byte) (byte, [][]byte) {
	return s.handleIndexDDL(sess, fields, "DROPINDEX", true)
}

// handleIndexDDL is CREATEINDEX and DROPINDEX (drop): declare a
// field-value index, whose candidates derive from the extents, or retire
// one. Either is one commit op through the committer, so it is poison-
// and role-gated, deduplicated by its key and durable before the ack in
// every durability mode. The *definition* is durable (an 'X' record in
// its commit group); the contents rebuild from the roots on every open.
// The reply reports whether anything changed (created / existed).
// Refused inside a transaction — index DDL is not transactional.
func (s *Server) handleIndexDDL(sess *session, fields [][]byte, name string, drop bool) (byte, [][]byte) {
	field := string(fields[0])
	if field == "" {
		return badReq("%s with empty field name", name)
	}
	if sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: name + " inside a transaction"})
	}
	ddl := txnOp{name: field, index: true, del: drop}
	changed, err := s.commit([]txnOp{ddl}, keyOf(fields, 1), sess.tr)
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{boolField(changed[0])}
}

// handleExplain is the EXPLAIN opcode: one type field renders the exact
// counts behind the GET the session would run right now as
// "get n=… types=… matched=… result=…" — the visible members and their
// distinct types, the types conforming to the query and the members GET
// returns — and two render the JOIN plan with its exact pair count
// (relation.JoinPlan.String). Both read the session's view. Pure read: no
// join runs and no value is encoded.
func (s *Server) handleExplain(sess *session, fields [][]byte) (byte, [][]byte) {
	ws, err := internTypes(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	st := sess.view(s)
	if len(fields) == 1 {
		result, matched := st.idx.MatchStats(ws[0])
		plan := fmt.Sprintf("get n=%d types=%d matched=%d result=%d", st.idx.Len(), st.idx.Types(), matched, result)
		return wire.OpOK, [][]byte{[]byte(plan)}
	}
	return wire.OpOK, [][]byte{[]byte(relation.PlanJoin(operandOf(st, ws[0]).rel, operandOf(st, ws[1]).rel).String())}
}

// keyOf is a keyed write's optional idempotency key, the field at i when
// the request carries it.
func keyOf(fields [][]byte, i int) string {
	if i < len(fields) {
		return string(fields[i])
	}
	return ""
}

func boolField(b bool) []byte {
	if b {
		return []byte{1}
	}
	return []byte{0}
}

func (sess *session) buffer(op txnOp) {
	sess.ops = append(sess.ops, op)
	sess.cur = nil
}

// commit turns ops into one durable commit group and publishes the
// successor state, reporting per-op whether each name was bound when the
// op applied (computed under commitMu, so concurrent DELETEs of one name
// see exactly one existed=true); for an
// index DDL op the bit reports whether the definition changed, and one
// that changes nothing writes no group. The
// commit is handed to the committer goroutine (coalesce.go), so ordering
// is decided by queue position; readers never block. On store failure the
// store rolls back to the last durable group and the published state is
// untouched, so a GET during or after a failed commit still observes only
// committed roots.
//
// key, when non-empty, is the client's idempotency key: if the group was
// already applied (the acknowledgement was lost and the client retried),
// the recorded result is returned without touching the store, so a retry
// applies exactly once. Only durable applications are recorded — a failed
// commit's retry re-executes.
func (s *Server) commit(ops []txnOp, key string, tr *rtrace.Trace) ([]bool, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	sp := tr.Start(0, "commit")
	req := &commitReq{ops: ops, key: key, enqueued: time.Now(),
		tr: tr, sp: sp, done: make(chan struct{})}
	s.commitCh <- req
	<-req.done
	tr.End(sp)
	return req.res.existed, req.res.err
}

// rollback reverts a failed commit with the store's AbortBound: the store's
// working state returns to its last durable group, which is exactly the
// published state, in O(batch) and without reading the log — sound because
// this server never mutates a bound value (StageBound's premise). If the
// store could not trim the batch's bytes from the log (plausibly the same
// failing disk), the file may hold groups past the durable end and the
// next commit could land behind them — so the write path is poisoned
// instead: every later commit refuses with the rollback failure until the
// process restarts. The caller holds commitMu.
func (s *Server) rollback(cause error) {
	aerr := s.store.AbortBound()
	if aerr == nil {
		return
	}
	m := *s.mode.Load()
	m.poisoned = fmt.Errorf("server: write path poisoned (rollback after %v failed): %w", cause, aerr)
	s.mode.Store(&m)
	s.logf("%v", m.poisoned)
}

// ---------------------------------------------------------------------------
// Failover: PROMOTE, fencing
// ---------------------------------------------------------------------------

// handlePromote is the PROMOTE opcode's two faces. With no fields it is
// the admin promotion: this server (typically a follower whose primary
// died) bumps its epoch durably and becomes the primary; gated by
// Config.AllowPromote. With fence fields it is the notification a new
// primary sends its predecessor: a higher epoch exists at newPrimary —
// demote yourself. Fence notifications are always accepted (refusing to
// learn of a higher epoch would defeat fencing); stale ones are refused.
func (s *Server) handlePromote(_ *session, fields [][]byte) (byte, [][]byte) {
	epoch, newPrimary, fence, err := wire.DecodePromote(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	if fence {
		return s.handleFence(epoch, newPrimary)
	}
	if !s.cfg.AllowPromote {
		return errResp(&wire.WireError{Code: wire.CodeBadRequest,
			Msg: "promotion is disabled on this server; start it with -allow-promote"})
	}
	newEpoch, err := s.promote()
	if err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, [][]byte{binary.AppendUvarint(nil, newEpoch)}
}

// promote makes this server the primary: stop following, bump the epoch
// durably (the store refuses while a commit batch is staged), flip the
// role, and tell the old upstream it has been superseded. The epoch
// record is its own commit group, so chained followers receive the
// promotion through the ordinary stream.
//
// The epoch group is the one primary-side append outside the committer,
// on purpose: store.Promote is the role change itself, while the
// committer refuses every non-primary by design. Routing it through the
// committer would need a request kind that bypasses that role gate. It
// needs no batch discipline either: it runs under commitMu, so no batch
// is in progress, and the store refuses it while one is staged.
func (s *Server) promote() (uint64, error) {
	// Stop the follow loop first, outside commitMu (it may be holding
	// commitMu in applyReplicated right now), so no replicated frame can
	// land after the epoch bump.
	s.stopFollow()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	m := s.mode.Load()
	if m.poisoned != nil {
		return 0, s.refuseWrite(m, true)
	}
	epoch, err := s.store.Promote()
	if err != nil {
		return 0, err
	}
	s.mode.Store(&mode{role: wire.RolePrimary})
	// The epoch record is a durable commit group: publishing it wakes
	// streamers so followers of *this* server learn the new epoch
	// immediately.
	s.publish(nil, 1, 0)
	s.logf("server: promoted to primary at epoch %d", epoch)
	if s.cfg.Follow != "" && m.role != wire.RolePrimary {
		// Best effort, retried in the background: the demoted primary may
		// be dead or partitioned right now — that is usually why we were
		// promoted — but must learn of its successor the moment it is
		// reachable, even if it never re-subscribes.
		go s.sendFence(s.cfg.Follow, epoch)
	}
	return epoch, nil
}

// handleFence applies a fence notification: a new primary at a higher
// epoch exists. Stale notifications (epoch not above ours) are refused.
func (s *Server) handleFence(epoch uint64, newPrimary string) (byte, [][]byte) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if epoch <= s.store.Epoch() {
		return errResp(&wire.WireError{Code: wire.CodeBadRequest,
			Msg: fmt.Sprintf("stale fence: epoch %d is not above local epoch %d", epoch, s.store.Epoch())})
	}
	s.fence(epoch, newPrimary)
	return wire.OpOK, nil
}

// fence demotes this server after observing promotion epoch e elsewhere:
// the role becomes RoleFenced and the store itself enters replica mode
// (defense in depth — even a code path that skipped the role check
// cannot append). Idempotent for non-primaries, which are already
// read-only; they still record the successor's address for redirects.
// Caller holds commitMu, so no write decided before the fence can be
// acked after it.
func (s *Server) fence(e uint64, newPrimary string) {
	m := *s.mode.Load()
	if newPrimary != "" {
		m.successor = newPrimary
	}
	demote := m.role == wire.RolePrimary
	if demote {
		m.role = wire.RoleFenced
	}
	s.mode.Store(&m)
	if !demote {
		return
	}
	s.store.EnterReplica()
	s.logf("server: fenced: observed promotion epoch %d (local epoch %d); entering read-only mode", e, s.store.Epoch())
}

// observeEpoch fences this server when e is above the store's epoch —
// the path for epochs learned passively (a REPLICATE subscriber carrying
// a higher epoch) rather than via a fence notification. Reports whether
// a fence was applied.
func (s *Server) observeEpoch(e uint64, newPrimary string) bool {
	if e <= s.store.Epoch() {
		return false
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if e <= s.store.Epoch() {
		return false
	}
	s.fence(e, newPrimary)
	return true
}

// sendFence delivers the fence notification to the demoted primary,
// retrying with backoff until any response arrives (a response — even a
// refusal — proves delivery) or the server shuts down.
func (s *Server) sendFence(addr string, epoch uint64) {
	self := ""
	if a := s.Addr(); a != nil {
		self = a.String()
	}
	backoff := 100 * time.Millisecond
	for i := 0; i < 30; i++ {
		select {
		case <-s.shutdownCh:
			return
		default:
		}
		if err := s.fenceOnce(addr, epoch, self); err == nil {
			return
		}
		select {
		case <-time.After(backoff):
		case <-s.shutdownCh:
			return
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// fenceOnce is one fence-notification attempt; only transport failures
// are errors (and retried by sendFence).
func (s *Server) fenceOnce(addr string, epoch uint64, self string) error {
	conn, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	if err := wire.WriteFrame(conn, s.cfg.maxFrame(), wire.OpPromote, wire.FenceFields(epoch, self)...); err != nil {
		return err
	}
	_, _, err = wire.ReadFrame(bufio.NewReader(conn), s.cfg.maxFrame())
	return err
}

// handleHealth is the HEALTH opcode: the degraded-mode self-report. It
// touches no locks a wedged writer could hold — every field is an atomic
// or a derived gauge — so health stays answerable while a commit is stuck
// on a dying disk. Every field comes from one registry Snapshot, so the
// report is internally consistent: in-flight, session and root counts,
// the durable end, the role and the epoch were captured at the same
// instant and cannot tear against each other the way per-field atomic
// loads could.
func (s *Server) handleHealth(*session, [][]byte) (byte, [][]byte) {
	snap := s.m.reg.Snapshot()
	inflight, _ := snap.Gauge("dbpl_server_inflight")
	sessions, _ := snap.Gauge("dbpl_server_sessions")
	roots, _ := snap.Gauge("dbpl_server_roots")
	uptimeNS, _ := snap.Gauge("dbpl_server_uptime_ns")
	degraded, _ := snap.Gauge("dbpl_server_degraded")
	durableEnd, _ := snap.Gauge("dbpl_store_durable_end")
	role, _ := snap.Gauge("dbpl_repl_role")
	epoch, _ := snap.Gauge("dbpl_server_epoch")
	return wire.OpOK, wire.HealthFields(wire.Health{
		Poisoned:   degraded != 0,
		InFlight:   int(inflight),
		Sessions:   int(sessions),
		Roots:      int(roots),
		Uptime:     time.Duration(uptimeNS),
		DurableEnd: durableEnd,
		Role:       wire.Role(role),
		Epoch:      uint64(epoch),
	})
}

// handleStats is the STATS opcode: the full registry snapshot — server,
// persistence and any co-registered layer — as one field of JSON.
// It takes no handler locks, and its monitor class keeps it answering an
// overloaded or draining server, so the observer keeps observing exactly
// when the server is at its most interesting.
func (s *Server) handleStats(*session, [][]byte) (byte, [][]byte) {
	b, err := json.Marshal(s.m.reg.Snapshot())
	if err != nil {
		return errResp(&wire.WireError{Code: wire.CodeInternal, Msg: err.Error()})
	}
	return wire.OpOK, [][]byte{b}
}

// handleTraces answers TRACES: one trace per response field, each the
// JSON object /traces serves, newest first. A server with an empty ring
// (or none) answers OpOK with zero fields rather than an error — polling
// for traces is not a fault.
func (s *Server) handleTraces(*session, [][]byte) (byte, [][]byte) {
	if s.traces == nil {
		return wire.OpOK, nil
	}
	ds := s.traces.Snapshot()
	out := make([][]byte, len(ds))
	for i := range ds {
		b, err := json.Marshal(ds[i])
		if err != nil {
			return errResp(&wire.WireError{Code: wire.CodeInternal, Msg: err.Error()})
		}
		out[i] = b
	}
	return wire.OpOK, out
}

// Stats reports the server's current committed view, for tests and the
// serve verb's startup banner.
type Stats struct {
	Roots int
}

// Stats returns current statistics.
func (s *Server) Stats() Stats {
	return Stats{Roots: s.state.Load().roots.Len()}
}
