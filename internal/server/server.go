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
// an atomic pointer, an immutable *state*: the committed root bindings
// plus one index.Set — the maintained extents over the same dynamics, the
// only membership structure. Index definitions are not part of it: they
// live in the store's log alone, which answers CREATEINDEX/DROPINDEX. Every
// read (GET, JOIN, NAMES, EXPLAIN) answers from one state; outside a
// transaction that is the published one: readers load the pointer and
// run lock-free against that snapshot — they can never
// observe a commit in progress, because the pointer is swapped only after
// the store's commit group is durable. Writers buffer per session and
// hand each commit to one committer goroutine (coalesce.go), which
// serializes through commitMu: apply the batch's operations to the store,
// stage each commit as one commit group (StageBound: the store walks only
// the roots just bound, which is sound because this server binds freshly
// decoded values and never mutates a published one), sync the batch, then
// publish the next state (the previous root table and index.Set advanced
// by the delta, sharing every node the delta did not touch).
// Under the default per-commit durability a batch is one commit; under
// group it is whatever queued, up to 64. In both modes a writer is
// answered only after the sync, so an acknowledged write is durable. If
// the store commit fails, store.Abort() replays the log back to the last
// durable group and the published state is left untouched — the remote
// failure taxonomy (wire.CodeIO / wire.CodeCorrupt) mirrors the local
// one.
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
	// stamped into the slow-op ring log; 0 means 10ms, negative records
	// every request (useful for tracing under test).
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
	// ReplHeartbeat is the keepalive interval on idle replication streams;
	// a follower declares the link dead after 4 missed heartbeats and
	// redials with jittered backoff. 0 means 1s.
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
	// disables tracing entirely — an unsampled request costs one nil
	// check per span site; >= 1 traces everything. A request slow enough
	// for the slow-op ring has its trace force-retained regardless of
	// ring pressure. See docs/OBSERVABILITY.md.
	TraceSampleRate float64
	// TraceRingSize bounds the ring of completed trace trees; 0 means
	// 256, negative disables tracing even with a sample rate set.
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
	return c.ReplHeartbeat
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
	// slowLogSize bounds the slow-op ring.
	slowLogSize = 256
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
type state struct {
	roots pmap.Map[*dynamic.Dynamic]
	idx   *index.Set
}

// newState builds a state in one pass from roots sorted by name, their
// dynamics in the same order (the index set's insertion order).
func newState(names []string, members []*dynamic.Dynamic) *state {
	return &state{roots: pmap.Build(names, members), idx: index.Rebuild(members)}
}

// apply returns the successor state with ops applied: each root op edits
// the name it binds in the persistent root table, and the index set
// advances by the same membership delta (COW, single successor), so the
// previous state stays valid for readers holding it and the cost is
// O(changed · log n) plus the extents the removals rewrite. Index DDL ops
// change nothing a read consults and are skipped. The returned stats
// report the index-maintenance work done.
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
	state atomic.Pointer[state]
	// publishedEnd is the log offset the published state covers, stored
	// after every state publication (notifyCommit). HEALTH reports the
	// durable end capped by it: a follower's store end moves when a group
	// is applied, before the state that serves it is published, and a
	// client that saw the store's end would route a read-your-writes GET
	// here one step too early.
	publishedEnd atomic.Int64
	// commitMu serializes writers end to end: store mutation, commit
	// group, state publication.
	commitMu sync.Mutex
	// mode is the write mode (see mode), loaded lock-free: HEALTH has to
	// report it even while a wedged commit is holding commitMu.
	mode atomic.Pointer[mode]
	// idem (guarded by commitMu) deduplicates retried writes; see idem.go.
	idem *idemCache

	// m is the always-on metric set; m.inflight is the admission-control
	// gauge (requests admitted, response not yet produced). slow is the
	// bounded slow-op ring.
	m     *serverMetrics
	slow  *telemetry.SlowLog
	start time.Time

	// traces is the ring of completed span trees and sampler its head-
	// sampling decision; traces == nil means tracing is off and every
	// request carries a nil *rtrace.Trace (each span site then costs one
	// nil check — the E20 overhead budget).
	traces  *rtrace.Ring
	sampler rtrace.Sampler
	// lastCommit is the most recent durable commit's mark — log end,
	// originating trace, publication wall-clock — read by replication
	// streamers to attach trace context to the REPDATA frame that ships
	// that commit. Stored under commitMu; loaded lock-free.
	lastCommit atomic.Pointer[commitMark]

	draining atomic.Bool
	mu       sync.Mutex // guards ln, conns
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// commitSignal wakes idle replication streamers: every state
	// publication swaps in a fresh channel and closes the old one, so a
	// streamer that loaded the channel *before* reading the durable end
	// can never miss a commit (see notifyCommit).
	commitSignal atomic.Pointer[chan struct{}]
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
// poisoned, set when a failed commit could not be rolled back: the store's
// in-memory state has diverged from the published committed state, and
// any further commit group would durably encode that divergence. The role
// starts from cfg.Follow. Only promote, fence and rollback replace the
// value, each under commitMu, so no write decision can race a transition
// (the double-ack discipline).
type mode struct {
	role      wire.Role
	successor string
	poisoned  error
}

// commitMark records the most recent durable, published commit for the
// replication plane: the log end it produced, the trace that committed
// it (0 when the commit was unsampled), and the wall clock at
// publication. A replication streamer whose next chunk ends exactly at
// mark.end attaches the trace and timestamp to that REPDATA frame, so
// the follower can link its apply span to the primary's commit span and
// measure commit-to-visible delay.
type commitMark struct {
	end   int64
	trace uint64
	ns    int64
}

// markCommit publishes the just-committed durable end with its trace
// context. Called with commitMu held (or from the committer goroutine,
// which owns the same serialization).
func (s *Server) markCommit(trace uint64) {
	s.lastCommit.Store(&commitMark{end: s.store.DurableEnd(), trace: trace, ns: time.Now().UnixNano()})
}

// stateFromStore derives a published state from the store's committed
// roots. The index set rebuilds from those roots on every open, so it can
// never be ahead of the durable state — the crash-matrix invariant.
func stateFromStore(store *intrinsic.Store) (*state, error) {
	all := store.Names()
	names := all[:0]
	members := make([]*dynamic.Dynamic, 0, len(all))
	for _, name := range all {
		r, ok := store.Root(name)
		if !ok {
			continue
		}
		d, err := dynamic.MakeAt(r.Value, r.Declared)
		if err != nil {
			return nil, fmt.Errorf("server: root %q does not conform to its declared type: %w", name, err)
		}
		names = append(names, name)
		members = append(members, d)
	}
	return newState(names, members), nil
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
	st, err := stateFromStore(store)
	if err != nil {
		return nil, err
	}
	srv := &Server{cfg: cfg, store: store, conns: map[net.Conn]struct{}{}, start: time.Now()}
	srv.mode.Store(&mode{role: role})
	srv.shutdownCh = make(chan struct{})
	srv.notifyCommit() // seed the commit-signal channel
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
	// The durable end a reader can rely on: never past what the published
	// state covers (see publishedEnd).
	reg.GaugeFunc("dbpl_store_durable_end", func() int64 {
		return min(store.DurableEnd(), srv.publishedEnd.Load())
	})
	// Failover observability: the promotion epoch (the store's, so it is
	// exactly what the log holds) and the current role, for HEALTH, STATS
	// and /metrics — a client picks the new primary as the highest-epoch
	// node reporting RolePrimary.
	reg.GaugeFunc("dbpl_server_epoch", func() int64 { return int64(store.Epoch()) })
	reg.GaugeFunc("dbpl_repl_role", func() int64 { return int64(srv.mode.Load().role) })
	srv.slow = telemetry.NewSlowLog(slowLogSize, cfg.slowOpThreshold())
	if cfg.TraceSampleRate > 0 {
		if n := cfg.traceRingSize(); n > 0 {
			srv.traces = rtrace.NewRing(n)
			srv.sampler = rtrace.NewSampler(cfg.TraceSampleRate)
			reg.GaugeFunc("dbpl_trace_total", srv.traces.Total)
		}
	}
	if cfg.Follow != "" {
		f := &followerState{done: make(chan struct{}), stop: make(chan struct{})}
		srv.follower = f
		reg.GaugeFunc("dbpl_repl_primary_end", func() int64 { return f.primaryEnd.Load() })
		reg.GaugeFunc("dbpl_repl_lag_bytes", func() int64 {
			if lag := f.primaryEnd.Load() - store.DurableEnd(); lag > 0 {
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

// SlowOps returns the retained slow-op log entries, newest first.
func (s *Server) SlowOps() []telemetry.SlowOp {
	return s.slow.Snapshot()
}

// Traces returns the retained completed trace trees, newest first; nil
// when tracing is disabled.
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

// ListenAndServe listens on addr (":7070" style) and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
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
}

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
		r := lookup(op)
		// The stream row consumes the connection: it becomes a one-way
		// stream of REPDATA/REPHEARTBEAT frames until the peer hangs up or
		// we drain. Trace IDs are per-request and do not apply to a stream.
		if r.class == classStream {
			s.m.requests[op].Inc()
			r.stream(s, conn, fields)
			return
		}
		began := time.Now()
		// Head sampling: the wire trace ID (or a server-minted one when
		// the client did not stamp) decides whether this request records
		// a span tree. The monitor class is never traced — HEALTH polls
		// every second on a replica set and TRACES would trace its own
		// fetch; their span trees are noise that would churn the ring.
		var tr *rtrace.Trace
		if s.traces != nil && r.class != classMonitor {
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
		if r.class == classMonitor {
			respOp, respFields = s.handle(sess, r, op, fields)
		} else if s.admit() {
			respOp, respFields = s.handle(sess, r, op, fields)
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
		// The latency exemplar is the sampled trace's ID when there is
		// one (its span tree is in the ring), else the raw wire trace (an
		// unsampled but stamped request is still findable client-side).
		exemplar := tr.ID()
		if exemplar == 0 {
			exemplar = trace
		}
		s.m.observe(op, dur, respOp, respFields, exemplar)
		slow := dur >= s.slow.Threshold()
		if slow {
			respBytes := 0
			for _, f := range respFields {
				respBytes += len(f)
			}
			var errCode string
			if respOp == wire.OpError && len(respFields) > 0 && len(respFields[0]) == 1 {
				errCode = wire.Code(respFields[0][0]).String()
			}
			s.slow.Record(telemetry.SlowOp{
				Time:     began,
				Op:       wire.OpName(op),
				Duration: dur,
				Session:  conn.RemoteAddr().String(),
				Trace:    exemplar,
				Bytes:    respBytes,
				Err:      errCode,
			})
		}
		if tr != nil {
			tr.Finish()
			// A request slow enough for the slow-op ring has its span
			// tree force-retained: the trace that explains a slow op must
			// survive ring churn until an operator fetches it.
			s.traces.Record(tr.Data(), slow)
		}
		if traced {
			// Echo the trace so the client can tie this response to its
			// call; see docs/OBSERVABILITY.md.
			respOp, respFields = wire.AppendTrace(respOp, trace, respFields)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		err = wire.WriteFrame(conn, s.cfg.maxFrame(), respOp, respFields...)
		if we, ok := err.(*wire.WireError); ok && we.Code == wire.CodeTooLarge {
			// The reply does not fit a frame. Nothing was written, so the
			// stream is intact: send the typed refusal and keep serving.
			respOp, respFields = errResp(&wire.WireError{Code: wire.CodeTooLarge, Msg: "reply " + we.Msg})
			if traced {
				respOp, respFields = wire.AppendTrace(respOp, trace, respFields)
			}
			err = wire.WriteFrame(conn, s.cfg.maxFrame(), respOp, respFields...)
		}
		if err != nil {
			return
		}
		conn.SetWriteDeadline(time.Time{})
	}
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

// opClass is a request opcode's class. It alone decides how a request is
// treated before its handler runs: head sampling, admission, the drain
// check and the role gate (docs/SERVER.md, "Request classes").
type opClass uint8

const (
	classNone    opClass = iota // no row: CodeUnknownOp, counted as op="unknown"
	classMonitor                // never traced or admitted; answers while draining
	classRead
	classWrite // refused on a non-primary with CodeReadOnly or CodeFenced
	classAdmin
	classStream // takes the connection over
)

// route is one row of the request table. Handlers are method
// expressions, so dispatch allocates nothing.
type route struct {
	class  opClass
	handle func(*Server, *session, [][]byte) (byte, [][]byte)
	stream func(*Server, net.Conn, [][]byte) // the stream row's, instead of handle
}

// routes is the request table, indexed by opcode: the one list of the
// opcodes this server answers.
var routes = [wire.LastRequestOp + 1]route{
	wire.OpPing:        {class: classAdmin, handle: (*Server).handlePing},
	wire.OpGet:         {class: classRead, handle: (*Server).handleGet},
	wire.OpPut:         {class: classWrite, handle: (*Server).handlePut},
	wire.OpDelete:      {class: classWrite, handle: (*Server).handleDelete},
	wire.OpJoin:        {class: classRead, handle: (*Server).handleJoin},
	wire.OpBegin:       {class: classWrite, handle: (*Server).handleBegin},
	wire.OpCommit:      {class: classWrite, handle: (*Server).handleCommit},
	wire.OpAbort:       {class: classRead, handle: (*Server).handleAbort},
	wire.OpNames:       {class: classRead, handle: (*Server).handleNames},
	wire.OpHealth:      {class: classMonitor, handle: (*Server).handleHealth},
	wire.OpStats:       {class: classMonitor, handle: (*Server).handleStats},
	wire.OpCreateIndex: {class: classWrite, handle: (*Server).handleCreateIndex},
	wire.OpDropIndex:   {class: classWrite, handle: (*Server).handleDropIndex},
	wire.OpExplain:     {class: classRead, handle: (*Server).handleExplain},
	wire.OpReplicate:   {class: classStream, stream: (*Server).streamReplicate},
	wire.OpPromote:     {class: classAdmin, handle: (*Server).handlePromote},
	wire.OpTraces:      {class: classMonitor, handle: (*Server).handleTraces},
}

// lookup returns op's row, the zero row (classNone) when it has none.
func lookup(op byte) route {
	if int(op) < len(routes) {
		return routes[op]
	}
	return route{}
}

// handle dispatches one request through its row r and returns the
// response frame. All failures become OpError frames; a handler panic is
// confined to the request that caused it.
func (s *Server) handle(sess *session, r route, op byte, fields [][]byte) (respOp byte, respFields [][]byte) {
	defer func() {
		if p := recover(); p != nil {
			s.logf("server: panic handling op %#x: %v", op, p)
			respOp = wire.OpError
			respFields = wire.ErrorFields(&wire.WireError{Code: wire.CodeInternal, Msg: fmt.Sprint(p)})
		}
	}()
	// The monitor class answers before the drain check: a server that is
	// shutting down (or poisoned) reports its state instead of only
	// refusing work.
	if r.class != classMonitor && s.draining.Load() {
		return errResp(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
	}
	// A non-primary refuses every write by role — distinct from
	// CodeDegraded (this server is healthy) and never retryable against
	// this server. PROMOTE is an admin row, not a write: a follower is
	// exactly what gets promoted.
	if r.class == classWrite {
		if we := s.refuseWrite(s.mode.Load(), false); we != nil {
			return errResp(we)
		}
	}
	if r.handle == nil {
		return errResp(&wire.WireError{Code: wire.CodeUnknownOp, Msg: fmt.Sprintf("opcode %#x", op)})
	}
	return r.handle(s, sess, fields)
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
	if len(fields) > 1 {
		return badReq("COMMIT wants 0 or 1 fields, got %d", len(fields))
	}
	if !sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: "COMMIT outside a transaction"})
	}
	var key string
	if len(fields) == 1 {
		key = string(fields[0])
	}
	ops := sess.ops
	sess.endTxn()
	if _, err := s.commit(ops, key, sess.tr); err != nil {
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

// refuseWrite builds and counts the refusal of one write under m, nil
// when m takes it: CodeDegraded naming the poisoning (only when poison
// is set), CodeFenced for a demoted primary (naming its successor when
// known), CodeReadOnly for a follower (naming the upstream primary).
// Dispatch gates on the role alone, so a poisoned primary still opens a
// transaction; the committer gates on poison, then the role, under
// commitMu, so a write admitted before a fence cannot be acked after it.
func (s *Server) refuseWrite(m *mode, poison bool) *wire.WireError {
	switch {
	case poison && m.poisoned != nil:
		s.m.degraded.Inc()
		return &wire.WireError{Code: wire.CodeDegraded, Msg: m.poisoned.Error()}
	case m.role == wire.RoleFenced:
		s.m.fencedRefusals.Inc()
		msg := "fenced: a primary with a higher promotion epoch exists; writes refused"
		if m.successor != "" {
			msg = fmt.Sprintf("fenced: the primary is now %s (higher promotion epoch); writes must go there", m.successor)
		}
		return &wire.WireError{Code: wire.CodeFenced, Msg: msg}
	case m.role == wire.RoleFollower:
		s.m.replReadOnly.Inc()
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

func (s *Server) handleGet(sess *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 1 {
		return badReq("GET wants 1 field, got %d", len(fields))
	}
	ws, err := internTypes(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	esp := sess.tr.Start(0, "exec")
	entries, _ := sess.view(s).idx.GetEntries(ws[0])
	sess.tr.End(esp)
	out := make([][]byte, len(entries))
	for i, e := range entries {
		img, err := codec.MarshalTagged(e.Dyn.Value(), e.Dyn.Type())
		if err != nil {
			return errResp(toWireError(err))
		}
		out[i] = img
	}
	return wire.OpValues, out
}

// internTypes decodes and interns the type images of a GET, JOIN or
// EXPLAIN request; the caller has checked there are at most two.
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

// relationOf is the relation JOIN reads for want from st: GET's answer,
// as values.
func relationOf(st *state, want *types.Interned) *relation.Relation {
	entries, _ := st.idx.GetEntries(want)
	vals := make([]value.Value, len(entries))
	for i, e := range entries {
		vals[i] = e.Dyn.Value()
	}
	return relation.New(vals...)
}

func (s *Server) handleJoin(sess *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 2 {
		return badReq("JOIN wants 2 fields, got %d", len(fields))
	}
	ws, err := internTypes(fields)
	if err != nil {
		return errResp(toWireError(err))
	}
	st := sess.view(s)
	members := relation.JoinFast(relationOf(st, ws[0]), relationOf(st, ws[1])).Members()
	out := make([][]byte, len(members))
	for i, m := range members {
		img, err := codec.MarshalTagged(m, nil)
		if err != nil {
			return errResp(toWireError(err))
		}
		out[i] = img
	}
	return wire.OpValues, out
}

// ---------------------------------------------------------------------------
// Writes: PUT, DELETE, commit
// ---------------------------------------------------------------------------

func (s *Server) handlePut(sess *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 2 && len(fields) != 3 {
		return badReq("PUT wants 2 or 3 fields, got %d", len(fields))
	}
	name := string(fields[0])
	if name == "" {
		return badReq("PUT with empty root name")
	}
	v, t, err := codec.UnmarshalTagged(fields[1])
	if err != nil {
		return errResp(toWireError(err))
	}
	d, err := dynamic.MakeAt(v, t)
	if err != nil {
		return errResp(&wire.WireError{Code: wire.CodeNotConforming, Msg: err.Error()})
	}
	op := txnOp{name: name, dyn: d}
	if sess.inTxn {
		sess.buffer(op)
		return wire.OpOK, nil
	}
	var key string
	if len(fields) == 3 {
		key = string(fields[2])
	}
	if _, err := s.commit([]txnOp{op}, key, sess.tr); err != nil {
		return errResp(toWireError(err))
	}
	return wire.OpOK, nil
}

func (s *Server) handleDelete(sess *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 1 && len(fields) != 2 {
		return badReq("DELETE wants 1 or 2 fields, got %d", len(fields))
	}
	name := string(fields[0])
	op := txnOp{name: name, del: true}
	if sess.inTxn {
		_, existed := sess.view(s).roots.Get(name)
		sess.buffer(op)
		return wire.OpOK, [][]byte{boolField(existed)}
	}
	var key string
	if len(fields) == 2 {
		key = string(fields[1])
	}
	existed, err := s.commit([]txnOp{op}, key, sess.tr)
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
	if len(fields) != 1 && len(fields) != 2 {
		return badReq("%s wants 1 or 2 fields, got %d", name, len(fields))
	}
	field := string(fields[0])
	if field == "" {
		return badReq("%s with empty field name", name)
	}
	if sess.inTxn {
		return errResp(&wire.WireError{Code: wire.CodeTxn, Msg: name + " inside a transaction"})
	}
	var key string
	if len(fields) == 2 {
		key = string(fields[1])
	}
	ddl := txnOp{name: field, index: true, del: drop}
	changed, err := s.commit([]txnOp{ddl}, key, sess.tr)
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
	if len(fields) != 1 && len(fields) != 2 {
		return badReq("EXPLAIN wants 1 or 2 fields, got %d", len(fields))
	}
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
	return wire.OpOK, [][]byte{[]byte(relation.PlanJoin(relationOf(st, ws[0]), relationOf(st, ws[1])).String())}
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
// successor state, reporting per-op whether each name existed in the
// committed state the group was applied to (computed under commitMu, so
// concurrent DELETEs of one name see exactly one existed=true); for an
// index DDL op the bit reports whether the definition changed, and one
// that changes nothing writes no group. The
// commit is handed to the committer goroutine (coalesce.go), so ordering
// is decided by queue position; readers never block. On store failure the
// log is replayed back to the last durable group and the published state
// is untouched, so a GET during or after a failed commit still observes
// only committed roots.
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

// rollback reverts a failed commit by replaying the log: in-memory store
// state returns to the last durable commit, which is exactly the published
// state. If the replay itself fails (plausibly the same failing disk), the
// store's roots no longer match the published ones and the next successful
// commit group would durably drop committed roots — so the write path is
// poisoned instead: every later commit refuses with the rollback failure
// until the process restarts. The caller holds commitMu.
func (s *Server) rollback(cause error) {
	aerr := s.store.Abort()
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
	// The epoch record is a durable commit: wake streamers so followers
	// of *this* server learn the new epoch immediately.
	s.notifyCommit()
	s.m.commits.Inc()
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
// on a dying disk. All five fields come from one registry Snapshot, so
// the report is internally consistent: in-flight, session and root counts
// were captured at the same instant and cannot tear against each other
// the way per-field atomic loads could.
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
		ReadOnly:   wire.Role(role) != wire.RolePrimary,
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
// persistence and any co-registered layer — as one binary-encoded field.
// It takes no handler locks, and its monitor class keeps it answering an
// overloaded or draining server, so the observer keeps observing exactly
// when the server is at its most interesting.
func (s *Server) handleStats(_ *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 0 {
		return badReq("STATS wants 0 fields, got %d", len(fields))
	}
	snap := s.m.reg.Snapshot()
	return wire.OpOK, [][]byte{snap.AppendBinary(nil)}
}

// handleTraces answers TRACES: one binary-encoded trace per response
// field, newest first. A server running with sampling off (or with no
// ring) answers OpOK with zero fields rather than an error — polling
// for traces is not a fault.
func (s *Server) handleTraces(_ *session, fields [][]byte) (byte, [][]byte) {
	if len(fields) != 0 {
		return badReq("TRACES wants 0 fields, got %d", len(fields))
	}
	if s.traces == nil {
		return wire.OpOK, nil
	}
	ds := s.traces.Snapshot()
	out := make([][]byte, len(ds))
	for i := range ds {
		out[i] = ds[i].AppendBinary(nil)
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
