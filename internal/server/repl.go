// Log-shipping replication: the primary side (streamReplicate, serving
// the REPLICATE opcode) and the follower side (followLoop, run when
// Config.Follow names a primary).
//
// The unit of replication is the intrinsic log's commit group, shipped as
// raw log bytes. The primary only reads groups back through
// Store.ReadGroupsAt, which re-verifies structure and CRC before the
// bytes leave the machine; each REPDATA frame carries its own CRC-32C so
// wire damage is caught before the follower touches its log; and the
// follower's Store.ApplyGroup verifies once more before appending. A
// follower's log is therefore a byte-for-byte prefix of the primary's
// verified prefix at every instant, which makes resumption trivial: after
// any crash or disconnect, either side's contribution to the handshake is
// just the follower's durable end. No group can be lost (the primary
// streams from exactly that offset) or applied twice (a duplicate frame
// ends at or before the durable end and is dropped).
//
// The stream is also the one proof of a prefix: a subscriber below the
// primary's epoch, whose history may have forked at a promotion, is
// streamed from the log head, and its overlap check verifies its whole
// log before a new byte lands. Idle streams carry REPDATA frames with no
// groups whose start is where the stream stands, at the heartbeat interval
// the subscriber asked for, so a follower can tell "primary idle" from
// "link dead" (four of its own missed heartbeats) and can report its
// replication lag in bytes.
package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/index"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server/wire"
	rtrace "dbpl/internal/telemetry/trace"
)

// publish advances the published state past groups durable commit groups
// — a committer's batch, a replicated frame, a promotion's epoch record —
// whose root changes are ops, in order: the index set moves by them, the
// store's committed root table becomes the published roots, and the
// successor covers the store's durable end, since every caller runs after
// its groups' fsync. trace is the committing batch's sampled trace, 0 for
// none. Storing the successor and closing its predecessor's next is the
// whole publication: a streamer waiting on the state it loaded wakes to
// one that covers the new groups. Groups that changed no root still grew
// the log this server reports and ships. Caller holds commitMu.
func (s *Server) publish(ops []index.Op, groups int, trace uint64) {
	prev := s.state.Load()
	next := &state{roots: s.store.Committed(), idx: prev.idx, end: s.store.DurableEnd(),
		trace: trace, ns: time.Now().UnixNano(), next: make(chan struct{})}
	if len(ops) > 0 {
		var istats index.ApplyStats
		next.idx, istats = prev.idx.Apply(ops)
		s.m.indexTouched.Add(uint64(istats.EntriesTouched))
	}
	s.state.Store(next)
	close(prev.next)
	s.m.commits.Add(uint64(groups))
}

// ---------------------------------------------------------------------------
// Primary: the REPLICATE stream
// ---------------------------------------------------------------------------

// streamReplicate consumes the connection: it streams commit groups from
// the requested offset — from the log head for a subscriber below this
// server's epoch — then heartbeats while caught up, until the peer
// hangs up or the server drains. As the stream row, REPLICATE bypasses
// admission control — a follower holding a stream open is not "in-flight
// work", and shedding it under load would amplify the load with reconnect
// storms.
//
// A follower can itself serve REPLICATE (its log is byte-identical to
// the primary's prefix), so chains of followers work unmodified.
func (s *Server) streamReplicate(conn net.Conn, fields [][]byte) {
	maxFrame := s.cfg.maxFrame()
	fail := func(we *wire.WireError) {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		wire.WriteFrame(conn, maxFrame, wire.OpError, wire.ErrorFields(we)...)
	}
	from, subEpoch, hb, err := wire.DecodeReplicateReq(fields)
	if err != nil {
		fail(toWireError(err))
		return
	}
	// Fencing, primary side: a subscriber carrying a higher promotion
	// epoch has been promoted past us — we are the stale half of a
	// failover. Demote ourselves (under commitMu, so no write in flight
	// can be acked after the decision) and refuse the stream.
	if subEpoch > s.store.Epoch() {
		s.observeEpoch(subEpoch, "")
		fail(&wire.WireError{Code: wire.CodeFenced,
			Msg: fmt.Sprintf("subscriber epoch %d is above this server's epoch %d; fenced", subEpoch, s.store.Epoch())})
		return
	}
	if from == 0 || subEpoch < s.store.Epoch() {
		// Offset 0 means "from the beginning". A subscriber below our
		// epoch may hold groups that never reached the history we were
		// promoted from: its overlap check byte-verifies every frame below
		// its durable end, so streaming from the head proves its whole log
		// a prefix of ours, or ends in a divergence error, before a new
		// byte lands.
		from = intrinsic.HeaderSize
	}
	for {
		if s.draining.Load() {
			fail(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
			return
		}
		// One load says how far to ship, how to stamp the frame that ends
		// there and what to wait on. The offset check reads the store: a
		// chunk may run past the published end, to the durable end.
		st := s.state.Load()
		if end := s.store.DurableEnd(); from > end {
			fail(&wire.WireError{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("replication offset %d past durable end %d", from, end)})
			return
		}
		if from < st.end {
			raw, next, _, err := s.store.ReadGroupsAt(from, replChunk)
			if err != nil {
				fail(toWireError(err))
				return
			}
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			// A chunk whose tail is the most recent commit carries that
			// commit's trace ID and wall-clock, so the follower's apply
			// span can link back to the primary's commit span and measure
			// the shipping delay. Catch-up chunks (older history, or an
			// untraced commit) send zeros: no link.
			var trace uint64
			var commitNS int64
			if st.trace != 0 && st.end == next {
				trace, commitNS = st.trace, st.ns
			}
			repFields := wire.ReplDataFields(from, raw, s.store.Epoch(), trace, commitNS)
			if wire.WriteFrame(conn, maxFrame, wire.OpRepData, repFields...) != nil {
				return
			}
			from = next
			s.m.replBytesShipped.Add(uint64(len(raw)))
			continue
		}
		// Caught up. Wait for the next publication, heartbeating at the
		// subscriber's interval so it can tell an idle primary from a dead
		// link: a frame with no groups, starting at our log end. None is
		// sent while the stream stands below the durable end: the
		// publication that covers the rest is in flight and wakes us. The
		// heartbeat write doubles as peer-death detection: this goroutine
		// never reads, so a vanished follower is noticed at the next
		// heartbeat's failed write.
		select {
		case <-st.next:
		case <-s.shutdownCh:
			fail(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
			return
		case <-time.After(hb):
			if from < s.store.DurableEnd() {
				continue
			}
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if wire.WriteFrame(conn, maxFrame, wire.OpRepData, wire.ReplDataFields(from, nil, s.store.Epoch(), 0, 0)...) != nil {
				return
			}
			s.m.replHeartbeats.Inc()
		}
	}
}

// ---------------------------------------------------------------------------
// Follower: the follow loop
// ---------------------------------------------------------------------------

// followerState is the follow loop's shared state: the primary's last
// reported durable end (for lag gauges and client staleness bounds), and
// the live connection so Shutdown can sever it.
type followerState struct {
	primaryEnd atomic.Int64
	done       chan struct{}
	// stop ends the follow loop without shutting the server down — the
	// promotion path: a follower that becomes the primary must not keep a
	// subscription to the server it just superseded.
	stop     chan struct{}
	stopOnce sync.Once

	mu     sync.Mutex
	conn   net.Conn
	closed bool
}

// setConn records the live link; it refuses once closeConn has run so a
// dial racing Shutdown cannot leak a connection.
func (f *followerState) setConn(c net.Conn) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed && c != nil {
		return false
	}
	f.conn = c
	return true
}

// closeConn severs the current link and refuses future ones; the follow
// loop's blocked read fails immediately and the loop observes shutdown.
func (f *followerState) closeConn() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	if f.conn != nil {
		f.conn.Close()
		f.conn = nil
	}
}

// followLoop subscribes to the primary and re-subscribes forever, with
// full-jitter exponential backoff between failed attempts. Progress
// (at least one group applied) resets the backoff, so a mid-stream
// partition heals at the base delay, not wherever the backoff had grown
// to during the outage.
func (s *Server) followLoop() {
	defer close(s.follower.done)
	const base, cap = 25 * time.Millisecond, time.Second
	backoff := base
	first := true
	for {
		select {
		case <-s.shutdownCh:
			return
		case <-s.follower.stop:
			return
		default:
		}
		if !first {
			s.m.replReconnects.Inc()
		}
		first = false
		progressed, err := s.followOnce()
		if err != nil && !s.draining.Load() && !stopped(s.follower.stop) {
			s.logf("server: replication: %v", err)
		}
		if errors.Is(err, intrinsic.ErrDiverged) {
			// Divergence is permanent: redialing would only re-prove it.
			// The log is left intact (never truncated); recovery is the
			// explicit runbook in docs/REPLICATION.md. Reads keep working.
			return
		}
		if progressed {
			backoff = base
			continue
		}
		select {
		case <-time.After(time.Duration(rand.Int63n(int64(backoff)) + 1)):
		case <-s.shutdownCh:
			return
		case <-s.follower.stop:
			return
		}
		if backoff *= 2; backoff > cap {
			backoff = cap
		}
	}
}

// stopped reports whether ch (a close-only signal channel) is closed.
func stopped(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// stopFollow ends the follow loop and severs its upstream link, then
// waits for it to exit — the first step of a promotion, so no replicated
// frame can race the epoch bump.
func (s *Server) stopFollow() {
	if s.follower == nil {
		return
	}
	s.follower.stopOnce.Do(func() { close(s.follower.stop) })
	s.follower.closeConn()
	<-s.follower.done
}

// followOnce is one subscription: dial, request the stream from our
// durable end, and apply frames until the link dies or the server shuts
// down. It reports whether any group was applied.
func (s *Server) followOnce() (progressed bool, err error) {
	conn, err := net.DialTimeout("tcp", s.cfg.Follow, 5*time.Second)
	if err != nil {
		return false, fmt.Errorf("dialing primary %s: %w", s.cfg.Follow, err)
	}
	defer conn.Close()
	if !s.follower.setConn(conn) {
		return false, nil // shutting down
	}
	defer s.follower.setConn(nil)
	maxFrame := s.cfg.maxFrame()
	hb := s.cfg.replHeartbeat()
	conn.SetWriteDeadline(time.Now().Add(4 * hb))
	if err := wire.WriteFrame(conn, maxFrame, wire.OpReplicate,
		wire.ReplicateFields(s.store.DurableEnd(), s.store.Epoch(), hb)...); err != nil {
		return false, fmt.Errorf("subscribing to %s: %w", s.cfg.Follow, err)
	}
	conn.SetWriteDeadline(time.Time{})
	// The reader keeps only its header (keep 0): each frame is read into
	// fresh slices, so the group bytes ApplyGroup is handed are this
	// frame's alone.
	fr := wire.NewFrameReader(conn, maxFrame, 0)
	// head is the offset below which this stream has delivered every byte
	// of the upstream's log from the log head; -1 once it has not.
	head := int64(intrinsic.HeaderSize)
	for {
		// Four missed heartbeats ⇒ the link is dead, not idle.
		conn.SetReadDeadline(time.Now().Add(4 * hb))
		op, fields, err := fr.ReadFrame()
		if err != nil {
			return progressed, fmt.Errorf("stream from %s: %w", s.cfg.Follow, err)
		}
		switch op {
		case wire.OpRepData:
			rd, err := wire.DecodeReplData(fields)
			if err != nil {
				// Checksum mismatch or malformed frame: drop the link
				// without applying anything. The redial resumes from our
				// durable end, so the damaged group is re-sent intact.
				return progressed, fmt.Errorf("stream from %s: %w", s.cfg.Follow, err)
			}
			// Fencing, follower side: an upstream below our epoch is a
			// stale ex-primary whose history may have forked from ours —
			// dropped, never applied. One above it needs no check: it
			// streams us from the log head, and applyReplicated verifies
			// our whole log before a new byte, while an epoch that rises
			// mid-stream continues a stream already contiguous.
			if local := s.store.Epoch(); rd.Epoch < local {
				return progressed, fmt.Errorf("fencing: upstream %s at epoch %d is behind local epoch %d; dropping replication link",
					s.cfg.Follow, rd.Epoch, local)
			}
			fromHead := rd.Start == head
			if head = -1; fromHead {
				head = rd.Start + int64(len(rd.Raw))
			}
			if len(rd.Raw) == 0 {
				// A heartbeat: the upstream's log ends at rd.Start. An
				// upstream above our epoch whose every byte matched ours
				// but whose history stops short of our durable end does not
				// hold our extra groups: refused, never truncated.
				if fromHead && rd.Epoch > s.store.Epoch() && rd.Start < s.store.DurableEnd() {
					return progressed, fmt.Errorf("rejoin refused: %w", &intrinsic.DivergenceError{Offset: rd.Start})
				}
				s.follower.primaryEnd.Store(rd.Start)
				continue
			}
			n, err := s.applyReplicated(rd)
			if err != nil {
				return progressed, err
			}
			if n > 0 {
				progressed = true
			}
		case wire.OpError:
			return progressed, fmt.Errorf("primary %s refused stream: %w",
				s.cfg.Follow, wire.DecodeError(fields))
		default:
			return progressed, fmt.Errorf("stream from %s: %w", s.cfg.Follow,
				&wire.WireError{Code: wire.CodeBadFrame, Msg: fmt.Sprintf("unexpected stream opcode %#x", op)})
		}
	}
}

// applyReplicated makes one REPDATA frame durable and visible: verify +
// append via Store.ApplyGroup, then publish the successor state. It runs
// under commitMu for the same reason commits do — state publication is
// serialized — though on a follower it is the only writer.
//
// A 6-field frame carries the originating commit's trace ID and commit
// wall-clock: when the follower's sampler keeps that ID (the decision is
// deterministic in the ID, so both ends agree), the apply gets its own
// span tree linked to the primary's trace, and the commit-to-apply lag
// feeds dbpl_repl_apply_delay_seconds.
func (s *Server) applyReplicated(rd wire.ReplData) (int, error) {
	start, raw := rd.Start, rd.Raw
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// A frame already in flight when this server was promoted must not
	// land after the epoch bump: the new primary's log grows through
	// local commits now.
	if s.mode.Load().role == wire.RolePrimary {
		return 0, fmt.Errorf("promoted to primary at epoch %d; dropping replication stream", s.store.Epoch())
	}
	var tr *rtrace.Trace
	if s.traces != nil && rd.Trace != 0 && s.sampler.Sample(rd.Trace) {
		tr = rtrace.New(rtrace.NextID(), "REPL-APPLY")
		tr.SetLink(rd.Trace)
	}
	end := s.store.DurableEnd()
	// Duplicate and overlap handling. Frames arrive in order on one
	// connection, but a frame in flight when a link died can be re-sent
	// after the resubscribe, and an upstream above our epoch streams our
	// whole log back from the head. Both ends of any overlap are group
	// boundaries (our durable end always is, and frames hold whole
	// groups); the overlap is byte-verified against the local log — a
	// re-sent group must be *the same* group, not a forked history's —
	// so trimming is exact and divergence surfaces typed instead of
	// being silently overwritten.
	if start < end {
		n, err := s.store.VerifyTail(raw, start)
		if err != nil {
			return 0, fmt.Errorf("replication overlap disagrees with local log: %w", err)
		}
		raw = raw[n:]
		start += n
	}
	if len(raw) == 0 {
		return 0, nil // wholly duplicate: already durable here
	}
	if start > end {
		return 0, fmt.Errorf("replication gap: frame at offset %d, durable end %d", start, end)
	}
	asp := tr.Start(0, "apply")
	delta, err := s.store.ApplyGroup(raw)
	tr.End(asp)
	if err != nil {
		return 0, err
	}
	psp := tr.Start(0, "publish")
	s.publish(opsOf(delta.Changes), delta.Groups, 0)
	tr.End(psp)
	s.m.replGroupsApplied.Add(uint64(delta.Groups))
	if rd.CommitNS > 0 {
		// Commit-to-apply lag across two hosts' clocks: an honest lag
		// indicator, clamped so clock skew cannot go negative.
		delay := time.Now().UnixNano() - rd.CommitNS
		if delay < 0 {
			delay = 0
		}
		s.m.replApplyDelay.Observe(delay)
	}
	if tr != nil {
		tr.Finish()
		s.traces.Record(tr.Data(), false)
	}
	// Applying proves the primary's log reaches at least this far.
	if pe := s.follower.primaryEnd.Load(); delta.End > pe {
		s.follower.primaryEnd.Store(delta.End)
	}
	return len(raw), nil
}

// opsOf is the membership delta of a replicated frame's root changes:
// each change's old and new binding, the same index.Op a local commit
// publishes, so follower GETs are the same lock-free extent unions as a
// primary's.
func opsOf(changes []intrinsic.RootChange) []index.Op {
	ops := make([]index.Op, len(changes))
	for i, c := range changes {
		ops[i] = index.Op{Remove: c.Old, Add: c.New}
	}
	return ops
}
