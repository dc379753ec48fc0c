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
// Idle streams carry REPHEARTBEAT frames bearing the primary's durable
// end, so a follower can distinguish "primary idle" from "link dead"
// (four missed heartbeats) and can report its replication lag in bytes.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server/wire"
	rtrace "dbpl/internal/telemetry/trace"
)

// notifyCommit marks a publication: the log grew and the published state
// (already stored, when the group changed it) covers it. It records the
// offset covered — the durable end, since every caller runs after its
// group's fsync — and wakes every blocked replication streamer by closing
// the current signal channel and installing a fresh one. Streamers load
// the channel *before* reading the durable end, so a commit landing
// between the two closes exactly the channel they are about to wait on —
// the wakeup cannot be lost. Callers hold commitMu.
func (s *Server) notifyCommit() {
	s.publishedEnd.Store(s.store.DurableEnd())
	ch := make(chan struct{})
	if old := s.commitSignal.Swap(&ch); old != nil {
		close(*old)
	}
}

// ---------------------------------------------------------------------------
// Primary: the REPLICATE stream
// ---------------------------------------------------------------------------

// streamReplicate consumes the connection: it streams commit groups from
// the requested offset, then heartbeats while caught up, until the peer
// hangs up or the server drains. As the stream row, REPLICATE bypasses
// admission control — a follower holding a stream open is not "in-flight
// work", and shedding it under load would amplify the load with reconnect
// storms.
//
// A follower can itself serve REPLICATE (its log is byte-identical to
// the primary's prefix), so chains of followers work unmodified.
func (s *Server) streamReplicate(conn net.Conn, fields [][]byte) {
	s.m.replStreams.Add(1)
	defer s.m.replStreams.Add(-1)
	maxFrame := s.cfg.maxFrame()
	fail := func(we *wire.WireError) {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		wire.WriteFrame(conn, maxFrame, wire.OpError, wire.ErrorFields(we)...)
	}
	from, subEpoch, err := wire.DecodeReplicateReq(fields)
	if err != nil {
		fail(toWireError(err))
		return
	}
	if from == 0 {
		// A fresh follower's log is just the header; offset 0 means "from
		// the beginning".
		from = intrinsic.HeaderSize
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
	hb := s.cfg.replHeartbeat()
	// An immediate heartbeat opens every stream: it carries our epoch and
	// durable end, so the subscriber learns about a failover (and can run
	// rejoin verification) before a single group is applied — and even
	// when the loop below refuses because its log has grown past ours.
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if wire.WriteFrame(conn, maxFrame, wire.OpRepHeartbeat,
		wire.HeartbeatFields(s.store.DurableEnd(), s.store.Epoch())...) != nil {
		return
	}
	for {
		if s.draining.Load() {
			fail(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
			return
		}
		// Order matters: load the signal channel before the durable end
		// (see notifyCommit).
		sig := *s.commitSignal.Load()
		end := s.store.DurableEnd()
		if from > end {
			fail(&wire.WireError{Code: wire.CodeBadRequest,
				Msg: fmt.Sprintf("replication offset %d past durable end %d", from, end)})
			return
		}
		if from < end {
			raw, next, groups, err := s.store.ReadGroupsAt(from, replChunk)
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
			if mk := s.lastCommit.Load(); mk != nil && mk.trace != 0 && mk.end == next {
				trace, commitNS = mk.trace, mk.ns
			}
			repFields := wire.ReplDataFields(from, raw, s.store.Epoch(), trace, commitNS)
			if wire.WriteFrame(conn, maxFrame, wire.OpRepData, repFields...) != nil {
				return
			}
			from = next
			s.m.replGroupsShipped.Add(uint64(groups))
			s.m.replBytesShipped.Add(uint64(len(raw)))
			continue
		}
		// Caught up. Wait for the next commit, heartbeating so the
		// follower can tell an idle primary from a dead link. The
		// heartbeat write doubles as peer-death detection: this goroutine
		// never reads, so a vanished follower is noticed at the next
		// heartbeat's failed write.
		select {
		case <-sig:
		case <-s.shutdownCh:
			fail(&wire.WireError{Code: wire.CodeShutdown, Msg: "server is draining"})
			return
		case <-time.After(hb):
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if wire.WriteFrame(conn, maxFrame, wire.OpRepHeartbeat, wire.HeartbeatFields(end, s.store.Epoch())...) != nil {
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
	// verifiedEpoch is the highest upstream epoch whose history this
	// follower has proven its own log a byte prefix of (rejoin
	// verification). Streams from an upstream above this epoch are not
	// applied until the proof succeeds.
	verifiedEpoch atomic.Uint64

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
		wire.ReplicateFields(s.store.DurableEnd(), s.store.Epoch())...); err != nil {
		return false, fmt.Errorf("subscribing to %s: %w", s.cfg.Follow, err)
	}
	conn.SetWriteDeadline(time.Time{})
	br := bufio.NewReader(conn)
	for {
		// Four missed heartbeats ⇒ the link is dead, not idle.
		conn.SetReadDeadline(time.Now().Add(4 * hb))
		op, fields, err := wire.ReadFrame(br, maxFrame)
		if err != nil {
			return progressed, fmt.Errorf("stream from %s: %w", s.cfg.Follow, err)
		}
		switch op {
		case wire.OpRepHeartbeat:
			end, upEpoch, err := wire.DecodeHeartbeat(fields)
			if err != nil {
				return progressed, err
			}
			if err := s.checkUpstreamEpoch(upEpoch); err != nil {
				return progressed, err
			}
			s.follower.primaryEnd.Store(end)
		case wire.OpRepData:
			rd, err := wire.DecodeReplData(fields)
			if err != nil {
				// Checksum mismatch or malformed frame: drop the link
				// without applying anything. The redial resumes from our
				// durable end, so the damaged group is re-sent intact.
				return progressed, fmt.Errorf("stream from %s: %w", s.cfg.Follow, err)
			}
			if err := s.checkUpstreamEpoch(rd.Epoch); err != nil {
				return progressed, err
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
			return progressed, fmt.Errorf("unexpected stream opcode %#x from %s", op, s.cfg.Follow)
		}
	}
}

// checkUpstreamEpoch is fencing, follower side, applied to every frame's
// epoch before the frame is: an upstream below our own epoch is a stale
// ex-primary (its history and ours may have forked past our shared
// prefix) — the link is dropped, never applied. An upstream *above* our
// epoch was promoted while we were partitioned from it: before applying
// anything we must prove our log is still a byte prefix of the new
// history (rejoin verification); the proof is cached per epoch so a
// healthy stream pays it once.
func (s *Server) checkUpstreamEpoch(up uint64) error {
	local := s.store.Epoch()
	if up < local {
		return fmt.Errorf("fencing: upstream %s at epoch %d is behind local epoch %d; dropping replication link",
			s.cfg.Follow, up, local)
	}
	if up > local && s.follower.verifiedEpoch.Load() < up {
		if err := s.verifyRejoin(); err != nil {
			return err
		}
		s.follower.verifiedEpoch.Store(up)
	}
	return nil
}

// verifyRejoin proves this store's durable log is a byte prefix of the
// upstream's history, before any higher-epoch group is applied. After a
// failover the new primary may have been promoted holding *less* history
// than we do (groups the old primary acked but never shipped): those
// offsets belong to the forked old history, and blindly appending the
// new primary's groups after them would interleave two histories in one
// log. The check streams the upstream's log from the beginning on a
// separate connection and byte-compares it against ours; a mismatch — or
// an upstream whose history ends before ours with every shared byte
// equal — is a typed *intrinsic.DivergenceError naming the first
// divergent offset. The local log is never truncated; recovery is the
// explicit runbook in docs/REPLICATION.md.
func (s *Server) verifyRejoin() error {
	localEnd := s.store.DurableEnd()
	if localEnd <= intrinsic.HeaderSize {
		return nil // nothing local that could disagree
	}
	conn, err := net.DialTimeout("tcp", s.cfg.Follow, 5*time.Second)
	if err != nil {
		return fmt.Errorf("rejoin verification: %w", err)
	}
	defer conn.Close()
	maxFrame := s.cfg.maxFrame()
	hb := s.cfg.replHeartbeat()
	conn.SetWriteDeadline(time.Now().Add(4 * hb))
	if err := wire.WriteFrame(conn, maxFrame, wire.OpReplicate,
		wire.ReplicateFields(intrinsic.HeaderSize, s.store.Epoch())...); err != nil {
		return fmt.Errorf("rejoin verification: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	br := bufio.NewReader(conn)
	verified := intrinsic.HeaderSize
	for verified < localEnd {
		conn.SetReadDeadline(time.Now().Add(4 * hb))
		op, fields, err := wire.ReadFrame(br, maxFrame)
		if err != nil {
			return fmt.Errorf("rejoin verification: %w", err)
		}
		switch op {
		case wire.OpRepData:
			rd, err := wire.DecodeReplData(fields)
			if err != nil {
				return fmt.Errorf("rejoin verification: %w", err)
			}
			if rd.Start != verified {
				return fmt.Errorf("rejoin verification: frame at offset %d, wanted %d", rd.Start, verified)
			}
			n, err := s.store.VerifyTail(rd.Raw, rd.Start)
			if err != nil {
				return fmt.Errorf("rejoin refused: %w", err)
			}
			verified += n
			if n < int64(len(rd.Raw)) {
				// The new history extends past our durable end and every
				// local byte matched: we are a clean prefix. The remainder
				// arrives through the ordinary stream.
				return nil
			}
		case wire.OpRepHeartbeat:
			end, _, err := wire.DecodeHeartbeat(fields)
			if err != nil {
				return fmt.Errorf("rejoin verification: %w", err)
			}
			if end < localEnd && verified >= end {
				// The upstream's history ends here and ours continues:
				// our extra groups were never shipped and are not part of
				// the new history. Typed refusal, not truncation.
				return fmt.Errorf("rejoin refused: %w", &intrinsic.DivergenceError{Offset: end})
			}
		case wire.OpError:
			return fmt.Errorf("rejoin verification: upstream refused: %w", wire.DecodeError(fields))
		default:
			return fmt.Errorf("rejoin verification: unexpected stream opcode %#x", op)
		}
	}
	return nil
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
// feeds dbpl_repl_apply_delay_seconds with the primary trace as the
// exemplar.
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
	// after the resubscribe. Both ends of any overlap are group
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
	err = s.publishDelta(delta)
	tr.End(psp)
	if err != nil {
		return 0, err
	}
	s.m.replGroupsApplied.Add(uint64(delta.Groups))
	s.m.replBytesApplied.Add(uint64(len(raw)))
	if rd.CommitNS > 0 {
		// Commit-to-apply lag across two hosts' clocks: an honest lag
		// indicator, clamped so clock skew cannot go negative.
		delay := time.Now().UnixNano() - rd.CommitNS
		if delay < 0 {
			delay = 0
		}
		s.m.replApplyDelay.ObserveExemplar(delay, rd.Trace)
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

// publishDelta advances the published state by what ApplyGroup reported:
// removed roots become deletes and changed roots re-bind from the store's
// materialized value. The same state.apply path as a local commit, so
// follower GETs are the same lock-free extent unions as a primary's.
// On an error nothing is published: the state and the end HEALTH reports
// stay where they were. Caller holds commitMu.
func (s *Server) publishDelta(delta intrinsic.GroupDelta) error {
	cur := s.state.Load()
	ops := make([]txnOp, 0, len(delta.Changed)+len(delta.Removed))
	for _, name := range delta.Removed {
		ops = append(ops, txnOp{name: name, del: true})
	}
	for _, name := range delta.Changed {
		r, ok := s.store.Root(name)
		if !ok {
			continue
		}
		d, err := dynamic.MakeAt(r.Value, r.Declared)
		if err != nil {
			return fmt.Errorf("replicated root %q does not conform to its declared type: %w", name, err)
		}
		ops = append(ops, txnOp{name: name, dyn: d})
	}
	next := cur
	var istats index.ApplyStats
	if len(ops) > 0 {
		next, istats = cur.apply(ops)
	}
	if next != cur {
		s.state.Store(next)
		s.m.indexTouched.Add(uint64(istats.EntriesTouched))
		s.m.commits.Inc()
	}
	// Even a group that changed no state (an epoch record, a shutdown
	// boundary) grew the log this server reports and re-ships.
	s.notifyCommit()
	return nil
}
