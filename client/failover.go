// Client-driven write failover.
//
// Options.Replicas is not only the read fan-out rotation: together with
// the address Dial was given it forms the *failover set*. When the
// pinned primary fails in a way failover can fix — the connection is
// lost, the dial fails, or the server refuses writes by role (fenced
// after a promotion elsewhere, or an ordinary follower) — the client
// probes every candidate's HEALTH and re-pins writes to the server that
// reports itself a writable primary at the highest promotion epoch.
//
// The epoch is what makes this safe during a partition: both the old and
// the new primary may answer the probe, but the promotion bumped the
// epoch durably, so the comparison always prefers the successor. The old
// primary either already knows it is fenced (and reports RoleFenced) or
// still calls itself primary at the *lower* epoch and loses the
// comparison.
//
// Exactly-once across failover: the in-flight write frame is replayed on
// the new primary byte-identical, idempotency key included. If the
// original write reached the old primary's log and was replicated before
// the crash, the new primary's dedup window recognizes the key and
// reports the first application's result instead of applying twice; if
// it never made it, the replay is the first application. Either way the
// caller observes one write. (A write the old primary acked but never
// shipped stays durable in its log, outside the new history — the
// at-risk writes of docs/REPLICATION.md.)
package client

import (
	"errors"
	"net"
	"time"

	"dbpl/internal/server/wire"
)

// failoverEligible reports whether err is the kind of failure a change
// of primary can fix: transport loss (the server may be dead) or a
// role-based write refusal (the server is alive but demoted). Definite
// application errors — no-root, txn, corrupt, degraded — would reproduce
// on any server and never trigger failover.
func (c *Client) failoverEligible(err error) bool {
	if len(c.o.Replicas) == 0 {
		return false
	}
	if errors.Is(err, ErrFenced) || errors.Is(err, ErrReadOnly) ||
		errors.Is(err, ErrConnLost) || errors.Is(err, ErrDeadline) {
		return true
	}
	var ne net.Error // dial timeouts, refused connections, resets
	return errors.As(err, &ne)
}

// failover probes the candidate set and re-pins writes to the best
// writable primary. It returns true when a writable primary was found —
// whether or not the pin changed: finding the *current* address writable
// means the primary recovered (or the pool merely held stale
// connections), and the caller should replay against a fresh connection
// either way. Returns false when no candidate is currently writable; the
// caller falls back to the ordinary retry policy.
func (c *Client) failover() bool {
	cur := c.primary()
	var best string
	var bestEpoch uint64
	found := false
	for _, addr := range c.candidates() {
		h, err := c.probeAddr(addr)
		if err != nil || h.Poisoned || h.Role != wire.RolePrimary {
			continue
		}
		if !found || h.Epoch > bestEpoch {
			found, best, bestEpoch = true, addr, h.Epoch
		}
	}
	if !found {
		return false
	}
	if best != cur {
		c.m.failovers.Inc()
	}
	c.repin(best)
	return true
}

// candidates is the failover probe order: the original dialed address
// first, then every configured replica. The *current* pin is probed too
// (it is one of these), so a recovered primary wins ties at equal epoch
// only if it sorts first — and a promoted follower always wins outright,
// because promotion bumped its epoch.
func (c *Client) candidates() []string {
	out := make([]string, 0, 1+len(c.o.Replicas))
	out = append(out, c.origin)
	for _, a := range c.o.Replicas {
		if a != c.origin {
			out = append(out, a)
		}
	}
	return out
}

// probeAddr is one HEALTH round against addr on a dedicated connection,
// under tight timeouts: failover is latency-critical and a blackholed
// candidate must cost ~2s, not the full request timeout.
func (c *Client) probeAddr(addr string) (Health, error) {
	po := c.o
	po.DialTimeout = capDur(c.o.dialTimeout(), 2*time.Second)
	cn, err := dialConn(addr, po)
	if err != nil {
		return Health{}, err
	}
	defer cn.fail(ErrClosed)
	return decodeHealth(c.run(once, wire.OpHealth, func() (byte, [][]byte, error) {
		return cn.roundTrip(capDur(c.o.requestTimeout(), 2*time.Second), wire.OpHealth)
	}))
}

// capDur bounds d to at most cap; 0 (no deadline) also becomes cap.
func capDur(d, cap time.Duration) time.Duration {
	if d <= 0 || d > cap {
		return cap
	}
	return d
}

// repin swaps the write target and kills every pooled and idle
// connection so the next request, and the next Begin, dials the new
// primary. In-flight requests on the old pool fail with ErrConnLost and
// retry — against the new pin.
func (c *Client) repin(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.addr != addr {
		c.addr = addr
	}
	c.dropConns(ErrConnLost)
}
