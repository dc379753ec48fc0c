// Read fan-out across replication followers.
//
// A Client given Options.Replicas spreads idempotent reads (Get, Join,
// Names, Explain*) round-robin over the followers and keeps writes on the
// primary. Two safety rules make this transparent:
//
//   - Staleness bound: a background prober polls HEALTH on the primary
//     and every replica (both report their durable log offset), and a
//     replica lagging more than maxReplicaLag bytes behind the primary is
//     taken out of rotation until it catches up.
//
//   - Read-your-writes pinning: the client stamps every write with a
//     monotone counter, and a replica is only eligible once a probe has
//     proven it caught up to the primary's durable end *after* the last
//     write was acknowledged. Between a write and that proof, reads pin
//     to the primary, so a session can never fail to see its own writes.
//
// Any replica failure falls back to the primary under the normal retry
// policy — fan-out can only add capacity, never subtract availability.
package client

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dbpl/internal/server/wire"
)

// maxReplicaLag is the staleness bound in log bytes: a replica whose
// durable offset trails the primary's by more leaves the read rotation
// until it catches up.
const maxReplicaLag = 1 << 20

// replica is one follower: its lazily-dialed connection and the prober's
// verdict on it.
type replica struct {
	addr string
	// healthy is the last probe's verdict: reachable, not poisoned, and
	// within the staleness bound. A failed read also clears it.
	healthy atomic.Bool
	// synced is the client write-stamp up to which this replica has been
	// proven caught up; a replica is only read from while synced covers
	// every acknowledged write (read-your-writes).
	synced atomic.Uint64
	// role and epoch are the last probe's self-report. A change in either
	// invalidates every cached verdict: the old proofs described a
	// different regime. Without this a demoted primary would keep serving
	// fan-out reads on its stale pre-fence proof, and a promoted follower
	// would never be re-proven in its new role.
	role  atomic.Int32
	epoch atomic.Uint64

	mu sync.Mutex
	cn *conn
}

func (rep *replica) getConn(o Options) (*conn, error) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.cn != nil && !rep.cn.isDead() {
		return rep.cn, nil
	}
	cn, err := dialConn(rep.addr, o)
	if err != nil {
		return nil, err
	}
	rep.cn = cn
	return cn, nil
}

func (rep *replica) closeConn() {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if rep.cn != nil {
		rep.cn.fail(ErrClosed)
		rep.cn = nil
	}
}

// roundTrip is one single-attempt request against this replica; the
// caller handles failure by falling back to the primary.
func (rep *replica) roundTrip(c *Client, op byte, fields ...[]byte) (byte, [][]byte, error) {
	cn, err := rep.getConn(c.o)
	if err != nil {
		return 0, nil, err
	}
	return cn.roundTrip(c.o.requestTimeout(), op, fields...)
}

func (rep *replica) health(c *Client) (Health, error) {
	return decodeHealth(c.run(once, wire.OpHealth, func() (byte, [][]byte, error) {
		return rep.roundTrip(c, wire.OpHealth)
	}))
}

// replicaSet is the rotation and its prober.
type replicaSet struct {
	c    *Client
	reps []*replica
	next atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func newReplicaSet(c *Client, addrs []string) *replicaSet {
	rs := &replicaSet{c: c, stop: make(chan struct{}), done: make(chan struct{})}
	for _, a := range addrs {
		rs.reps = append(rs.reps, &replica{addr: a})
	}
	go rs.probeLoop()
	return rs
}

func (rs *replicaSet) close() {
	close(rs.stop)
	<-rs.done
	for _, rep := range rs.reps {
		rep.closeConn()
	}
}

// pick returns the next eligible replica in round-robin order, nil when
// none is (reads then go to the primary).
func (rs *replicaSet) pick() *replica {
	min := rs.c.writes.Load()
	start := int(rs.next.Add(1) - 1)
	for i := 0; i < len(rs.reps); i++ {
		rep := rs.reps[(start+i)%len(rs.reps)]
		if rep.healthy.Load() && rep.synced.Load() >= min {
			return rep
		}
	}
	return nil
}

func (rs *replicaSet) probeLoop() {
	defer close(rs.done)
	rs.probe()
	t := time.NewTicker(rs.c.o.replicaProbe())
	defer t.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case <-t.C:
			rs.probe()
		}
	}
}

// probe refreshes every replica's verdict from one HEALTH round each.
// Ordering carries the read-your-writes proof: the write stamp is read
// first, then the primary's durable end — which therefore covers every
// write acknowledged before the stamp — so a replica at or past that end
// has all of them, and its synced stamp may advance to s0.
func (rs *replicaSet) probe() {
	c := rs.c
	s0 := c.writes.Load()
	ph, perr := c.healthOnce()
	for _, rep := range rs.reps {
		h, err := rep.health(c)
		if err != nil || h.Poisoned {
			rep.healthy.Store(false)
			continue
		}
		if wire.Role(rep.role.Load()) != h.Role || rep.epoch.Load() != h.Epoch {
			// The server changed role or observed a promotion since the
			// last probe: every cached verdict about it is void. Reset the
			// read-your-writes proof; this probe round re-derives it
			// against the current primary under the new regime.
			rep.role.Store(int32(h.Role))
			rep.epoch.Store(h.Epoch)
			rep.synced.Store(0)
		}
		if h.Role == wire.RoleFenced {
			// A fenced ex-primary follows nobody: its data is frozen at
			// the moment it was demoted and can only grow staler. Unlike a
			// lagging follower it will never re-qualify on its own, so it
			// leaves the rotation until an operator rejoins it.
			rep.healthy.Store(false)
			continue
		}
		if perr == nil {
			if ph.DurableEnd-h.DurableEnd > maxReplicaLag {
				rep.healthy.Store(false)
				continue
			}
			if h.DurableEnd >= ph.DurableEnd {
				rep.synced.Store(s0)
			}
		}
		// With the primary unreachable no catch-up proof is possible: the
		// replica stays in rotation for reads already covered by its last
		// proof, preserving availability without weakening pinning.
		rep.healthy.Store(true)
	}
}

// healthOnce is a single-attempt HEALTH against the primary (the retrying
// Health() would stall the prober for seconds while the primary is down).
func (c *Client) healthOnce() (Health, error) {
	return decodeHealth(c.run(once, wire.OpHealth, func() (byte, [][]byte, error) {
		return c.roundTrip(wire.OpHealth)
	}))
}

// noteWrite bumps the write stamp, pinning reads to the primary until a
// probe proves the replicas caught up. Called on every write *attempt*,
// successful or not: a deadline or lost connection leaves the outcome
// unknown, and pinning must cover the write that might have applied.
func (c *Client) noteWrite() { c.writes.Add(1) }

// replicaRead is a read's single attempt against an eligible replica;
// ok is false when none is eligible or the attempt failed in a way the
// primary may not, and the read then goes to the primary under the full
// retry policy. A definite application error returns as-is: the primary
// would say the same.
func (c *Client) replicaRead(op byte, fields [][]byte) (ok bool, out [][]byte, err error) {
	rep := c.reps.pick()
	if rep == nil {
		return false, nil, nil
	}
	c.m.replicaReads.Inc()
	out, err = c.run(once, op, func() (byte, [][]byte, error) {
		return rep.roundTrip(c, op, fields...)
	})
	// Role-change refusals (ErrReadOnly, ErrFenced) invalidate the cached
	// verdict and fall back — this server is not what the probe thought
	// it was, but the primary can still answer the read.
	if err == nil || !retryable(err) && !errors.Is(err, ErrShutdown) &&
		!errors.Is(err, ErrReadOnly) && !errors.Is(err, ErrFenced) {
		return true, out, err
	}
	rep.healthy.Store(false)
	rep.synced.Store(0)
	c.m.replicaFallbacks.Inc()
	return false, nil, nil
}
