// White-box test for the follower's read-your-writes window: the test
// itself plays the applier, so it can stop between the two halves of
// applyReplicated — the group durable in the follower's store, the state
// that serves it not yet published — for as long as it likes.
package server

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// serveWB is wbServer with a listener; Serve returns when wbServer's
// cleanup shuts the server down.
func serveWB(t *testing.T, name string, cfg Config) (*Server, *intrinsic.Store, string) {
	t.Helper()
	srv, st := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), name), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, st, ln.Addr().String()
}

// deadAddr is an address nobody listens on: a follower given it idles in
// redial backoff, leaving the test as the only applier.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func healthOf(t *testing.T, s *Server) wire.Health {
	t.Helper()
	_, fields := s.handleHealth(nil, nil)
	h, err := wire.DecodeHealth(fields)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFollowerHealthNeverAheadOfPublishedState parks the applier between
// apply and publish. The client's prober treats a replica whose HEALTH
// end reaches the primary's as proof it serves every acknowledged write;
// while the follower's store holds a group its published state does not,
// HEALTH must therefore still report the old end, and a GET the client
// routes after probing must never miss the write. Once the state is
// published the end advances and the replica takes reads again.
func TestFollowerHealthNeverAheadOfPublishedState(t *testing.T) {
	_, pst, paddr := serveWB(t, "primary.log", Config{})
	fsrv, fst, faddr := serveWB(t, "follower.log", Config{Follow: deadAddr(t)})

	c, err := client.Dial(paddr, &client.Options{Replicas: []string{faddr}, ReplicaProbe: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	replicaReads := c.Telemetry().Counter("dbpl_client_replica_reads_total")
	healthServed := fsrv.Telemetry().Counter(`dbpl_server_requests_total{op="HEALTH"}`)
	rec := types.MustParse("{Name: String}")
	sees := func(want int) {
		t.Helper()
		got, err := c.Get(rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("GET returned %d records, want %d: a routed read missed an acknowledged write", len(got), want)
		}
	}
	// probed blocks until the follower has answered three more HEALTH
	// probes: the second of them belongs to a probe round that began after
	// the call, and the third shows that round has finished.
	probed := func() {
		t.Helper()
		from := healthServed.Value()
		for deadline := time.Now().Add(10 * time.Second); healthServed.Value() < from+3; {
			if time.Now().After(deadline) {
				t.Fatal("the client's prober stopped probing the follower")
			}
			time.Sleep(time.Millisecond)
		}
	}
	// ship reads everything the follower lacks from the primary's log.
	ship := func() []byte {
		t.Helper()
		raw, _, n, err := pst.ReadGroupsAt(fst.DurableEnd(), 0)
		if err != nil || n == 0 {
			t.Fatalf("ReadGroupsAt = %d groups, %v", n, err)
		}
		return raw
	}

	if err := c.Put("w1", value.Rec("Name", value.String("one")), nil); err != nil {
		t.Fatal(err)
	}
	raw := ship()
	fsrv.commitMu.Lock()
	delta, err := fst.ApplyGroup(raw)
	if err == nil {
		err = fsrv.publishDelta(delta)
	}
	fsrv.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	probed()
	before := replicaReads.Value()
	sees(1)
	if replicaReads.Value() == before {
		t.Fatal("a caught-up replica took no read: the test would not exercise the routing")
	}

	// The second write: applied on the follower, not yet published.
	if err := c.Put("w2", value.Rec("Name", value.String("two")), nil); err != nil {
		t.Fatal(err)
	}
	published := healthOf(t, fsrv).DurableEnd
	func() {
		// Deferred, so a failure below releases the lock before the
		// cleanup's Shutdown asks for it.
		fsrv.commitMu.Lock()
		defer fsrv.commitMu.Unlock()
		delta, err := fst.ApplyGroup(ship())
		if err != nil {
			t.Fatal(err)
		}
		if fst.DurableEnd() != pst.DurableEnd() {
			t.Fatalf("follower store at %d, primary at %d: the group is not applied", fst.DurableEnd(), pst.DurableEnd())
		}
		if h := healthOf(t, fsrv); h.DurableEnd != published {
			t.Errorf("HEALTH reports end %d while the state still covers %d", h.DurableEnd, published)
		}
		probed()
		for i := 0; i < 20; i++ {
			sees(2)
		}
		if err := fsrv.publishDelta(delta); err != nil {
			t.Fatal(err)
		}
	}()

	if h := healthOf(t, fsrv); h.DurableEnd != pst.DurableEnd() {
		t.Errorf("HEALTH reports end %d after publishing, primary at %d", h.DurableEnd, pst.DurableEnd())
	}
	probed()
	before = replicaReads.Value()
	sees(2)
	if replicaReads.Value() == before {
		t.Error("the replica never re-entered the rotation after publishing")
	}
}

// TestFollowerPublishesStatelessGroup: a group that changes no state — here
// a bare epoch record — still moves the end HEALTH reports, or the replica
// would look one group behind until the next write, and still wakes this
// server's own streamers, which have the group to re-ship.
func TestFollowerPublishesStatelessGroup(t *testing.T) {
	_, pst := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "primary.log"), Config{})
	fsrv, fst := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "follower.log"), Config{Follow: deadAddr(t)})
	if _, err := pst.Promote(); err != nil {
		t.Fatal(err)
	}
	raw, _, n, err := pst.ReadGroupsAt(fst.DurableEnd(), 0)
	if err != nil || n != 1 {
		t.Fatalf("ReadGroupsAt = %d groups, %v", n, err)
	}
	state, woken := fsrv.state.Load(), *fsrv.commitSignal.Load()
	fsrv.commitMu.Lock()
	delta, err := fst.ApplyGroup(raw)
	if err == nil {
		err = fsrv.publishDelta(delta)
	}
	fsrv.commitMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if fsrv.state.Load() != state {
		t.Fatal("an epoch record changed the published state: the test would not exercise the state-less path")
	}
	if h := healthOf(t, fsrv); h.DurableEnd != pst.DurableEnd() {
		t.Errorf("HEALTH reports end %d, primary at %d", h.DurableEnd, pst.DurableEnd())
	}
	select {
	case <-woken:
	default:
		t.Error("the streamers were not woken for a group they have to ship")
	}
}

// TestFollowerRefusesNonConformingGroup: a group whose root does not
// conform to its declared type — a serve primary never ships one, but a
// program on the intrinsic API can commit one by mutating a bound value —
// is durable in the follower's store, yet no state can serve it. The
// applier returns the error and publishes nothing: the state is the same
// pointer and HEALTH keeps reporting the end that state covers.
func TestFollowerRefusesNonConformingGroup(t *testing.T) {
	pst, err := intrinsic.Open(filepath.Join(t.TempDir(), "primary.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	rec := value.Rec("A", value.Int(1))
	if err := pst.Bind("r", rec, types.MustParse("{A: Int}")); err != nil {
		t.Fatal(err)
	}
	rec.Set("A", value.String("x"))
	if _, err := pst.Commit(); err != nil {
		t.Fatal(err)
	}

	fsrv, fst := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "follower.log"), Config{Follow: deadAddr(t)})
	start := fst.DurableEnd()
	raw, _, n, err := pst.ReadGroupsAt(start, 0)
	if err != nil || n != 1 {
		t.Fatalf("ReadGroupsAt = %d groups, %v", n, err)
	}
	state, before := fsrv.state.Load(), healthOf(t, fsrv).DurableEnd
	if _, err := fsrv.applyReplicated(wire.ReplData{Start: start, Raw: raw}); err == nil {
		t.Fatal("a group binding a non-conforming root was published")
	}
	if fsrv.state.Load() != state {
		t.Error("the published state changed")
	}
	if h := healthOf(t, fsrv); h.DurableEnd != before || fst.DurableEnd() != pst.DurableEnd() {
		t.Errorf("HEALTH end %d (was %d), store end %d (primary %d): want HEALTH unmoved and the store at the primary",
			h.DurableEnd, before, fst.DurableEnd(), pst.DurableEnd())
	}
}
