package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/server/netfault"
	"dbpl/internal/server/wire"
	"dbpl/internal/value"
)

// bootReplSrv boots a real server for the fan-out tests (the fakeServer
// harness cannot speak the replication stream). It returns the address,
// the store (for convergence polling), and an idempotent stop.
func bootReplSrv(t *testing.T, path string, cfg server.Config) (string, *intrinsic.Store, func()) {
	t.Helper()
	st, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
			st.Close()
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), st, stop
}

func waitCaughtUp(t *testing.T, p, f *intrinsic.Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.DurableEnd() != f.DurableEnd() || p.DurableEnd() <= intrinsic.HeaderSize {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d, primary at %d", f.DurableEnd(), p.DurableEnd())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitEligible polls until the prober has put a replica into rotation for
// the client's current write stamp.
func waitEligible(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.reps.pick() == nil {
		if time.Now().After(deadline) {
			t.Fatal("no replica ever became eligible")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaReadFanOut: with a caught-up follower configured, an
// idempotent read is served by the replica — the replica-read counter
// moves, the fallback counter does not, and the data is the primary's.
func TestReplicaReadFanOut(t *testing.T) {
	dir := t.TempDir()
	paddr, pst, _ := bootReplSrv(t, filepath.Join(dir, "p.log"), server.Config{})
	faddr, fst, _ := bootReplSrv(t, filepath.Join(dir, "f.log"),
		server.Config{Follow: paddr, ReplHeartbeat: 50 * time.Millisecond})

	c, err := Dial(paddr, &Options{Replicas: []string{faddr}, ReplicaProbe: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("greeting", value.String("hello"), nil); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pst, fst)
	waitEligible(t, c)

	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "greeting" {
		t.Fatalf("replica NAMES = %v, want [greeting]", names)
	}
	if reads := c.m.replicaReads.Value(); reads < 1 {
		t.Errorf("replica reads = %d, want >= 1 (read did not fan out)", reads)
	}
	if fb := c.m.replicaFallbacks.Value(); fb != 0 {
		t.Errorf("replica fallbacks = %d, want 0", fb)
	}
}

// TestReadYourWritesPinning: after a write, reads pin to the primary
// until a probe proves the replica caught up — so a session sees its own
// writes even when replication is severed entirely.
func TestReadYourWritesPinning(t *testing.T) {
	dir := t.TempDir()
	paddr, pst, _ := bootReplSrv(t, filepath.Join(dir, "p.log"), server.Config{})
	px, err := netfault.New(paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	faddr, fst, _ := bootReplSrv(t, filepath.Join(dir, "f.log"),
		server.Config{Follow: px.Addr(), ReplHeartbeat: 50 * time.Millisecond})

	c, err := Dial(paddr, &Options{Replicas: []string{faddr}, ReplicaProbe: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("old", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pst, fst)
	waitEligible(t, c)

	// Sever replication, then write. The follower can never see this
	// write, so every read until it catches up must go to the primary.
	px.Partition()
	if err := c.Put("new", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	pinnedReads := c.m.replicaReads.Value()
	for i := 0; i < 5; i++ {
		names, err := c.Names()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range names {
			found = found || n == "new"
		}
		if !found {
			t.Fatalf("read %d missed our own write: NAMES = %v", i, names)
		}
		time.Sleep(15 * time.Millisecond) // span several probe cycles
	}
	if got := c.m.replicaReads.Value(); got != pinnedReads {
		t.Errorf("replica served %d reads while stale (pinning broken)", got-pinnedReads)
	}

	// Heal: once a probe proves catch-up past the write stamp, the
	// replica re-enters rotation.
	px.Heal()
	waitCaughtUp(t, pst, fst)
	waitEligible(t, c)
}

// TestReplicaFallbackToPrimary: a replica dying between probes costs one
// failed attempt, not the read — the client falls back to the primary and
// takes the replica out of rotation itself.
func TestReplicaFallbackToPrimary(t *testing.T) {
	dir := t.TempDir()
	paddr, pst, _ := bootReplSrv(t, filepath.Join(dir, "p.log"), server.Config{})
	faddr, fst, stopFollower := bootReplSrv(t, filepath.Join(dir, "f.log"),
		server.Config{Follow: paddr, ReplHeartbeat: 50 * time.Millisecond})

	// Seed through a separate client so the fan-out client's write stamp
	// stays zero: its very first probe (before the hour-long tick) proves
	// eligibility, and no later probe runs to notice the follower died.
	w, err := Dial(paddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("k", value.Int(7), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	waitCaughtUp(t, pst, fst)

	c, err := Dial(paddr, &Options{Replicas: []string{faddr}, ReplicaProbe: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitEligible(t, c)

	stopFollower()
	names, err := c.Names()
	if err != nil {
		t.Fatalf("read with dead replica: %v", err)
	}
	if len(names) != 1 || names[0] != "k" {
		t.Fatalf("NAMES = %v, want [k]", names)
	}
	if fb := c.m.replicaFallbacks.Value(); fb != 1 {
		t.Errorf("replica fallbacks = %d, want 1", fb)
	}
	if c.reps.reps[0].healthy.Load() {
		t.Error("dead replica still marked healthy after a failed read")
	}
	// The next read goes straight to the primary: no second fallback.
	if _, err := c.Names(); err != nil {
		t.Fatal(err)
	}
	if fb := c.m.replicaFallbacks.Value(); fb != 1 {
		t.Errorf("replica fallbacks = %d after second read, want still 1", fb)
	}
}

// TestReadOnlyRefusalNotRetried: a follower's write refusal is a definite
// answer — retrying it could never succeed — so the retry loop must
// surface ErrReadOnly after exactly one attempt.
func TestReadOnlyRefusalNotRetried(t *testing.T) {
	dir := t.TempDir()
	paddr, pst, _ := bootReplSrv(t, filepath.Join(dir, "p.log"), server.Config{})
	faddr, fst, _ := bootReplSrv(t, filepath.Join(dir, "f.log"),
		server.Config{Follow: paddr, ReplHeartbeat: 50 * time.Millisecond})
	w, err := Dial(paddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("k", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	waitCaughtUp(t, pst, fst)

	c, err := Dial(faddr, &Options{RetryPolicy: RetryPolicy{MaxAttempts: 8, Budget: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("x", value.Int(2), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on follower: %v, want ErrReadOnly", err)
	}
	if n := c.m.attempts[wire.OpPut].Value(); n != 1 {
		t.Errorf("PUT attempts = %d, want exactly 1 (read-only must not be retried)", n)
	}
}

// TestReplicaLagLeavesRotation: the staleness bound. A follower cut off
// from its primary stays in a reader's rotation while it trails by less
// than maxReplicaLag bytes of log: the reader has written nothing, so
// read-your-writes pins nothing. Once the primary has taken more than that
// from another client, the prober takes the follower out and reads go to
// the primary. After the heal and catch-up it returns to the rotation.
func TestReplicaLagLeavesRotation(t *testing.T) {
	dir := t.TempDir()
	paddr, pst, _ := bootReplSrv(t, filepath.Join(dir, "p.log"), server.Config{})
	px, err := netfault.New(paddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	faddr, fst, _ := bootReplSrv(t, filepath.Join(dir, "f.log"),
		server.Config{Follow: px.Addr(), ReplHeartbeat: 50 * time.Millisecond})
	w, err := Dial(paddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	payload := value.String(strings.Repeat("x", 64<<10))
	puts := 0
	put := func() {
		t.Helper()
		puts++
		if err := w.Put(fmt.Sprintf("k%d", puts), payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	put()
	waitCaughtUp(t, pst, fst)

	c, err := Dial(paddr, &Options{Replicas: []string{faddr}, ReplicaProbe: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitEligible(t, c)
	names := func() []string {
		t.Helper()
		ns, err := c.Names()
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}

	px.Partition()
	put()
	time.Sleep(100 * time.Millisecond) // several probe rounds
	if lag := pst.DurableEnd() - fst.DurableEnd(); lag <= 0 || lag > maxReplicaLag {
		t.Fatalf("follower trails by %d bytes, want 0 < lag ≤ %d", lag, maxReplicaLag)
	}
	before := c.m.replicaReads.Value()
	if ns := names(); len(ns) != 1 || c.m.replicaReads.Value() != before+1 {
		t.Fatalf("within the bound: NAMES = %v, replica reads %d → %d; want the follower's one name, served by it",
			ns, before, c.m.replicaReads.Value())
	}

	for pst.DurableEnd()-fst.DurableEnd() <= maxReplicaLag {
		put()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.reps.pick() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("a follower %d bytes behind is still in rotation", pst.DurableEnd()-fst.DurableEnd())
		}
		time.Sleep(5 * time.Millisecond)
	}
	before = c.m.replicaReads.Value()
	if ns := names(); len(ns) != puts || c.m.replicaReads.Value() != before {
		t.Errorf("past the bound: NAMES has %d names, replica reads %d → %d; want all %d, from the primary",
			len(ns), before, c.m.replicaReads.Value(), puts)
	}

	px.Heal()
	waitCaughtUp(t, pst, fst)
	waitEligible(t, c)
	before = c.m.replicaReads.Value()
	if ns := names(); len(ns) != puts || c.m.replicaReads.Value() != before+1 {
		t.Errorf("after catch-up: NAMES has %d names, replica reads %d → %d; want all %d, from the follower",
			len(ns), before, c.m.replicaReads.Value(), puts)
	}
}
