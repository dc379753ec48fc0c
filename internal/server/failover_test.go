// The failover chaos battery: epoch-fenced follower promotion,
// stale-primary demotion, divergent-rejoin refusal, and client-driven
// write failover, each under the faults that motivate them — a dead
// primary, a partition straddling the promotion, a bit flip or a silently
// hung link in the middle of it. `make race` runs it under the race
// detector; alone it is
// `go test -race -run 'Promote|Failover|Fence' ./internal/server/ ./client/`.
//
// The three invariants under test:
//
//  1. Durability across promotion: every write acked at-or-below the
//     follower's durable end when the primary died is readable on the
//     promoted follower — and its log remains a byte prefix of what the
//     old primary held, extended only by the epoch record and new
//     commits.
//  2. Fencing: once a higher epoch exists, the stale primary's write
//     path answers CodeFenced naming its successor; writes it acked
//     while partitioned survive in its own log (never truncated) but do
//     not leak into the new history.
//  3. Divergence is typed, never silent: an old primary rejoining with
//     forked history gets a *intrinsic.DivergenceError and keeps its
//     log intact, rather than having the fork overwritten.
package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/server/netfault"
	"dbpl/internal/server/wire"
	"dbpl/internal/value"
)

// promotableCfg is replCfg plus the promotion gate — the config an
// operator gives a follower that is allowed to take over.
func promotableCfg(primary string) server.Config {
	cfg := replCfg(primary)
	cfg.AllowPromote = true
	return cfg
}

// waitRole polls a server's HEALTH until it reports the wanted role.
func waitRole(t *testing.T, c *client.Client, want wire.Role) client.Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health()
		if err == nil && h.Role == want {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reached role %v (last health %+v, err %v)", want, h, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFailoverPromoteAfterPrimaryDeath is invariant 1 end to end: the
// primary dies, the follower is promoted by the operator verb, and every
// write acked at-or-below the follower's durable end survives — the log
// grows by exactly the epoch record plus new commits, byte-preserving
// the old primary's history as a prefix.
func TestFailoverPromoteAfterPrimaryDeath(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	for i, name := range []string{"e1", "e2", "e3"} {
		if err := pc.Put(name, emp(name, int64(i+1), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	// Promotion is an explicit operator grant, not a default capability:
	// a server booted without -allow-promote refuses the verb.
	if _, err := pc.Promote(); err == nil || !strings.Contains(err.Error(), "allow-promote") {
		t.Fatalf("PROMOTE without AllowPromote: %v, want a refusal naming the flag", err)
	}

	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, promotableCfg(p.addr))
	waitConverged(t, p, f)
	lastAcked := f.store.DurableEnd() // every write acked by p is at or below this
	p.stop()

	fc := dial(t, f, noRetry())
	epoch, err := fc.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("promotion epoch = %d, want 1 (first promotion of this log)", epoch)
	}
	h := waitRole(t, fc, wire.RolePrimary)
	if h.Role != wire.RolePrimary || h.Epoch != 1 {
		t.Fatalf("promoted HEALTH = %+v, want writable primary at epoch 1", h)
	}

	// Invariant 1: everything acked at-or-below lastAcked is readable.
	got, err := fc.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"e1", "e2", "e3"}; fmt.Sprint(namesOf(got)) != fmt.Sprint(want) {
		t.Fatalf("promoted follower GET = %v, want %v", namesOf(got), want)
	}
	// The write path is live again — the inverse of the follower refusal.
	if err := fc.Put("e4", emp("e4", 4, "Manuf"), employeeT); err != nil {
		t.Fatalf("PUT on promoted follower: %v", err)
	}

	// Byte-level: the dead primary's log is exactly the shipped prefix —
	// its shutdown appended nothing — and that prefix is still a byte
	// prefix of the survivor's log; the promotion appended, never rewrote.
	pb, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pb)) != lastAcked || int64(len(fb)) <= lastAcked || !bytes.Equal(fb[:lastAcked], pb) {
		t.Fatalf("dead primary's log (%d bytes) is not the shipped prefix [0,%d) of the promoted log (%d bytes)",
			len(pb), lastAcked, len(fb))
	}
	// Epoch is monotonic: a second promotion (e.g. failing back later)
	// bumps again rather than reusing the number.
	if e2, err := fc.Promote(); err != nil || e2 != 2 {
		t.Fatalf("second Promote = (%d, %v), want (2, nil)", e2, err)
	}

	// The log the promoted server wrote with the committer alone — the
	// epoch groups and e4's — reopens to e1–e4 at epoch 2.
	f.stop()
	st, err := intrinsic.Open(f.path)
	if err != nil {
		t.Fatalf("reopen the promoted log: %v", err)
	}
	defer st.Close()
	if names := st.Names(); fmt.Sprint(names) != "[e1 e2 e3 e4]" || st.Epoch() != 2 {
		t.Fatalf("reopened promoted log = %v at epoch %d, want [e1 e2 e3 e4] at epoch 2", names, st.Epoch())
	}
}

// TestFailoverFencedPrimaryRefusesLateAcks is invariant 2: the primary is
// partitioned from its follower mid-stream and keeps acking writes; the
// follower is promoted behind the partition; when the partition heals,
// the fence notification lands and the old primary's write path answers
// CodeFenced naming its successor. The writes it acked while partitioned
// stay in its own log — readable, never truncated — but are absent from
// the new history.
func TestFailoverFencedPrimaryRefusesLateAcks(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, noRetry())
	if err := pc.Put("shared", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	px, err := netfault.New(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, promotableCfg(px.Addr()))
	waitConverged(t, p, f)

	// The partition opens; the stale primary keeps acking writes that can
	// no longer ship. These are exactly the at-risk writes the runbook
	// warns about.
	px.Partition()
	for _, n := range []string{"late1", "late2"} {
		if err := pc.Put(n, value.String(n), nil); err != nil {
			t.Fatalf("stale primary refused %s during partition: %v", n, err)
		}
	}

	fc := dial(t, f, noRetry())
	if _, err := fc.Promote(); err != nil {
		t.Fatalf("Promote behind partition: %v", err)
	}
	// The new history moves on without the late writes.
	if err := fc.Put("newhist", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}

	// Heal: the new primary's retried fence notification gets through and
	// the old primary demotes itself.
	px.Heal()
	waitRole(t, pc, wire.RoleFenced)

	// The fence decision is visible on the write path: CodeFenced, naming
	// the successor so a human (or a failover client) knows where to go.
	err = pc.Put("after-fence", value.Int(3), nil)
	if !errors.Is(err, client.ErrFenced) {
		t.Fatalf("PUT on fenced primary: %v, want ErrFenced", err)
	}
	if !strings.Contains(err.Error(), f.addr) {
		t.Fatalf("fenced refusal %q does not name the new primary %s", err, f.addr)
	}
	if n := counter(p, `dbpl_server_errors_total{code="fenced"}`); n < 1 {
		t.Errorf(`errors_total{code="fenced"} = %d, want >= 1`, n)
	}

	// The late acks survive in the old primary's own log (no truncation) …
	names, err := pc.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"late1", "late2", "shared"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("fenced primary NAMES = %v: acked root %q was lost", names, want)
		}
	}
	// … and never leak into the new history.
	fnames, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fnames {
		if n == "late1" || n == "late2" {
			t.Fatalf("unshipped write %q leaked into the new primary's history", n)
		}
	}

	// A client pinned to the fenced primary with a failover set follows
	// the fence to the successor on its own.
	foc := dial(t, p, &client.Options{Replicas: []string{f.addr}, RequestTimeout: 2 * time.Second})
	if err := foc.Put("via-failover", value.Int(4), nil); err != nil {
		t.Fatalf("failover client PUT through fenced primary: %v", err)
	}
	if n := foc.Telemetry().Counter("dbpl_client_failovers_total").Value(); n != 1 {
		t.Errorf("client failovers counter = %d, want 1", n)
	}
	h, err := fc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Role != wire.RolePrimary || h.Epoch != 1 {
		t.Fatalf("new primary HEALTH = %+v, want primary at epoch 1", h)
	}
}

// TestFailoverDivergentRejoinRefused is invariant 3: the old primary
// forked (it acked writes that never shipped) and the new primary's
// history moved past the shared prefix. When the old primary rejoins as
// a follower, rejoin verification ends in a typed DivergenceError; its
// forked log is left byte-for-byte intact and its reads keep working.
func TestFailoverDivergentRejoinRefused(t *testing.T) {
	dir := t.TempDir()
	ppath := filepath.Join(dir, "primary.log")
	p1 := bootAt(t, ppath, freeAddr(t), server.Config{})
	pc := dial(t, p1, noRetry())
	if err := pc.Put("shared", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	px, err := netfault.New(p1.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, promotableCfg(px.Addr()))
	waitConverged(t, p1, f)

	// Fork: behind the partition the old primary acks "old-fork" (never
	// ships), while the promoted follower commits "new-fork" at the same
	// offset of a different history.
	px.Partition()
	if err := pc.Put("old-fork", value.String("acked but never shipped"), nil); err != nil {
		t.Fatal(err)
	}
	fc := dial(t, f, noRetry())
	if _, err := fc.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := fc.Put("new-fork", value.String("the new history"), nil); err != nil {
		t.Fatal(err)
	}

	// Rejoin: restart the old primary as a follower of its successor,
	// capturing its log output so the typed refusal is observable.
	p1.stop()
	var logMu sync.Mutex
	var logBuf strings.Builder
	cfg := replCfg(f.addr)
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logBuf, format+"\n", args...)
		logMu.Unlock()
	}
	p2 := bootAt(t, ppath, freeAddr(t), cfg)
	forkedEnd := p2.store.DurableEnd()

	// The refusal is typed and permanent: the follow loop logs the
	// DivergenceError and exits instead of retrying into the same wall.
	deadline := time.Now().Add(10 * time.Second)
	for {
		logMu.Lock()
		logged := logBuf.String()
		logMu.Unlock()
		if strings.Contains(logged, "diverges at offset") && strings.Contains(logged, "refusing to truncate") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejoin never surfaced the typed divergence refusal; log:\n%s", logged)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Never silent truncation: the forked log did not move — no byte
	// appended, none removed — while the new history kept growing.
	if end := p2.store.DurableEnd(); end != forkedEnd {
		t.Fatalf("rejoining old primary's durable end moved %d -> %d; divergence must freeze the log", forkedEnd, end)
	}
	if f.store.DurableEnd() <= intrinsic.HeaderSize {
		t.Fatal("new primary's history vanished")
	}
	// The fork stays readable on the refused node (reads keep working; the
	// runbook salvages from here), and stays out of the new history.
	p2c := dial(t, p2, noRetry())
	names, err := p2c.Names()
	if err != nil {
		t.Fatal(err)
	}
	haveFork := false
	for _, n := range names {
		haveFork = haveFork || n == "old-fork"
	}
	if !haveFork {
		t.Fatalf("refused node NAMES = %v: forked root 'old-fork' was lost", names)
	}
	fnames, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fnames {
		if n == "old-fork" {
			t.Fatal("forked root 'old-fork' leaked into the new history during rejoin")
		}
	}
}

// TestFailoverFlipByteDuringPromotion: a bit flip corrupts the
// replication stream in the same instant the follower is promoted. The
// frame CRC keeps the damaged group out of the follower's log, so the
// promoted log is a clean whole prefix of the old primary's plus the
// epoch record — promotion never launders wire corruption into history.
func TestFailoverFlipByteDuringPromotion(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	if err := pc.Put("pre", value.Int(0), nil); err != nil {
		t.Fatal(err)
	}
	px, err := netfault.New(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	// A long heartbeat keeps the stream quiet between commits so the
	// armed flip lands inside the next REPDATA frame.
	cfg := server.Config{Follow: px.Addr(), ReplHeartbeat: 5 * time.Second, AllowPromote: true}
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, cfg)
	waitConverged(t, p, f)

	// FlipByte's offset counts from the bytes forwarded so far: 10 lands
	// inside the next frame however small its one-root group is.
	px.FlipByte(netfault.ServerToClient, 10)
	if err := pc.Put("flipped", value.String("in flight during promotion"), nil); err != nil {
		t.Fatal(err)
	}
	// Promote while the corrupted frame is in flight / being refused.
	preEnd := f.store.DurableEnd()
	fc := dial(t, f, noRetry())
	if _, err := fc.Promote(); err != nil {
		t.Fatalf("Promote during wire corruption: %v", err)
	}
	if err := fc.Put("after", value.Int(1), nil); err != nil {
		t.Fatalf("PUT after promotion: %v", err)
	}

	// Whatever the follower had applied before promotion is byte-identical
	// to the primary's prefix: the flipped frame never touched the log.
	pb, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(pb)) < preEnd || int64(len(fb)) < preEnd || !bytes.Equal(fb[:preEnd], pb[:preEnd]) {
		t.Fatalf("promoted log's pre-promotion prefix [0,%d) diverges from the primary's — corruption leaked", preEnd)
	}
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pre", "after"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("promoted NAMES = %v, want %q present", names, want)
		}
	}
}

// TestFailoverHeartbeatLossDuringPromotion: the follower's upstream link
// is silently hung — TCP up, no bytes, no FIN — which is the failure
// heartbeats exist to catch. Promotion in that state must not block on
// the hung link: stopFollow severs it locally and the epoch bump
// proceeds.
func TestFailoverHeartbeatLossDuringPromotion(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	if err := pc.Put("pre", value.Int(0), nil); err != nil {
		t.Fatal(err)
	}
	px, err := netfault.New(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, promotableCfg(px.Addr()))
	waitConverged(t, p, f)

	// Kill the live stream and arm the hang: the follower's redial is
	// accepted but answered with silence.
	px.HangNextConn()
	px.Partition()
	px.Heal()
	time.Sleep(100 * time.Millisecond) // let the redial land in the hang

	start := time.Now()
	fc := dial(t, f, noRetry())
	epoch, err := fc.Promote()
	if err != nil {
		t.Fatalf("Promote with hung upstream link: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("promotion with hung link took %v; must sever locally, not wait out the hang", took)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	if err := fc.Put("after", value.Int(1), nil); err != nil {
		t.Fatalf("PUT after promotion: %v", err)
	}
	h := waitRole(t, fc, wire.RolePrimary)
	if h.Role != wire.RolePrimary || h.Poisoned {
		t.Fatalf("promoted HEALTH = %+v, want writable", h)
	}
}

// TestClientWriteFailover: the client's Replicas list is a failover set.
// With the primary dead and the follower promoted, the next write fails
// over by probing HEALTH for the highest-epoch writable node, re-pins,
// and replays under the same idempotency key — the caller sees one
// successful Put and exactly one copy of the write.
func TestClientWriteFailover(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, promotableCfg(p.addr))

	c := dial(t, p, &client.Options{Replicas: []string{f.addr}, RequestTimeout: 2 * time.Second})
	for i, name := range []string{"w1", "w2"} {
		if err := c.Put(name, emp(name, int64(i+1), "Ops"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, p, f)
	p.stop()
	fc := dial(t, f, noRetry())
	if _, err := fc.Promote(); err != nil {
		t.Fatal(err)
	}

	// The pinned conns are dead; this write must fail over and land.
	if err := c.Put("w3", emp("w3", 3, "Ops"), employeeT); err != nil {
		t.Fatalf("PUT across failover: %v", err)
	}
	if n := c.Telemetry().Counter("dbpl_client_failovers_total").Value(); n != 1 {
		t.Errorf("client failovers counter = %d, want exactly 1", n)
	}
	// Exactly once: the replayed write exists exactly once in the
	// surviving history, alongside everything acked before the failover.
	got, err := fc.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"w1", "w2", "w3"}; fmt.Sprint(namesOf(got)) != fmt.Sprint(want) {
		t.Fatalf("post-failover GET = %v, want %v", namesOf(got), want)
	}
	// The pin is sticky: later writes go straight to the new primary with
	// no further probing.
	if err := c.Put("w4", emp("w4", 4, "Ops"), employeeT); err != nil {
		t.Fatalf("PUT after failover settled: %v", err)
	}
	if n := c.Telemetry().Counter("dbpl_client_failovers_total").Value(); n != 1 {
		t.Errorf("client failovers counter moved to %d after a settled write, want 1", n)
	}
	// Transactions fail over too: BEGIN re-pins the session dial.
	sess, err := c.Begin()
	if err != nil {
		t.Fatalf("Begin on failed-over client: %v", err)
	}
	if err := sess.Put("w5", emp("w5", 5, "Ops"), employeeT); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatalf("Commit on failed-over session: %v", err)
	}
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 5 {
		t.Fatalf("NAMES after session failover = %v, want 5 roots", names)
	}
}

// TestPlannedPromoteShipsOnlyTheNewBytes: a planned epoch bump on a live
// primary reaches its follower through the stream it is already on. That
// stream is contiguous, so nothing re-proves the follower's history: a
// bump plus one PUT ships at most twice the log bytes the two writes
// added, and the follower's log stays byte-identical to the primary's.
func TestPlannedPromoteShipsOnlyTheNewBytes(t *testing.T) {
	dir := t.TempDir()
	p := bootCfg(t, filepath.Join(dir, "primary.log"), nil, server.Config{AllowPromote: true})
	pc := dial(t, p, noRetry())
	for i := 0; i < 50; i++ { // a history that would cost a re-ship
		if err := pc.Put(fmt.Sprintf("r%02d", i), emp("E", int64(i), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	// Both ends keep the default heartbeat, so the link stays up: a
	// redial between the bump and its apply would rightly stream the
	// follower, then below the primary's epoch, from the log head.
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, server.Config{Follow: p.addr})
	waitConverged(t, p, f)
	end := p.store.DurableEnd()
	shipped := shippedAtLeast(t, p, uint64(end-intrinsic.HeaderSize))

	if epoch, err := pc.Promote(); err != nil || epoch != 1 {
		t.Fatalf("planned Promote = (%d, %v), want (1, nil)", epoch, err)
	}
	if err := pc.Put("after", emp("A", 99, "Ops"), employeeT); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	added := uint64(p.store.DurableEnd() - end)
	if rise := shippedAtLeast(t, p, shipped+added) - shipped; rise > 2*added {
		t.Fatalf("a planned bump and one PUT added %d log bytes but shipped %d: the follower's history was re-shipped", added, rise)
	}
	sameLog(t, p.path, f.path)
	if e := f.store.Epoch(); e != 1 {
		t.Fatalf("follower epoch = %d after applying the bump, want 1", e)
	}
}

// scriptedUpstream is a REPLICATE endpoint that is no server: each
// subscription is answered with script (whole frames), then silence until
// the subscriber hangs up. subs counts the subscriptions served.
func scriptedUpstream(t *testing.T, script []byte) (addr string, subs *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	subs = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if op, _, err := wire.ReadFrame(conn, 0); err != nil || op != wire.OpReplicate {
					return
				}
				subs.Add(1)
				conn.Write(script)
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String(), subs
}

// frameBytes encodes one whole frame for a scripted upstream.
func frameBytes(t *testing.T, op byte, fields ...[]byte) []byte {
	t.Helper()
	b, err := wire.AppendFrame(nil, 0, op, fields...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// loggedErrors is a Config.Logf that keeps the errors its lines carry,
// so a test can match the follow loop's refusals by type, not by text.
type loggedErrors struct {
	mu   sync.Mutex
	errs []error
}

func (l *loggedErrors) logf(_ string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range args {
		if err, ok := a.(error); ok {
			l.errs = append(l.errs, err)
		}
	}
}

// wait returns the first logged error that is target, failing the test
// if none is logged within ten seconds.
func (l *loggedErrors) wait(t *testing.T, target error) error {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		l.mu.Lock()
		for _, err := range l.errs {
			if errors.Is(err, target) {
				l.mu.Unlock()
				return err
			}
		}
		logged := fmt.Sprint(l.errs)
		l.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no logged error is %v; logged %s", target, logged)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailoverShorterHistoryRejoinRefused: an upstream above our epoch whose
// history is a byte-equal but shorter prefix of our log does not hold our
// last groups. Once its stream, begun at the log head, has matched every
// byte it has, its heartbeat at its end is refused with a DivergenceError
// at that end; the refusal is permanent, the follower's log does not move
// and its reads keep serving. An upstream's epoch records are in its log,
// so a real one holding only our bytes would be at our epoch; the
// upstream here is scripted to claim a higher one.
func TestFailoverShorterHistoryRejoinRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follower.log")
	st, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var short int64
	for i, name := range []string{"a", "b", "c"} {
		if err := st.Bind(name, value.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(); err != nil {
			t.Fatal(err)
		}
		if name == "b" {
			short = st.DurableEnd()
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	held, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The follower's log holds no epoch record: it subscribes at epoch 0.
	prefix := frameBytes(t, wire.OpRepData, wire.ReplDataFields(intrinsic.HeaderSize, held[intrinsic.HeaderSize:short], 1, 0, 0)...)
	addr, subs := scriptedUpstream(t, append(prefix, frameBytes(t, wire.OpRepData, wire.ReplDataFields(short, nil, 1, 0, 0)...)...))
	var logged loggedErrors
	cfg := replCfg(addr)
	cfg.Logf = logged.logf
	f := bootCfg(t, path, nil, cfg)

	var de *intrinsic.DivergenceError
	if err := logged.wait(t, intrinsic.ErrDiverged); !errors.As(err, &de) || de.Offset != short {
		t.Fatalf("rejoin refused with %v, want a DivergenceError at the upstream's end %d", err, short)
	}
	time.Sleep(200 * time.Millisecond) // the backoff would have redialed by now
	if n := subs.Load(); n != 1 {
		t.Errorf("the follower subscribed %d times, want 1: divergence is permanent", n)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, held) {
		t.Fatalf("the refused follower's log moved (%d bytes, was %d; %v)", len(after), len(held), err)
	}
	names, err := dial(t, f, noRetry()).Names()
	if err != nil || fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("refused follower NAMES = %v, %v; want [a b c]", names, err)
	}
}

// TestReplRetiredHeartbeatOpcodeDropsLink: 0x84, the retired two-field
// heartbeat, is no part of the stream. A follower that receives it drops
// the link with a typed wire error, applies nothing and redials.
func TestReplRetiredHeartbeatOpcodeDropsLink(t *testing.T) {
	addr, subs := scriptedUpstream(t, frameBytes(t, 0x84, wire.UvarintField(uint64(intrinsic.HeaderSize)), wire.UvarintField(0)))
	var logged loggedErrors
	cfg := replCfg(addr)
	cfg.Logf = logged.logf
	f := bootCfg(t, filepath.Join(t.TempDir(), "follower.log"), nil, cfg)

	var we *wire.WireError
	if err := logged.wait(t, wire.ErrBadFrame); !errors.As(err, &we) || we.Code != wire.CodeBadFrame {
		t.Fatalf("retired opcode refused with %v, want a CodeBadFrame WireError", err)
	}
	for deadline := time.Now().Add(10 * time.Second); subs.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never redialed after dropping the link")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if end := f.store.DurableEnd(); end != intrinsic.HeaderSize {
		t.Fatalf("follower durable end %d, want the bare header %d", end, intrinsic.HeaderSize)
	}
}
