package server_test

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/server/netfault"
	"dbpl/internal/value"
)

// replCfg is the follower config the replication tests share: a fast
// heartbeat so link death is noticed in tens of milliseconds, not seconds.
func replCfg(primary string) server.Config {
	return server.Config{Follow: primary, ReplHeartbeat: 50 * time.Millisecond}
}

// bootAt is bootCfg on an explicit listen address — for tests that
// restart a server at the same place a follower keeps dialing.
func bootAt(t *testing.T, path, addr string, cfg server.Config) *harness {
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	h := &harness{t: t, path: path, store: st, srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- srv.Serve(ln) }()
	t.Cleanup(h.stop)
	return h
}

// freeAddr reserves an ephemeral port and releases it, returning an
// address a test can bind twice in a row (primary restart).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitConverged polls until the follower's durable end reaches the
// primary's (both nonempty), the replication battery's definition of
// "caught up".
func waitConverged(t *testing.T, p, f *harness) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pe, fe := p.store.DurableEnd(), f.store.DurableEnd()
		if pe == fe && pe > intrinsic.HeaderSize {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: primary end %d, follower end %d", pe, fe)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sameLog asserts the two log files are byte-identical — the replication
// invariant in its strongest form.
func sameLog(t *testing.T, ppath, fpath string) {
	t.Helper()
	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, fb) {
		t.Fatalf("follower log (%d bytes) not byte-identical to primary log (%d bytes)", len(fb), len(pb))
	}
}

func counter(h *harness, name string) uint64 {
	return h.srv.Telemetry().Counter(name).Value()
}

// TestFollowerServesReadsRefusesWrites: a follower replays the primary's
// history, serves the whole read surface (GET, NAMES, EXPLAIN of a GET
// and of a JOIN, as exact as the primary's), reports itself read-only with its
// durable offset in HEALTH, and refuses every write verb with the typed
// read-only error naming the primary.
func TestFollowerServesReadsRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	for i, name := range []string{"e1", "e2", "e3"} {
		if err := pc.Put(name, emp(name, int64(i+1), "Sales"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.CreateIndex("Empno"); err != nil {
		t.Fatal(err)
	}

	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(p.addr))
	waitConverged(t, p, f)

	fc := dial(t, f, noRetry())
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("follower NAMES = %v, want 3 roots", names)
	}
	got, err := fc.Get(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"e1", "e2", "e3"}; !reflect.DeepEqual(namesOf(got), want) {
		t.Fatalf("follower GET = %v, want %v", namesOf(got), want)
	}
	// A caught-up follower's EXPLAIN is as exact as the primary's: it
	// counts what its GET returned.
	plan, err := fc.ExplainGet(employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if n, nTypes, matched, result := explainCounts(t, plan); n != 3 || nTypes != 1 || matched != 1 || result != len(got) {
		t.Fatalf("follower ExplainGet = %q, want n=3 types=1 matched=1 result=%d", plan, len(got))
	}
	fjoin, err := fc.ExplainJoin(employeeT, employeeT)
	if err != nil {
		t.Fatal(err)
	}
	pjoin, err := pc.ExplainJoin(employeeT, employeeT)
	if err != nil {
		t.Fatal(err)
	}
	if want := "join left=3 right=3 pairs=3 attr=Empno build=right"; fjoin != pjoin || pjoin != want {
		t.Fatalf("ExplainJoin: follower %q, primary %q, want both %q", fjoin, pjoin, want)
	}

	// Every write verb is the typed refusal, and it names the primary.
	if err := fc.Put("x", value.Int(1), nil); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("PUT on follower: %v, want ErrReadOnly", err)
	} else if !strings.Contains(err.Error(), p.addr) {
		t.Fatalf("read-only refusal %q does not name the primary %s", err, p.addr)
	}
	if _, err := fc.Delete("e1"); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("DELETE on follower: %v, want ErrReadOnly", err)
	}
	if _, err := fc.CreateIndex("Dept"); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("CREATEINDEX on follower: %v, want ErrReadOnly", err)
	}
	if _, err := fc.Begin(); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("BEGIN on follower: %v, want ErrReadOnly", err)
	}
	if n := counter(f, "dbpl_repl_readonly_refusals_total"); n < 4 {
		t.Errorf("refusal counter = %d, want >= 4", n)
	}

	// HEALTH: the follower flags itself read-only and reports the same
	// durable offset the primary does; the primary reports writable.
	fh, err := fc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !fh.ReadOnly || fh.DurableEnd != f.store.DurableEnd() {
		t.Fatalf("follower HEALTH = %+v, want ReadOnly with DurableEnd %d", fh, f.store.DurableEnd())
	}
	ph, err := pc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if ph.ReadOnly || ph.DurableEnd != fh.DurableEnd {
		t.Fatalf("primary HEALTH = %+v, want writable at the follower's offset %d", ph, fh.DurableEnd)
	}
	sameLog(t, p.path, f.path)
}

// TestFollowerLiveTail: writes landing on the primary *after* the
// follower subscribed stream through and become visible to follower
// reads, including deletes and index drops.
func TestFollowerLiveTail(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	if err := pc.Put("seed", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(p.addr))
	waitConverged(t, p, f)

	for i, name := range []string{"e1", "e2"} {
		if err := pc.Put(name, emp(name, int64(i+1), "Ops"), employeeT); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Delete("seed"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)

	fc := dial(t, f, nil)
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("follower NAMES after live tail = %v, want [e1 e2]", names)
	}
	for _, n := range names {
		if n == "seed" {
			t.Fatal("deleted root 'seed' still visible on follower")
		}
	}
	sameLog(t, p.path, f.path)
	// Exactly-once accounting: the bytes applied equal the log body shipped,
	// with nothing double-counted.
	if n := counter(f, "dbpl_repl_bytes_applied_total"); n != uint64(p.store.DurableEnd()-intrinsic.HeaderSize) {
		t.Errorf("bytes applied = %d, want %d", n, p.store.DurableEnd()-intrinsic.HeaderSize)
	}
}

// TestFollowerRestartResume: a follower stopped cold resumes from its own
// durable offset when rebooted over the same log — it asks the primary
// only for what it is missing, and converges byte-identically.
func TestFollowerRestartResume(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	if err := pc.Put("a", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	fpath := filepath.Join(dir, "follower.log")
	f1 := bootCfg(t, fpath, nil, replCfg(p.addr))
	waitConverged(t, p, f1)
	f1.stop()

	// The primary moves on while the follower is down.
	for _, n := range []string{"b", "c", "d"} {
		if err := pc.Put(n, value.String(n), nil); err != nil {
			t.Fatal(err)
		}
	}

	f2 := bootCfg(t, fpath, nil, replCfg(p.addr))
	waitConverged(t, p, f2)
	sameLog(t, p.path, fpath)
	// Resume shipped only the missing suffix, not the whole log again: the
	// second follower applied strictly fewer bytes than the log body holds.
	applied := counter(f2, "dbpl_repl_bytes_applied_total")
	body := uint64(p.store.DurableEnd() - intrinsic.HeaderSize)
	if applied == 0 || applied >= body {
		t.Errorf("resumed follower applied %d bytes of a %d-byte body, want a strict suffix", applied, body)
	}
	fc := dial(t, f2, nil)
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("follower NAMES after resume = %v, want 4 roots", names)
	}
}

// TestPrimaryRestartFollowerResubscribes: the primary dies and comes back
// at the same address; the follower's heartbeat deadline notices the dead
// link, its backoff loop re-dials, and the stream resumes from the
// follower's durable end with no operator intervention.
func TestPrimaryRestartFollowerResubscribes(t *testing.T) {
	dir := t.TempDir()
	ppath := filepath.Join(dir, "primary.log")
	addr := freeAddr(t)
	p1 := bootAt(t, ppath, addr, server.Config{})
	pc1 := dial(t, p1, nil)
	if err := pc1.Put("before", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(addr))
	waitConverged(t, p1, f)
	p1.stop()

	p2 := bootAt(t, ppath, addr, server.Config{})
	pc2 := dial(t, p2, nil)
	if err := pc2.Put("after", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p2, f)
	sameLog(t, ppath, f.path)
	if n := counter(f, "dbpl_repl_reconnects_total"); n < 1 {
		t.Errorf("reconnect counter = %d, want >= 1 after primary restart", n)
	}
}

// TestReplChaosPartitionHeal: a network partition opens mid-stream while
// the primary keeps committing; on heal the follower resumes from its
// durable end. Byte-identical logs prove no group was lost, and the
// bytes-applied counter matching the log body proves none was applied
// twice.
func TestReplChaosPartitionHeal(t *testing.T) {
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
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(px.Addr()))
	waitConverged(t, p, f)

	px.Partition()
	for i := 0; i < 5; i++ {
		if err := pc.Put("part"+string(rune('a'+i)), value.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Give the follower time to notice the dead link and burn a few
	// failed re-dials while partitioned.
	time.Sleep(300 * time.Millisecond)
	if p.store.DurableEnd() == f.store.DurableEnd() {
		t.Fatal("follower converged through a partition")
	}
	px.Heal()
	waitConverged(t, p, f)
	sameLog(t, p.path, f.path)
	if n := counter(f, "dbpl_repl_bytes_applied_total"); n != uint64(p.store.DurableEnd()-intrinsic.HeaderSize) {
		t.Errorf("bytes applied = %d, want %d (exactly-once)", n, p.store.DurableEnd()-intrinsic.HeaderSize)
	}
	if n := counter(f, "dbpl_repl_reconnects_total"); n < 1 {
		t.Errorf("reconnect counter = %d, want >= 1 after partition", n)
	}
}

// TestReplChaosFlipByteOnStream: a bit flip on the wire inside a shipped
// frame is caught by the frame CRC (or the frame decoder) before any byte
// reaches the follower's log; the follower drops the link and the re-sent
// intact frame converges the logs byte-identically.
func TestReplChaosFlipByteOnStream(t *testing.T) {
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
	// A long heartbeat keeps the primary→follower direction quiet between
	// commits, so the armed flip lands inside the next REPDATA frame.
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil,
		server.Config{Follow: px.Addr(), ReplHeartbeat: 5 * time.Second})
	waitConverged(t, p, f)

	// FlipByte's offset counts from the bytes forwarded so far: 10 lands
	// inside the next frame however small its one-root group is.
	px.FlipByte(netfault.ServerToClient, 10)
	if err := pc.Put("flipped", value.String("survives"), nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, f)
	sameLog(t, p.path, f.path)
	if n := counter(f, "dbpl_repl_reconnects_total"); n < 1 {
		t.Errorf("reconnect counter = %d, want >= 1 after wire corruption", n)
	}
	fc := dial(t, f, nil)
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("follower NAMES after flip = %v, want [flipped pre]", names)
	}
}

// TestReplChaosFollowerCrashDuringApply: the follower's disk dies in the
// middle of applying a shipped group. The reopened log must hold a whole
// prefix (single-node crash recovery), and a fresh follower over the same
// file must catch up to a byte-identical log.
func TestReplChaosFollowerCrashDuringApply(t *testing.T) {
	dir := t.TempDir()
	p := boot(t, filepath.Join(dir, "primary.log"))
	pc := dial(t, p, nil)
	if err := pc.Put("pre", value.Int(0), nil); err != nil {
		t.Fatal(err)
	}

	fpath := filepath.Join(dir, "follower.log")
	inj := iofault.NewInjector(iofault.OS{})
	fst, err := intrinsic.OpenFS(inj, fpath)
	if err != nil {
		t.Fatal(err)
	}
	f1 := bootCfg(t, fpath, fst, replCfg(p.addr))
	waitConverged(t, p, f1)

	// Crash the follower's disk partway into the next apply: the write of
	// the incoming group fails and every later I/O fails too.
	inj.CrashAt(inj.Ops() + 2)
	for _, n := range []string{"a", "b", "c"} {
		if err := pc.Put(n, value.String(n), nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !inj.Crashed() {
		if time.Now().After(deadline) {
			t.Fatal("injected follower crash never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	f1.stop()

	// Reopen over the real disk: recovery leaves a whole prefix of the
	// primary's log, and a fresh follower resumes from it.
	pb, err := os.ReadFile(p.path)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	check, err := intrinsic.Open(fpath)
	if err != nil {
		t.Fatalf("reopen crashed follower log: %v", err)
	}
	de := check.DurableEnd()
	check.Close()
	if int64(len(fb)) < de || !bytes.Equal(fb[:de], pb[:de]) {
		t.Fatalf("crashed follower's durable prefix [0,%d) diverges from primary", de)
	}

	f2 := bootCfg(t, fpath, nil, replCfg(p.addr))
	waitConverged(t, p, f2)
	sameLog(t, p.path, fpath)
	fc := dial(t, f2, nil)
	names, err := fc.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("follower NAMES after crash recovery = %v, want 4 roots", names)
	}
}

// TestReplShutdownTerminatesStream: a draining primary tells its
// followers with a typed shutdown error instead of leaving them hanging
// on a dead stream; the follower survives and reconnects to the next
// primary at that address.
func TestReplShutdownTerminatesStream(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	p := bootAt(t, filepath.Join(dir, "primary.log"), addr, server.Config{})
	pc := dial(t, p, nil)
	if err := pc.Put("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	f := bootCfg(t, filepath.Join(dir, "follower.log"), nil, replCfg(addr))
	waitConverged(t, p, f)
	if g := f.srv.Telemetry().Gauge("dbpl_repl_lag_bytes").Value(); g != 0 {
		t.Errorf("replication lag gauge = %d on a converged follower, want 0", g)
	}
	p.stop()
	// The follower is still serving reads while its primary is gone.
	fc := dial(t, f, nil)
	if _, err := fc.Names(); err != nil {
		t.Fatalf("follower NAMES with primary down: %v", err)
	}
}
