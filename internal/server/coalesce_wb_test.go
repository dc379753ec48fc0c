// White-box tests for the commit pipeline: batch failure semantics, the
// double-ack regression at the stage→ack boundary, exactly-once
// idempotency across and within batches, every write durable at ack,
// per-commit as the batch of one, and the
// lock-wait accounting. These drive Server.commit directly (no network)
// so the injected faults land on deterministic I/O boundaries, and they
// force a batch by holding a lead commit's fsync (inOneBatch), never by
// timing.
package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server/wire"
	rtrace "dbpl/internal/telemetry/trace"
	"dbpl/internal/value"
)

func putOp(name string, n int64) txnOp {
	return txnOp{name: name, dyn: dynamic.Make(value.Rec("Name", value.String(name), "N", value.Int(n)))}
}

// wbServer builds a server over fsys without a listener; commits are
// driven through s.commit directly. Cleanup shuts the committer down and
// closes the store.
func wbServer(t *testing.T, fsys iofault.FS, path string, cfg Config) (*Server, *intrinsic.Store) {
	t.Helper()
	st, err := intrinsic.OpenFS(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		st.Close()
	})
	return srv, st
}

// groupServer is wbServer under DurGroup over a gateFS wrapping inner, so
// that inOneBatch can force concurrent commits into one batch.
func groupServer(t *testing.T, inner iofault.FS, path string) (*Server, *intrinsic.Store, *gateFS) {
	gate := newGateFS(inner)
	srv, st := wbServer(t, gate, path, Config{Durability: DurGroup})
	// Registered after wbServer's cleanup so it runs first (LIFO): never
	// leave the committer wedged on a gated fsync after a failed assert.
	t.Cleanup(gate.Release)
	return srv, st, gate
}

// inOneBatch runs n commits concurrently as one committer batch, with no
// timing assumption: a lead commit holds the gated fsync open until all
// n have queued behind it, then the gate opens and the committer takes
// them at once. It returns each commit's error, then the lead's.
func inOneBatch(t *testing.T, srv *Server, gate *gateFS, lead txnOp, n int, commit func(i int) error) ([]error, error) {
	t.Helper()
	gate.Hold()
	leadErr := make(chan error, 1)
	go func() {
		_, err := srv.commit([]txnOp{lead}, "", nil)
		leadErr <- err
	}()
	waitUntil(t, func() bool { return len(gate.blocked) == 1 }, "the lead commit never reached its fsync")
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = commit(i)
		}()
	}
	waitUntil(t, func() bool { return len(srv.commitCh) == n }, "the batch never queued behind the lead")
	gate.Release()
	wg.Wait()
	return errs, <-leadErr
}

// waitUntil polls cond for up to 5s, failing the test with msg after.
func waitUntil(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
	}
}

// TestCoalescerSharesFsync: K concurrent commits under DurGroup are
// promoted by fewer fsyncs than commits — the amortization itself — and
// every write is durable in the store afterwards.
func TestCoalescerSharesFsync(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS{})
	srv, st, gate := groupServer(t, inj, filepath.Join(t.TempDir(), "share.log"))

	const K = 8
	syncsBefore := inj.Count(iofault.OpSync)
	errs, leadErr := inOneBatch(t, srv, gate, putOp("lead", 0), K, func(i int) error {
		_, err := srv.commit([]txnOp{putOp(fmt.Sprintf("r%d", i), int64(i))}, "", nil)
		return err
	})
	if leadErr != nil {
		t.Fatalf("lead commit: %v", leadErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	syncs := inj.Count(iofault.OpSync) - syncsBefore
	if syncs >= K {
		t.Fatalf("%d commits used %d fsyncs; coalescing saved nothing", K, syncs)
	}
	if saved := srv.m.fsyncsSaved.Value(); saved == 0 {
		t.Fatal("dbpl_commit_fsyncs_saved_total = 0 after a coalesced batch")
	}
	for i := 0; i < K; i++ {
		if _, ok := st.Root(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("r%d missing from the store after an acked group commit", i)
		}
	}
	if st.StagedGroups() != 0 {
		t.Fatalf("%d groups left staged after all acks", st.StagedGroups())
	}
}

// TestCoalescerBatchFsyncFailureFailsAllWaiters: an injected failure of
// the shared batch fsync must fail every waiter in the batch with the
// same typed cause (iofault.ErrInjected through the store's wrap), leave
// the published state and the log at the pre-batch boundary, and let the
// next commit proceed after rollback.
func TestCoalescerBatchFsyncFailureFailsAllWaiters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failall.log")
	inj := iofault.NewInjector(iofault.OS{})
	srv, st, gate := groupServer(t, inj, path)
	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}
	durable := st.DurableEnd()

	// Fail the next K syncs: the lead's, and the shared fsync of the
	// batch of K behind it.
	const K = 6
	n := inj.Count(iofault.OpSync)
	for i := 1; i <= K; i++ {
		inj.FailAt(iofault.OpSync, n+i)
	}
	errs, _ := inOneBatch(t, srv, gate, putOp("doomed-lead", 0), K, func(i int) error {
		_, err := srv.commit([]txnOp{putOp(fmt.Sprintf("doomed%d", i), int64(i))}, "", nil)
		return err
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acked although its batch fsync failed", i)
		}
		if !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("waiter %d failed with %v, want the injected fsync cause", i, err)
		}
	}
	if st.DurableEnd() != durable {
		t.Fatalf("durable end moved %d -> %d across an all-failed batch", durable, st.DurableEnd())
	}
	if got := srv.state.Load().roots.Len(); got != 1 {
		t.Fatalf("published state has %d roots after a failed batch, want 1", got)
	}

	// Rollback recovered the store: the next commit succeeds and only it
	// is durable. (Disarm the spare failures first — the lead and the
	// batch used two of them.)
	inj.Clear(iofault.OpSync)
	if _, err := srv.commit([]txnOp{putOp("after", 1)}, "", nil); err != nil {
		t.Fatalf("commit after failed batch: %v", err)
	}
	if _, ok := st.Root("after"); !ok {
		t.Fatal("post-recovery commit missing from store")
	}
	for i := 0; i < K; i++ {
		if _, ok := st.Root(fmt.Sprintf("doomed%d", i)); ok {
			t.Fatalf("doomed%d resurrected after its batch failed", i)
		}
	}
}

// TestCoalescerPoisonBetweenStageAndAck is the double-ack regression: the
// batch fsync fails AND the rollback truncate fails twice (the store
// poisons, the server enters degraded mode) exactly between stage and
// ack. No waiter whose group was truncated back may be acknowledged, and
// every later write must refuse with the degraded code.
func TestCoalescerPoisonBetweenStageAndAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.log")
	inj := iofault.NewInjector(iofault.OS{})
	srv, st, gate := groupServer(t, inj, path)
	if _, err := srv.commit([]txnOp{putOp("base", 0)}, "", nil); err != nil {
		t.Fatal(err)
	}

	// The lead's sync passes; every sync after it fails for a while, and
	// the next two truncates fail too: the store's rollback AND the
	// server's Abort replay both cannot trim the batch's staged groups —
	// poison.
	const K = 4
	ns := inj.Count(iofault.OpSync) + 1
	for i := 1; i <= K; i++ {
		inj.FailAt(iofault.OpSync, ns+i)
	}
	nt := inj.Count(iofault.OpTruncate)
	inj.FailAt(iofault.OpTruncate, nt+1)
	inj.FailAt(iofault.OpTruncate, nt+2)

	errs, leadErr := inOneBatch(t, srv, gate, putOp("lead", 0), K, func(i int) error {
		_, err := srv.commit([]txnOp{putOp(fmt.Sprintf("doomed%d", i), int64(i))}, "", nil)
		return err
	})
	if leadErr != nil {
		t.Fatalf("lead commit: %v", leadErr)
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d was acked although its group was truncated back (the double-ack hazard)", i)
		}
	}
	if srv.mode.Load().poisoned == nil {
		t.Fatal("server not degraded after rollback double-failure")
	}
	var we *wire.WireError
	if _, err := srv.commit([]txnOp{putOp("later", 9)}, "", nil); !errors.As(err, &we) || we.Code != wire.CodeDegraded {
		t.Fatalf("commit on poisoned write path = %v, want CodeDegraded", err)
	}
	// HEALTH self-reports the poisoned flag next to the watermarks.
	op, fields := srv.handleHealth(nil, nil)
	if op != wire.OpOK {
		t.Fatalf("HEALTH answered %v", op)
	}
	h, err := wire.DecodeHealth(fields)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Poisoned {
		t.Fatal("HEALTH does not report the poisoned write path")
	}

	// Restart-equivalent: reopening the file lands on a commit-group
	// boundary with every durable root intact. The doomed groups MAY be
	// visible — the failed truncates left them on disk as complete,
	// valid groups, and unacked writes surviving is extra durability,
	// not a violation. The invariant the double-ack fix protects is that
	// none of their *writers* was acknowledged (checked above).
	srv.commitMu.Lock() // the store is wedged; nothing in flight holds this
	srv.commitMu.Unlock()
	rep, err := intrinsic.Fsck(path)
	if err != nil {
		t.Fatalf("fsck after poison: %v", err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("log corrupt after poisoned batch:\n%s", rep.Corrupt)
	}
	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer fresh.Close()
	if _, ok := fresh.Root("base"); !ok {
		t.Fatal("durable root lost")
	}
	_ = st
}

// TestCoalescerIdemExactlyOnce: idempotency keys stay exactly-once under
// batching — a retry in a *later* batch replays the recorded answer
// without re-executing, and a duplicate key *within* one batch stages a
// single group whose result both waiters share.
func TestCoalescerIdemExactlyOnce(t *testing.T) {
	srv, st, gate := groupServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "idem.log"))

	existed, err := srv.commit([]txnOp{putOp("R", 1)}, "key-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(existed) != 1 || existed[0] {
		t.Fatalf("first commit existed = %v, want [false]", existed)
	}
	// Across batches: re-execution would now see R existing and answer
	// [true]; the dedup cache must answer the recorded [false].
	existed, err = srv.commit([]txnOp{putOp("R", 1)}, "key-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(existed) != 1 || existed[0] {
		t.Fatalf("retried commit existed = %v, want the recorded [false]", existed)
	}

	// Within one batch: two concurrent commits carrying the same fresh key
	// must stage once; both see the same answer.
	groupsBefore := commitGroupCount(t, srv) + 1 // the lead's group
	results := make([][]bool, 2)
	errs, leadErr := inOneBatch(t, srv, gate, putOp("lead", 0), 2, func(i int) error {
		var err error
		results[i], err = srv.commit([]txnOp{putOp("S", 7)}, "key-2", nil)
		return err
	})
	if leadErr != nil {
		t.Fatalf("lead commit: %v", leadErr)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("dup-key commit %d: %v", i, errs[i])
		}
		if len(results[i]) != 1 || results[i][0] {
			t.Fatalf("dup-key commit %d existed = %v, want [false]", i, results[i])
		}
	}
	if grew := commitGroupCount(t, srv) - groupsBefore; grew > 1 {
		t.Fatalf("duplicate in-batch key staged %d groups, want 1", grew)
	}
	if _, ok := st.Root("S"); !ok {
		t.Fatal("S missing after dup-key batch")
	}
}

// commitGroupCount reads the durable commit-group count back out of the
// server's log via the replication reader.
func commitGroupCount(t *testing.T, srv *Server) int {
	t.Helper()
	_, _, n, err := srv.store.ReadGroupsAt(intrinsic.HeaderSize, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// gateFS lets a test hold the log's fsync open: Sync blocks until the
// test releases it. Everything else passes through.
type gateFS struct {
	iofault.FS
	mu      sync.Mutex
	blocked chan chan struct{} // one send per blocked Sync; test closes the inner chan
	open    bool
}

func newGateFS(inner iofault.FS) *gateFS {
	return &gateFS{FS: inner, blocked: make(chan chan struct{}, 16)}
}

// Hold makes subsequent Syncs block until Release.
func (g *gateFS) Hold() { g.mu.Lock(); g.open = true; g.mu.Unlock() }

// Release unblocks every blocked Sync and lets future ones pass.
func (g *gateFS) Release() {
	g.mu.Lock()
	g.open = false
	g.mu.Unlock()
	for {
		select {
		case ch := <-g.blocked:
			close(ch)
		default:
			return
		}
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	iofault.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	f.g.mu.Lock()
	gated := f.g.open
	f.g.mu.Unlock()
	if gated {
		ch := make(chan struct{})
		f.g.blocked <- ch
		<-ch
	}
	return f.File.Sync()
}

// TestCoalescerAcksOnlyAfterFsync: in every durability mode an
// acknowledged write is a durable write. With its fsync held, neither a
// PUT nor a CREATEINDEX acks or moves HEALTH's durable end, and the PUT
// is not published; once the fsync is released both ack, and a fresh open
// of the log holds the root and the index definition.
func TestCoalescerAcksOnlyAfterFsync(t *testing.T) {
	for _, d := range []Durability{DurPerCommit, DurGroup} {
		t.Run(d.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ack.log")
			gate := newGateFS(iofault.OS{})
			srv, st := wbServer(t, gate, path, Config{Durability: d})
			// Registered after wbServer's cleanup so it runs first (LIFO):
			// never leave the committer wedged on a gated fsync.
			t.Cleanup(gate.Release)

			for _, op := range []txnOp{putOp("put", 1), {name: "Dept", index: true}} {
				durable := st.DurableEnd()
				gate.Hold()
				acked := make(chan error, 1)
				go func() {
					_, err := srv.commit([]txnOp{op}, "", nil)
					acked <- err
				}()
				waitUntil(t, func() bool { return len(gate.blocked) == 1 }, "the commit never reached its fsync")
				select {
				case err := <-acked:
					t.Fatalf("%q acked with its fsync held: %v", op.name, err)
				case <-time.After(20 * time.Millisecond):
				}
				cur := srv.state.Load()
				_, bound := cur.roots.Get(op.name)
				if bound {
					t.Fatalf("%q published with its fsync held", op.name)
				}
				if h := healthOf(t, srv); h.DurableEnd != durable {
					t.Fatalf("HEALTH durable end %d with the fsync held, was %d", h.DurableEnd, durable)
				}
				gate.Release()
				if err := <-acked; err != nil {
					t.Fatalf("%q after its fsync: %v", op.name, err)
				}
			}

			fresh, err := intrinsic.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if _, ok := fresh.Root("put"); !ok {
				t.Fatal("acked PUT missing from a fresh open of the log")
			}
			if defs := fresh.IndexDefs(); len(defs) != 1 || defs[0] != "Dept" {
				t.Fatalf("reopened IndexDefs() = %v, want [Dept]", defs)
			}
		})
	}
}

// TestParseDurability: the serve flag accepts exactly per-commit (also
// the empty default) and group, each round-tripping through String.
// Anything else, async included, is refused with a message naming group.
func TestParseDurability(t *testing.T) {
	for in, want := range map[string]Durability{"": DurPerCommit, "per-commit": DurPerCommit, "group": DurGroup} {
		d, err := ParseDurability(in)
		if err != nil || d != want {
			t.Fatalf("ParseDurability(%q) = (%v, %v), want %v", in, d, err, want)
		}
		if back, err := ParseDurability(d.String()); err != nil || back != d {
			t.Fatalf("ParseDurability(%q) = (%v, %v), want %v", d.String(), back, err, d)
		}
	}
	for _, in := range []string{"async", "bogus"} {
		if _, err := ParseDurability(in); err == nil || !strings.Contains(err.Error(), "group") {
			t.Fatalf("ParseDurability(%q) = %v, want an error naming group", in, err)
		}
	}
}

// TestNoopDDLWaitsForTheBatchThatMadeIt: index DDL that changes nothing
// stages no group, but when an earlier group of its batch is what made
// it a no-op, its answer shares that group's fate. A failed batch fails
// both declarations, and neither is recorded.
func TestNoopDDLWaitsForTheBatchThatMadeIt(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS{})
	srv, st, gate := groupServer(t, inj, filepath.Join(t.TempDir(), "noop-ddl.log"))

	groupsBefore := commitGroupCount(t, srv)
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+2) // the batch's, not the lead's
	create := txnOp{name: "Dept", index: true}
	errs, leadErr := inOneBatch(t, srv, gate, putOp("lead", 0), 2, func(i int) error {
		_, err := srv.commit([]txnOp{create}, fmt.Sprintf("ddl-%d", i), nil)
		return err
	})
	if leadErr != nil {
		t.Fatalf("lead commit: %v", leadErr)
	}
	for i, err := range errs {
		if !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("CREATEINDEX %d in the failed batch = %v, want the injected fsync cause", i, err)
		}
	}
	if defs := st.IndexDefs(); len(defs) != 0 {
		t.Fatalf("IndexDefs() = %v after the failed batch, want none", defs)
	}
	if grew := commitGroupCount(t, srv) - groupsBefore; grew != 1 {
		t.Fatalf("log grew by %d groups, want only the lead's", grew)
	}

	// Retried in a batch that succeeds, one declaration changes the
	// definitions and the other reports no change; only the first writes
	// a group or counts as a commit. Alone in its batch, a third is
	// answered at once, with no group either.
	changed := make([]bool, 2)
	errs, leadErr = inOneBatch(t, srv, gate, putOp("lead2", 0), 2, func(i int) error {
		res, err := srv.commit([]txnOp{create}, fmt.Sprintf("ddl-%d", i), nil)
		if err == nil {
			changed[i] = res[0]
		}
		return err
	})
	if leadErr != nil || errs[0] != nil || errs[1] != nil || changed[0] == changed[1] {
		t.Fatalf("retried batch: lead %v, CREATEINDEX errors %v, changed %v; want one change", leadErr, errs, changed)
	}
	if res, err := srv.commit([]txnOp{create}, "", nil); err != nil || res[0] {
		t.Fatalf("CREATEINDEX of a declared index = (%v, %v), want ([false], nil)", res, err)
	}
	if grew := commitGroupCount(t, srv) - groupsBefore; grew != 3 {
		t.Fatalf("log grew by %d groups, want the two leads' and one DDL group", grew)
	}
	if n := srv.m.commits.Value(); n != 3 {
		t.Fatalf("dbpl_server_commits_total = %d, want 3 (the two leads and the one DDL group)", n)
	}
}

// TestPerCommitIsBatchOfOne: under the default durability every commit is
// its own batch — one fsync per commit, none saved, and every batch-size
// observation is 1 — however many writers race.
func TestPerCommitIsBatchOfOne(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS{})
	srv, _ := wbServer(t, inj, filepath.Join(t.TempDir(), "one.log"), Config{})

	const writers, rounds = 8, 4
	syncsBefore := inj.Count(iofault.OpSync)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds && errs[w] == nil; r++ {
				_, errs[w] = srv.commit([]txnOp{putOp(fmt.Sprintf("w%d-%d", w, r), int64(r))}, "", nil)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	const commits = writers * rounds
	if syncs := inj.Count(iofault.OpSync) - syncsBefore; syncs != commits {
		t.Fatalf("%d per-commit commits used %d fsyncs, want one each", commits, syncs)
	}
	if saved := srv.m.fsyncsSaved.Value(); saved != 0 {
		t.Fatalf("dbpl_commit_fsyncs_saved_total = %d under per-commit, want 0", saved)
	}
	if n, sum := srv.m.batchGroups.Stat(); n != commits || sum != commits {
		t.Fatalf("dbpl_commit_batch_groups count %d sum %d, want %d batches of one", n, sum, commits)
	}
}

// TestCommitLockWaitCoversCommitMu: a commit that queues behind another
// holder of commitMu — a promotion, a fence — counts
// that wait as lock-wait, in its span and in
// dbpl_commit_queue_wait_seconds: the wait ends no earlier than commitMu
// is released and no later than staging starts.
func TestCommitLockWaitCoversCommitMu(t *testing.T) {
	const hold = 20 * time.Millisecond
	for _, d := range []Durability{DurPerCommit, DurGroup} {
		t.Run(d.String(), func(t *testing.T) {
			srv, _ := wbServer(t, iofault.OS{}, filepath.Join(t.TempDir(), "lockwait.log"), Config{Durability: d})
			tr := rtrace.New(rtrace.NextID(), "PUT")
			srv.commitMu.Lock()
			done := make(chan error, 1)
			go func() {
				_, err := srv.commit([]txnOp{putOp("r", 1)}, "", tr)
				done <- err
			}()
			// Hold the lock for hold once the commit span has opened; the
			// writer enqueues right after opening it.
			for len(tr.Data().Spans) < 2 {
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(hold)
			unlocked := time.Now()
			srv.commitMu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			d := tr.Data()
			spans := map[string]rtrace.Span{}
			for _, sp := range d.Spans {
				spans[sp.Name] = sp
			}
			lw, ok := spans["lock-wait"]
			stage, ok2 := spans["stage"]
			if !ok || !ok2 {
				t.Fatalf("commit trace lacks lock-wait or stage: %+v", d.Spans)
			}
			if lw.Dur < hold {
				t.Errorf("lock-wait %v, want at least the %v commitMu was held", lw.Dur, hold)
			}
			if end := d.Begin.Add(lw.Start + lw.Dur); end.Before(unlocked) {
				t.Errorf("lock-wait ends %v before commitMu was released", unlocked.Sub(end))
			}
			if end := lw.Start + lw.Dur; end > stage.Start {
				t.Errorf("lock-wait ends at %v, after stage starts at %v", end, stage.Start)
			}
			if n, sum := srv.m.commitQueueWait.Stat(); n != 1 || time.Duration(sum) != lw.Dur {
				t.Errorf("dbpl_commit_queue_wait_seconds count %d sum %v, want 1 observation of the %v lock-wait",
					n, time.Duration(sum), lw.Dur)
			}
		})
	}
}
