package server_test

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/value"
)

// TestFailedRollbackPoisonsWritePath: when a commit fails AND the rollback
// cannot trim the failed group's bytes from the log (the same failing
// disk), the log holds bytes past the durable end that a later append
// would land behind. The server must refuse all further commits instead.
// Shutdown appends nothing, so it has nothing to refuse.
func TestFailedRollbackPoisonsWritePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "poison.log")
	inj := iofault.NewInjector(iofault.OS{})
	st, err := intrinsic.OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(st, server.Config{})
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

	c, err := client.Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("A", value.Int(1), nil); err != nil {
		t.Fatalf("seed Put: %v", err)
	}

	// Fail the next log append (the commit group for B) and the trim of
	// its torn bytes that rolls the batch back, so the rollback fails.
	inj.FailAt(iofault.OpWrite, inj.Count(iofault.OpWrite)+1)
	inj.FailAt(iofault.OpTruncate, inj.Count(iofault.OpTruncate)+1)

	err = c.Put("B", value.Int(2), nil)
	if !errors.Is(err, client.ErrRemoteIO) || !errors.Is(err, client.ErrIOFailed) {
		t.Fatalf("Put over failing disk = %v, want the remote I/O taxonomy", err)
	}

	// The write path is now poisoned: refused up front, before the store
	// can append behind the bytes it failed to trim.
	if err := c.Put("C", value.Int(3), nil); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Put after failed rollback = %v, want poisoned refusal", err)
	}

	// Readers keep the committed view; a poisoned write path must not leak
	// into the published state.
	names, err := c.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	if want := []string{"A"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown on a poisoned server = %v, want nil", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	st.Close()

	// The disk state is exactly the last durable commit: reopening (over
	// the real filesystem) recovers A and nothing else.
	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatalf("reopen after poisoned shutdown: %v", err)
	}
	defer fresh.Close()
	if r, ok := fresh.Root("A"); !ok || !value.Equal(r.Value, value.Int(1)) {
		t.Errorf("root A not recovered intact (ok=%v)", ok)
	}
	for _, name := range []string{"B", "C"} {
		if _, ok := fresh.Root(name); ok {
			t.Errorf("uncommitted root %q survived on disk", name)
		}
	}
}

// TestFailedCommitRollbackReadsNothing: a failed batch rolls back by
// restoring the store's committed tables, not by replaying the log — no
// byte of the log is read — and the server goes on serving the committed
// roots and accepting writes. A failed CREATEINDEX leaves the index
// definitions at the committed set.
func TestFailedCommitRollbackReadsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollback.log")
	inj := iofault.NewInjector(iofault.OS{})
	st, err := intrinsic.OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	h := bootCfg(t, path, st, server.Config{})
	c := dial(t, h, noRetry())
	if err := c.Put("A", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("Dept"); err != nil {
		t.Fatal(err)
	}

	reads := inj.Count(iofault.OpRead)
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if err := c.Put("B", value.Rec("Dept", value.String("D")), nil); !errors.Is(err, client.ErrRemoteIO) {
		t.Fatalf("Put over a failing fsync = %v, want the remote I/O taxonomy", err)
	}
	if n := inj.Count(iofault.OpRead) - reads; n != 0 {
		t.Fatalf("the rollback read the log %d times, want none", n)
	}
	if names, err := c.Names(); err != nil || !reflect.DeepEqual(names, []string{"A"}) {
		t.Fatalf("Names after the failed commit = %v, %v; want [A]", names, err)
	}
	if ps, err := c.GetExpr("Int"); err != nil || len(ps) != 1 {
		t.Fatalf("Get(Int) after the failed commit = %d roots, %v; want 1", len(ps), err)
	}
	if err := c.Put("B", value.Rec("Dept", value.String("D")), nil); err != nil {
		t.Fatalf("retried Put: %v", err)
	}
	if names, err := c.Names(); err != nil || !reflect.DeepEqual(names, []string{"A", "B"}) {
		t.Fatalf("Names after the retry = %v, %v; want [A B]", names, err)
	}

	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if _, err := c.CreateIndex("Name"); !errors.Is(err, client.ErrRemoteIO) {
		t.Fatalf("CreateIndex over a failing fsync = %v, want the remote I/O taxonomy", err)
	}
	if defs := st.IndexDefs(); !reflect.DeepEqual(defs, []string{"Dept"}) {
		t.Fatalf("IndexDefs after the failed CREATEINDEX = %v, want [Dept]", defs)
	}
	if created, err := c.CreateIndex("Name"); err != nil || !created {
		t.Fatalf("retried CreateIndex = %v, %v; want a new definition", created, err)
	}
}
