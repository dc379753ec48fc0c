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
// replay fails too (the same failing disk), the store's in-memory roots no
// longer match the published committed state. The server must refuse all
// further commits instead of durably encoding the divergent root table
// and dropping committed roots. Shutdown appends nothing, so it has
// nothing to refuse.
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

	// Fail the next log append (the commit group for B) and the first read
	// of the rollback's log replay, so store.Abort fails and the server's
	// in-memory store state diverges from the published one.
	inj.FailAt(iofault.OpWrite, inj.Count(iofault.OpWrite)+1)
	inj.FailAt(iofault.OpRead, inj.Count(iofault.OpRead)+1)

	err = c.Put("B", value.Int(2), nil)
	if !errors.Is(err, client.ErrRemoteIO) || !errors.Is(err, client.ErrIOFailed) {
		t.Fatalf("Put over failing disk = %v, want the remote I/O taxonomy", err)
	}

	// The write path is now poisoned: refused up front, before the store
	// can append a root table derived from the divergent in-memory state.
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
