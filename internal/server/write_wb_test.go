// White-box tests of what a served write costs: the allocations of a warm
// autocommit PUT, a DELETE and an 8-PUT transaction, process-wide.
package server

import (
	"fmt"
	"testing"

	"dbpl/client"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestServePutAllocs counts, process-wide, what a warm write costs end to
// end on a 1 024-root store, each write binding a fresh record at the
// declared type of the root it rebinds. The bounds are -race's.
//
// An autocommit PUT measures 26 with Go 1.24 on linux/amd64, 28 under
// -race. The client encodes the image and the frame into buffers it keeps
// and copies the reply frame and its field slice (2). The handler copies
// the name (1), decodes the record (about 4) and makes its dynamic (1),
// and the idempotency key and the existed bits are what the cache keeps
// (2). The
// committer's scratch, the session's commit request and its channel, the
// one-op slice and the cache's LRU slots are all kept, so the rest is the
// delta: the root table's path to the name under the store's owner (6:
// a node and its items at each of 3 levels), the root table kept for
// publication and the next owner (2; the record's node image is encoded
// into the batch's buffer, which the store keeps), the index set's
// successor and its owner, one copy of the extent, the path to it in the
// type → extent table (6), and the published state and its next channel
// (2).
//
// A DELETE measures 21, 22 under -race: it decodes nothing, stages no
// node and answers with a shared field, and its extent loses one member.
// An 8-PUT transaction measures 96, 105.5 under -race: BEGIN takes the
// connection the last transaction gave back, so neither a dial nor the
// server's session for it is made again, and the session keeps its op
// buffer; the BEGIN, the eight buffered PUTs and the COMMIT are a round
// trip each. Dialing per BEGIN made it 160.
func TestServePutAllocs(t *testing.T) {
	const roots = 1024
	srv, _, addr := serveWB(t, "put.log", Config{})
	decl := types.MustParse("{Id: Int, Name: String}")
	names := make([]string, roots)
	vals := make([]value.Value, roots)
	decls := make([]types.Type, roots)
	for i := range names {
		names[i], vals[i], decls[i] = fmt.Sprintf("r%04d", i), value.Rec("Id", value.Int(int64(i)), "Name", value.String("seed")), decl
	}
	commitRoots(t, srv, names, vals, decls)
	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fresh records, built up front so that the test's own allocations
	// stay out of the count. The writes take the names in turn and never
	// come round to the first again, so every DELETE finds its name bound.
	fresh := make([]value.Value, 2*roots)
	for i := range fresh {
		fresh[i] = value.Rec("Id", value.Int(int64(i)), "Name", value.String("put"))
	}
	next := 0
	put := func() {
		if err := c.Put(names[next%roots], fresh[next%len(fresh)], decl); err != nil {
			t.Fatal(err)
		}
		next++
	}
	del := func() {
		existed, err := c.Delete(names[next%roots])
		if err != nil || !existed {
			t.Fatalf("DELETE %s: existed %v, %v", names[next%roots], existed, err)
		}
		next++
	}
	txn := func() {
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for range 8 {
			if err := s.Put(names[next%roots], fresh[next%len(fresh)], decl); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []struct {
		name      string
		f         func()
		runs      int
		maxAllocs float64
	}{
		{"autocommit PUT", put, 200, 28.5},
		{"DELETE", del, 200, 22.5},
		{"8-PUT transaction", txn, 20, 106},
	} {
		for range 5 {
			w.f()
		}
		allocs := processAllocs(w.runs, w.f)
		t.Logf("a warm %s: %.1f allocations process-wide", w.name, allocs)
		if allocs > w.maxAllocs {
			t.Errorf("a warm %s costs %.1f allocations process-wide, want <= %g", w.name, allocs, w.maxAllocs)
		}
	}
}
