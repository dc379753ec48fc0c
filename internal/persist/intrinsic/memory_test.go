package intrinsic

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"dbpl/internal/value"
)

// This file pins what the store holds and allocates for its node
// bookkeeping on a store shaped like the benchmark's, so that bringing back
// per-node images, or maps and buffers that grow by doubling during a
// reopen, fails here.

// latticeRoot is root i of a store shaped like the benchmark's: every
// eighth root an order record holding a list of sixteen line records, the
// rest flat records — 3 1/8 containers a root, and one node in thirteen
// naming others.
func latticeRoot(i int) value.Value {
	if i%8 != 0 {
		return value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("name-%07d", i)),
			"F", value.Int(int64(1<<24+i)))
	}
	items := value.NewList()
	for k := 0; k < 16; k++ {
		items.Append(value.Rec("Sku", value.Int(int64(1<<24+i*16+k)), "Qty", value.Int(int64(1<<24+k))))
	}
	return value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("name-%07d", i)),
		"F0", value.Int(int64(1<<24+i)), "Items", items)
}

// bulkLoad binds n lattice roots and commits them as one group.
func bulkLoad(t testing.TB, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Bind(fmt.Sprintf("r%05d", i), latticeRoot(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// heapAfterGC is the live heap once a collection has run.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNodeBookkeepingBytes: after a 4 096-root bulk load, the store's node
// bookkeeping — nodes, refs and shared — holds at most 56 bytes a live
// node: a digest in a map slot, and a reference list for the one node in
// thirteen that names others. Holding each node's image, as the store did,
// made it 115. With oids, the value bookkeeping holds at most 96 bytes a
// live node (80 when measured), on the primary and on a follower caught up
// to it alike: both roles keep the one map. A follower that kept the
// inverse of oids and the OIDs of its roots instead held 232.
func TestNodeBookkeepingBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 4 096-root store")
	}
	const maxPerNode, maxWithOIDs = 56, 96
	s, err := OpenFS(unsynced{}, filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bulkLoad(t, s, 4096)
	f, err := OpenFS(unsynced{}, filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, s, f)
	for _, row := range []struct {
		role string
		s    *Store
	}{{"primary", s}, {"follower", f}} {
		live := len(row.s.nodes)
		if live != 12800 || len(row.s.oids) != live {
			t.Fatalf("%s: bulk load holds %d nodes and %d oids entries, want 12 800 each", row.role, live, len(row.s.oids))
		}
		with := heapAfterGC()
		row.s.nodes, row.s.refs, row.s.shared = nil, nil, nil
		nodes := heapAfterGC()
		row.s.oids = nil
		without := heapAfterGC()
		per := float64(with-nodes) / float64(live)
		all := float64(with-without) / float64(live)
		t.Logf("%s: node bookkeeping %.1f bytes a live node, with oids %.1f (%d nodes)", row.role, per, all, live)
		if per > maxPerNode {
			t.Errorf("%s: node bookkeeping holds %.1f bytes a live node, want <= %d", row.role, per, maxPerNode)
		}
		if all > maxWithOIDs {
			t.Errorf("%s: value bookkeeping holds %.1f bytes a live node, want <= %d", row.role, all, maxWithOIDs)
		}
	}
}

// openLog is a log of 1 024 lattice roots committed as one group, then 500
// bound rebinds each made durable on its own, as autocommit writes are.
func openLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFS(unsynced{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bulkLoad(t, s, 1024)
	for i := 0; i < 500; i++ {
		if err := s.Bind(fmt.Sprintf("r%05d", i*37%1024), latticeRoot(1024+i), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StageBound(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestOpenAllocs pins the bytes one Open of openLog's log allocates. The
// open reads the log into one buffer, which the scan's records and the
// images it materializes are slices of, sizes its record list and maps by
// the log, and keeps each reached node's digest. It measures 1 682 088
// bytes with Go 1.24 on linux/amd64, 1 743 464 under -race. Keeping
// every image in a map that grew by doubling, and one allocation per
// image, made it 2 288 392.
func TestOpenAllocs(t *testing.T) {
	const maxBytes = 1_750_000
	path := openLog(t)
	var before, after runtime.MemStats
	best := uint64(1 << 62)
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := OpenFS(unsynced{}, path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Open of 1 024 roots and 500 rebinds: %d bytes allocated", best)
	if best > maxBytes {
		t.Errorf("Open of 1 024 roots and 500 rebinds allocates %d bytes, want <= %d", best, maxBytes)
	}
}
