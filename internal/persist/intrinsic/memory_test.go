package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestOpenAllocs pins the bytes one Open allocates, on two logs: a
// 4 096-root bulk load, the shape of the benchmark's read store, and
// openLog's, the shape of its write store, where the roots reach 3 200 of
// the 4 771 OIDs the log wrote. The open reads the log into one buffer,
// which the scan's records and the images it materializes are slices of;
// the fold's OID table is sized once by the log, a log of many deltas
// resolves its root names through one map sized by the largest, and the
// nodes and oids maps it keeps are sized by what the roots reach. It
// measures 3 895 712 and 1 301 344 bytes with Go 1.24 on linux/amd64,
// 4 127 168 and 1 362 688 under -race. A fold that kept every root entry
// and every OID's last record in maps, and a materializer that kept its
// values in a map of every OID the log wrote, made them 5 537 832 and
// 1 682 088; keeping every image in a map that grew by doubling, and one
// allocation per image, made the second 2 288 392.
func TestOpenAllocs(t *testing.T) {
	for _, row := range []struct {
		name     string
		log      func(t *testing.T) string
		maxBytes uint64
	}{
		{"4 096 roots", bulkLog, 4_130_000},
		{"1 024 roots and 500 rebinds", openLog, 1_365_000},
	} {
		path := row.log(t)
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
		t.Logf("Open of %s: %d bytes allocated", row.name, best)
		if best > row.maxBytes {
			t.Errorf("Open of %s allocates %d bytes, want <= %d", row.name, best, row.maxBytes)
		}
	}
}

// TestInflatedRootCountAllocatesNothing: a flipped bit that inflates the
// entry count of an early 'D' record in a multi-megabyte log fails the open
// for what it is, and the open allocates little beyond what it sizes by the
// log: the buffer it reads the log into and the fold's OID table. The
// record is parsed before its group's checksum is checked, so its entries
// are checked before a slice of count is allocated. Sizing that slice by
// the bytes left instead, at three a root entry, made this open allocate
// 98 504 entries of 56 bytes, 5.5 MB, before the checksum failed.
func TestInflatedRootCountAllocatesNothing(t *testing.T) {
	const slack = 64 << 10
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFS(unsynced{}, path)
	if err != nil {
		t.Fatal(err)
	}
	bulkLoad(t, s, 200) // a count of two bytes, c8 01
	for i := range 64 {
		if err := s.Bind(fmt.Sprintf("blob%02d", i), value.String(strings.Repeat(string(rune('a'+i%26)), 32<<10)), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("D\xc8\x01\x06r00000"))
	if at < 0 || len(data) < 2<<20 {
		t.Fatalf("no 200-entry 'D' record in a %d-byte log", len(data))
	}
	data[at+2] ^= 0x80 // the count now runs on into the first name's length: 98 504
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	best := uint64(1 << 62)
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := OpenFS(unsynced{}, path)
		runtime.ReadMemStats(&after)
		if err == nil {
			s.Close()
			t.Fatal("Open of a log with an inflated root count succeeded")
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open of a log with an inflated root count: %v, want a corrupt log", err)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Open of a %d-byte log with an inflated root count: %d bytes allocated", len(data), best)
	byLog := uint64(len(data)) + uint64(len(data)/bytesPerNodeRec)*uint64(unsafe.Sizeof(nodeSlot{}))
	if best > byLog+slack {
		t.Errorf("Open of a %d-byte log with an inflated root count allocates %d bytes, want <= %d", len(data), best, byLog+slack)
	}
}

// bulkLog is a log of 4 096 lattice roots committed as one group.
func bulkLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := OpenFS(unsynced{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bulkLoad(t, s, 4096)
	return path
}

// TestApplyFrameAllocs pins what a follower's ApplyGroup of a one-PUT
// frame costs on 1 024 roots: at most 21 allocations. The fold is the
// committer's scratch, kept from one frame to the next, and feeds the
// scanner without allocating; the frame's one delta, sorted and disjoint
// as the writer emits it, is its own resolved root table; and the
// materializer's memo is the fold's OID table. What is left is the
// frame's own: the decoded record, the root table's copied path, the root
// entry, its dynamic and the delta. It measures 21 with Go 1.24 on
// linux/amd64, and as many under -race. A fold whose sink was a set of
// closures over per-scan state, which resolved the root deltas into maps
// and whose materializer kept its values in a map of its own, made it 44.
func TestApplyFrameAllocs(t *testing.T) {
	const runs, maxAllocs = 100, 21
	p, err := OpenFS(unsynced{}, filepath.Join(t.TempDir(), "primary.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	bulkLoad(t, p, 1024)
	f, err := OpenFS(unsynced{}, filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)
	frames := make([][]byte, runs+1) // AllocsPerRun calls once more to warm up
	for g := range frames {
		from := p.DurableEnd()
		if err := p.Bind(fmt.Sprintf("r%05d", g*37%1024), latticeRoot(1025+g*8), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := p.StageBound(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.SyncBatch(); err != nil {
			t.Fatal(err)
		}
		raw, _, _, err := p.ReadGroupsAt(from, 0)
		if err != nil {
			t.Fatal(err)
		}
		frames[g] = raw
	}
	g := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := f.ApplyGroup(frames[g]); err != nil {
			t.Fatal(err)
		}
		g++
	})
	t.Logf("a one-PUT frame applied on 1 024 roots: %.2f allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("a one-PUT frame applied on 1 024 roots costs %.2f allocations, want <= %d", allocs, maxAllocs)
	}
}
