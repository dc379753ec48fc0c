package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file tests that the node bookkeeping follows reachability: after a
// durable boundary a store holds the nodes its committed roots reach, and
// no others.

// checkLifecycle asserts that s holds exactly the nodes its committed root
// table reaches — each by the digest of its last image in the log and, if
// that image names other nodes, their OIDs — with the counts a replay
// gives them, one oids entry per node whatever its role, and no image
// bytes: the staging buffer and records are empty. The root entries and
// images are read from the log file, and the reachable set, digests and
// references taken by a replay's materializer over them, not by the
// bookkeeping under test. The histories it runs on are acyclic: a garbage
// cycle is a node the replay does not reach.
func checkLifecycle(t testing.TB, s *Store) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(s.path)
	if err != nil {
		t.Fatal(err)
	}
	if n := s.staging.buf.Len() + len(s.staging.recs) + len(s.staging.last); n != 0 || s.staged != 0 {
		t.Fatalf("after a durable boundary the store stages %d bytes, %d node records and %d groups",
			s.staging.buf.Len(), len(s.staging.recs), s.staged)
	}
	var tab []types.Type
	fold := groupFold{data: raw[:s.end]}
	if sum, err := scanLog(fold.data, fold.sink(&tab)); err != nil || sum.corrupt != nil || sum.torn {
		t.Fatalf("the durable log scans to %+v, %v", sum, err)
	}
	fold.index()
	replay := &Store{nodes: map[uint64]nodeSum{}, refs: map[uint64][]uint64{}, shared: map[uint64]int32{}}
	m := replay.newMaterializer(len(fold.nodes), &fold, tab)
	m.load = true
	for name, e := range fold.upserts {
		if _, err := m.root(e.inline); err != nil {
			t.Fatalf("root %q: %v", name, err)
		}
	}
	for oid, sum := range replay.nodes {
		img, _ := fold.image(oid)
		if refs := appendRefs(nil, img); sum != sumOf(img) || !slices.Equal(refs, replay.refs[oid]) {
			t.Fatalf("a replay remembers node %d as %x %v, its last image is %x %v", oid, sum, replay.refs[oid], sumOf(img), refs)
		}
	}
	if !maps.Equal(s.nodes, replay.nodes) {
		t.Fatalf("store holds %d node digests, its committed roots reach %d, or a digest differs from its last image's",
			len(s.nodes), len(replay.nodes))
	}
	if !maps.EqualFunc(s.refs, replay.refs, slices.Equal) {
		t.Fatalf("store's references %v, the log's %v", s.refs, replay.refs)
	}
	live := len(m.cache)
	if !maps.Equal(s.shared, replay.shared) {
		t.Fatalf("store counts %v references past the first, a replay counts %v", s.shared, replay.shared)
	}
	numbered := map[uint64]bool{}
	for _, oid := range s.oids {
		if _, ok := m.cache[oid]; !ok {
			t.Fatalf("oids maps a value to node %d, which no root reaches", oid)
		}
		numbered[oid] = true
	}
	if len(s.oids) != live || len(numbered) != live {
		t.Fatalf("store holds %d oids entries naming %d nodes for %d live nodes", len(s.oids), len(numbered), live)
	}
}

// unsynced is the OS file system with fsync a no-op, for tests that commit
// thousands of groups to measure memory, not durability.
type unsynced struct{ iofault.OS }

func (u unsynced) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := u.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

type unsyncedFile struct{ iofault.File }

func (unsyncedFile) Sync() error { return nil }

// rebound is the record-with-a-list the rebind tests bind: two containers.
func rebound(i int) *dynamic.Dynamic {
	return dynamic.Make(value.Rec("Name", value.String("rebound"), "N", value.Int(int64(i)),
		"Tags", value.NewList(value.String("x"), value.Int(int64(i)))))
}

// TestRebindsFreeWhatTheyReplaced: 10 000 bound rebinds of one root of a
// 64-root store, each its own durable batch, leave the store holding the
// 128 containers its roots reach — not the 20 128 every rebind ever
// numbered — and a follower fed the log the same.
func TestRebindsFreeWhatTheyReplaced(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(unsynced{}, filepath.Join(dir, "p.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preload(t, s, 64)
	for i := 0; i < 10000; i++ {
		if _, err := s.Rebind("root00007", rebound(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StageBound(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.oids) != 128 || len(s.nodes) != 128 {
		t.Fatalf("after 10 000 rebinds: %d oids entries and %d node images, want 128 each", len(s.oids), len(s.nodes))
	}
	checkLifecycle(t, s)
	f, err := OpenFS(unsynced{}, filepath.Join(dir, "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, s, f)
	if len(f.nodes) != 128 {
		t.Fatalf("follower holds %d node images, want 128", len(f.nodes))
	}
	checkLifecycle(t, f)
	checkLifecycle(t, openCopy(t, s.Path()))
}

// TestMovedNodeSurvivesTheBatch: a container shared into another handle
// and then dropped by its first one, in two groups of one batch, only
// moved: the batch counts the new reference before it drops the old, and
// the node lives on — on the primary, on a follower that receives the
// batch as one frame, and after a reopen.
func TestMovedNodeSurvivesTheBatch(t *testing.T) {
	s := open(t)
	anon, _ := s.Namespace("")
	u, _ := s.Namespace("u")
	moved := value.Rec("Name", value.String("moved"), "Tags", value.NewList(value.String("x")))
	if err := s.Bind("a", moved, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(filepath.Join(t.TempDir(), "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, s, f)
	if err := anon.ShareTo(u, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageBound(); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("a", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageBound(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) != 2 {
		t.Fatalf("primary holds %d node images after the move, want the record and its list", len(s.nodes))
	}
	checkLifecycle(t, s)
	catchUp(t, s, f)
	checkLifecycle(t, f)
	got, _ := f.Root("u/a")
	if got == nil || !value.Equal(got.Value, moved) {
		t.Fatalf("follower's u/a = %v, want %v", got, moved)
	}
	cp := openCopy(t, s.Path())
	checkLifecycle(t, cp)
	if got, _ := cp.Root("u/a"); got == nil || !value.Equal(got.Value, moved) {
		t.Fatalf("reopened u/a = %v, want %v", got, moved)
	}
}

// TestUnboundCycleGoneAfterReopen: counting cannot see that an unbound
// cycle is garbage, so its node stays until a reopen, which keeps only
// what the roots reach, or a Compact, which drops its oids entry too.
func TestUnboundCycleGoneAfterReopen(t *testing.T) {
	s := open(t)
	cyc := value.Rec("N", value.Int(1))
	cyc.Set("Self", cyc)
	if err := s.Bind("cycle", cyc, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("keep", value.Rec("K", value.Int(2)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Unbind("cycle")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) != 2 || len(s.oids) != 2 {
		t.Fatalf("after the unbind: %d node images and %d oids entries, want the cycle's kept beside the live one",
			len(s.nodes), len(s.oids))
	}
	cp := openCopy(t, s.Path())
	if len(cp.nodes) != 1 || len(cp.oids) != 1 {
		t.Fatalf("reopened: %d node images and %d oids entries, want 1 each", len(cp.nodes), len(cp.oids))
	}
	checkLifecycle(t, cp)
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesKept != 1 || len(s.nodes) != 1 || len(s.oids) != 1 {
		t.Fatalf("Compact kept %d nodes, and the store holds %d images and %d oids entries; want 1 each",
			st.NodesKept, len(s.nodes), len(s.oids))
	}
	checkLifecycle(t, s)
}

// syncAllocs is the mean number of allocations a SyncBatch makes that
// promotes one bound rebind of a root of s.
func syncAllocs(t *testing.T, s *Store, runs int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		if _, err := s.Rebind("root00512", rebound(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StageBound(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(runs)
}

// TestFreeingCostsTheDelta: making a rebind durable — which settles the
// new nodes and frees the replaced ones — allocates nothing, on a 1 024-
// root store as on a 65 536-root one: the new record's reference list is
// one its replaced record gave up. A batch whose fsync fails moves no
// count, no node and no oids entry.
func TestFreeingCostsTheDelta(t *testing.T) {
	var at [2]float64
	for i, roots := range []int{1024, 65536} {
		s, err := OpenFS(unsynced{}, filepath.Join(t.TempDir(), "store.log"))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < roots; j++ {
			if err := s.Bind(fmt.Sprintf("root%05d", j), value.Rec("N", value.Int(int64(j))), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		syncAllocs(t, s, 20) // warm the committer's scratch
		at[i] = syncAllocs(t, s, 200)
		s.Close()
	}
	t.Logf("SyncBatch of one rebind: %.2f allocations at 1 024 roots, %.2f at 65 536", at[0], at[1])
	if at[0] > 0 || at[1] > 0 {
		t.Errorf("SyncBatch of one rebind allocates %.2f at 1 024 roots and %.2f at 65 536, want 0", at[0], at[1])
	}

	inj := iofault.NewInjector(iofault.OS{})
	s, err := OpenFS(inj, filepath.Join(t.TempDir(), "fail.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preload(t, s, 16)
	nodes, refs, shared, oids := maps.Clone(s.nodes), maps.Clone(s.refs), maps.Clone(s.shared), maps.Clone(s.oids)
	for _, name := range []string{"root00003", "root00004"} {
		if _, err := s.Rebind(name, rebound(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StageBound(); err != nil {
			t.Fatal(err)
		}
	}
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if _, err := s.SyncBatch(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("SyncBatch under an injected fsync failure = %v", err)
	}
	if !maps.Equal(s.nodes, nodes) || !maps.EqualFunc(s.refs, refs, slices.Equal) || !maps.Equal(s.shared, shared) {
		t.Fatal("a failed batch moved the committed node digests, their references or their counts")
	}
	if err := s.AbortBound(); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(s.oids, oids) {
		t.Fatalf("after the rollback oids holds %d entries, before the batch %d", len(s.oids), len(oids))
	}
	checkLifecycle(t, s)
}

// TestInPlaceMutationFreesTheReplacedChild: a Commit that finds a record
// mutated in place to hold a new child drops the old child's node, and —
// since no value the store still reaches leads to it — its oids entry
// too.
func TestInPlaceMutationFreesTheReplacedChild(t *testing.T) {
	s := open(t)
	rec := value.Rec("Child", value.Rec("K", value.Int(1)))
	if err := s.Bind("a", rec, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rec.Set("Child", value.Rec("K", value.Int(2)))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(s.nodes) != 2 || len(s.oids) != 2 {
		t.Fatalf("after the mutation: %d node images and %d oids entries, want 2 each", len(s.nodes), len(s.oids))
	}
	checkLifecycle(t, s)
}

// TestFollowerRenamesADroppedNode: one batch unbinds a handle and binds
// its value to another, so its node lives on at the primary. A follower
// that receives the batch group by group drops the node after the first
// group; the second names it without rewriting it, and the follower
// replays its log, which still holds the image, instead of refusing the
// group.
func TestFollowerRenamesADroppedNode(t *testing.T) {
	p := open(t)
	x := value.Rec("Name", value.String("x"), "Tags", value.NewList(value.String("t")))
	if err := p.Bind("a", x, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(filepath.Join(t.TempDir(), "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)
	p.Unbind("a")
	if _, err := p.StageBound(); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("b", x, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StageBound(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	checkLifecycle(t, p)
	raw, _, _, err := p.ReadGroupsAt(f.DurableEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	groups := splitGroups(t, raw)
	if len(groups) != 2 {
		t.Fatalf("the batch wrote %d groups, want 2", len(groups))
	}
	for i, g := range groups {
		if _, err := f.ApplyGroup(g); err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
		checkLifecycle(t, f)
	}
	if got, want := renderTyped(f), renderTyped(p); !maps.Equal(got, want) {
		t.Fatalf("follower %v, primary %v", got, want)
	}
}

// TestBoundWritersFramesApplyInPlace: the frames of a writer that only
// binds fresh values, unbinds and stages bound — as a serve primary does —
// are applied in place, by a follower fed group by group and by one fed
// batch by batch: each delta names exactly the roots its frame changed,
// and every other root keeps its *dynamic.Dynamic. The batches are of one
// group and of eight, and rebind, unbind and bind records holding a list.
func TestBoundWritersFramesApplyInPlace(t *testing.T) {
	p := open(t)
	byGroup, err := Open(filepath.Join(t.TempDir(), "g.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer byGroup.Close()
	byBatch, err := Open(filepath.Join(t.TempDir(), "b.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer byBatch.Close()
	fresh := 0
	freshValue := func() value.Value {
		fresh++
		switch fresh % 3 {
		case 0:
			return value.Int(int64(fresh))
		case 1:
			return value.Rec("Id", value.Int(int64(fresh)), "Name", value.String("flat"))
		}
		return value.Rec("Id", value.Int(int64(fresh)),
			"Tags", value.NewList(value.String("t"), value.Int(int64(fresh))))
	}
	// apply applies frame to f, and checks that its delta names the roots
	// the frame changed — the ones it touched that are bound before or
	// after it — and that no other root was rematerialized.
	apply := func(f *Store, frame []byte, touched, before, after map[string]bool) {
		t.Helper()
		old := f.Committed()
		delta, err := f.ApplyGroup(frame)
		if err != nil {
			t.Fatal(err)
		}
		var want, got []string
		for name := range touched {
			if before[name] || after[name] {
				want = append(want, name)
			}
		}
		slices.Sort(want)
		for _, c := range delta.Changes {
			got = append(got, c.Name)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("a frame that changed %v reports changes to %v", want, got)
		}
		now := f.Committed()
		old.Range(func(name string, d *dynamic.Dynamic) bool {
			if is, _ := now.Get(name); !touched[name] && is != d {
				t.Fatalf("untouched root %q was rematerialized: the frame was replayed", name)
			}
			return true
		})
	}
	rng := rand.New(rand.NewSource(1))
	bound := map[string]bool{} // the primary's handles, as the script goes
	for batch := 0; batch < 40; batch++ {
		groups := 1
		if batch%2 == 1 {
			groups = 8
		}
		from := p.DurableEnd()
		// states[g] is the bound set before group g, and states[groups]
		// after the batch; touched[g] the handles group g wrote.
		states := []map[string]bool{maps.Clone(bound)}
		touched := make([]map[string]bool, groups)
		all := map[string]bool{}
		for g := range touched {
			touched[g] = map[string]bool{}
			for range 1 + rng.Intn(3) {
				name := fmt.Sprintf("r%02d", rng.Intn(16))
				if bound[name] && rng.Intn(4) == 0 {
					p.Unbind(name)
					delete(bound, name)
				} else {
					if err := p.Bind(name, freshValue(), nil); err != nil {
						t.Fatal(err)
					}
					bound[name] = true
				}
				touched[g][name], all[name] = true, true
			}
			if _, err := p.StageBound(); err != nil {
				t.Fatal(err)
			}
			states = append(states, maps.Clone(bound))
		}
		if _, err := p.SyncBatch(); err != nil {
			t.Fatal(err)
		}
		raw, _, n, err := p.ReadGroupsAt(from, 1<<30)
		if err != nil || n != groups {
			t.Fatalf("batch %d: read %d groups, %v; want %d", batch, n, err, groups)
		}
		apply(byBatch, raw, all, states[0], states[groups])
		for g, frame := range splitGroups(t, raw) {
			apply(byGroup, frame, touched[g], states[g], states[g+1])
		}
	}
	for _, f := range []*Store{byGroup, byBatch} {
		if got, want := renderTyped(f), renderTyped(p); !maps.Equal(got, want) {
			t.Fatalf("follower %v, primary %v", got, want)
		}
		checkLifecycle(t, f)
	}
}

// TestFollowerReplaysASharedValue: a library writer that binds a second
// handle, in a later commit, to the value a first one holds writes a
// frame that names a node the follower holds. The follower publishes it by
// replaying its log — every root is rematerialized — and the two handles
// share one value there, as on the primary.
func TestFollowerReplaysASharedValue(t *testing.T) {
	p := open(t)
	x := value.Rec("Name", value.String("x"), "Tags", value.NewList(value.String("t")))
	if err := p.Bind("a", x, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("c", value.Rec("Name", value.String("c")), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(filepath.Join(t.TempDir(), "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)
	untouched, _ := f.Committed().Get("c")
	if err := p.Bind("b", x, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	catchUp(t, p, f)
	if c, _ := f.Committed().Get("c"); c == untouched {
		t.Fatal("a frame naming a node the follower holds was applied in place")
	}
	a, _ := f.Committed().Get("a")
	b, _ := f.Committed().Get("b")
	if a == nil || b == nil || a.Value() != b.Value() {
		t.Fatalf("follower's a and b do not share one value: %v, %v", a, b)
	}
	checkLifecycle(t, f)
}

// TestFollowerReplaysAScatteredFrame: a frame whose new nodes' OIDs lie
// far apart, which a writer makes only when it rewrites a node the
// follower dropped, is published by replaying the log rather than by
// counting over the OID range between them.
func TestFollowerReplaysAScatteredFrame(t *testing.T) {
	recType := types.MustParse("{A: Int}")
	var log bytes.Buffer
	logGroup(&log, func(b *nodeBuf) {
		typeRecord(t, b, recType)
		oids := []uint64{1, 1 << 40}
		for i, oid := range oids {
			b.WriteByte(recNode)
			b.uvarint(oid)
			start := b.Len()
			if err := encodeNode(b, value.Rec("A", value.Int(int64(i))), nil, TransientPrefix); err != nil {
				t.Fatal(err)
			}
			b.prefixLen(start)
		}
		b.WriteByte(recRootDelta)
		b.uvarint(uint64(len(oids)))
		for i, oid := range oids {
			b.str(string(rune('a' + i)))
			b.uvarint(0)
			start := b.Len()
			b.WriteByte(inRef)
			b.uvarint(oid)
			b.prefixLen(start)
		}
		b.uvarint(0)
	})
	f, err := Open(filepath.Join(t.TempDir(), "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ApplyGroup(log.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "{A: Int} | {A = 0}", "b": "{A: Int} | {A = 1}"}
	if got := renderTyped(f); !maps.Equal(got, want) {
		t.Fatalf("follower %v, want %v", got, want)
	}
	checkLifecycle(t, f)
}
