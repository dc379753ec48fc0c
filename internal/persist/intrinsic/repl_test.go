package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// primaryFixture builds a primary store with a scripted history: four
// commits touching every record kind replication has to carry — node
// images, root-table rewrites (including a rebind and an unbind), and an
// index-definition change.
func primaryFixture(t testing.TB) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "primary.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	commit := func() {
		t.Helper()
		if _, err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Bind("emp", value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("tag", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}
	commit()
	if err := p.Bind("emps", value.NewSet(
		value.Rec("Empno", value.Int(1), "Name", value.String("A")),
		value.Rec("Empno", value.Int(2), "Name", value.String("B")),
	), nil); err != nil {
		t.Fatal(err)
	}
	p.DeclareIndex("Empno")
	commit()
	if err := p.Bind("tag", value.String("v2"), nil); err != nil {
		t.Fatal(err)
	}
	p.Unbind("emp")
	commit()
	if err := p.Bind("n", value.Int(42), nil); err != nil {
		t.Fatal(err)
	}
	commit()
	return p, path
}

// allGroups reads the primary's whole verified log body in one window.
func allGroups(t testing.TB, p *Store) []byte {
	t.Helper()
	raw, _, n, err := p.ReadGroupsAt(HeaderSize, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("primary fixture holds no commit groups")
	}
	return raw
}

// deltaNames splits a delta's changes into the names rebound and the
// names removed, each in name order.
func deltaNames(d GroupDelta) (changed, removed []string) {
	for _, c := range d.Changes {
		if c.New == nil {
			removed = append(removed, c.Name)
		} else {
			changed = append(changed, c.Name)
		}
	}
	return changed, removed
}

// splitGroups cuts raw log bytes into individual commit groups at the
// boundaries the structural scanner reports.
func splitGroups(t testing.TB, raw []byte) [][]byte {
	t.Helper()
	var ends []int64
	sum := scanRaw(raw, funcSink{onCommit: func(end int64) { ends = append(ends, end-HeaderSize) }})
	if sum.corrupt != nil {
		t.Fatal(sum.corrupt)
	}
	groups := make([][]byte, 0, len(ends))
	var prev int64
	for _, end := range ends {
		groups = append(groups, raw[prev:end])
		prev = end
	}
	if prev != int64(len(raw)) {
		t.Fatalf("%d trailing bytes past the last commit group", int64(len(raw))-prev)
	}
	return groups
}

// catchUp ships groups primary→follower until the follower's durable end
// reaches the primary's, cross-checking that the offsets the two stores
// report stay in lockstep (they must: the files are byte-identical).
func catchUp(t *testing.T, p, f *Store) {
	t.Helper()
	for {
		raw, next, n, err := p.ReadGroupsAt(f.DurableEnd(), 0)
		if err != nil {
			t.Fatalf("ReadGroupsAt(%d): %v", f.DurableEnd(), err)
		}
		if n == 0 {
			return
		}
		delta, err := f.ApplyGroup(raw)
		if err != nil {
			t.Fatalf("ApplyGroup at %d: %v", f.DurableEnd(), err)
		}
		if delta.End != next || delta.Groups != n {
			t.Fatalf("delta (end %d, %d groups) disagrees with shipped (next %d, %d groups)",
				delta.End, delta.Groups, next, n)
		}
	}
}

// TestReplicationRoundTrip: shipping every group of a primary's log into a
// fresh follower leaves the two log files byte-identical, the visible
// roots equal, and the index-definition tables equal — and the follower's
// file replays to the same state through a plain reopen.
func TestReplicationRoundTrip(t *testing.T) {
	p, ppath := primaryFixture(t)
	fpath := filepath.Join(t.TempDir(), "follower.log")
	f, err := Open(fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)

	pb, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, fb) {
		t.Fatalf("follower log (%d bytes) is not byte-identical to primary log (%d bytes)", len(fb), len(pb))
	}
	if !sameState(render(p), render(f)) {
		t.Fatalf("follower state %v != primary state %v", render(f), render(p))
	}
	if !reflect.DeepEqual(p.IndexDefs(), f.IndexDefs()) {
		t.Fatalf("follower index defs %v != primary %v", f.IndexDefs(), p.IndexDefs())
	}

	// The shipped file stands on its own: a cold open replays it to the
	// same state a local history would.
	f2, err := Open(fpath)
	if err != nil {
		t.Fatalf("cold reopen of follower log: %v", err)
	}
	defer f2.Close()
	if !sameState(render(p), render(f2)) {
		t.Fatalf("reopened follower state %v != primary state %v", render(f2), render(p))
	}
}

// TestApplyGroupDelta: each applied group reports exactly which roots
// changed or vanished and whether the index-definition set moved — the
// vocabulary the server uses to advance its published state.
func TestApplyGroupDelta(t *testing.T) {
	p, _ := primaryFixture(t)
	groups := splitGroups(t, allGroups(t, p))
	if len(groups) != 4 {
		t.Fatalf("fixture produced %d groups, want 4", len(groups))
	}
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	want := []struct{ changed, removed []string }{
		{changed: []string{"emp", "tag"}},
		{changed: []string{"emps"}},
		{changed: []string{"tag"}, removed: []string{"emp"}},
		{changed: []string{"n"}},
	}
	// The index definitions the follower holds after each group: the
	// second declares Empno.
	wantDefs := [][]string{{}, {"Empno"}, {"Empno"}, {"Empno"}}
	at := f.DurableEnd()
	for i, g := range groups {
		before := f.Committed()
		delta, err := f.ApplyGroup(g)
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
		if delta.Start != at || delta.End != at+int64(len(g)) || delta.Groups != 1 {
			t.Fatalf("group %d spans [%d,%d) ×%d, want [%d,%d) ×1",
				i, delta.Start, delta.End, delta.Groups, at, at+int64(len(g)))
		}
		at = delta.End
		if changed, removed := deltaNames(delta); !reflect.DeepEqual(changed, want[i].changed) ||
			!reflect.DeepEqual(removed, want[i].removed) {
			t.Fatalf("group %d delta = {changed:%v removed:%v}, want {changed:%v removed:%v}",
				i, changed, removed, want[i].changed, want[i].removed)
		}
		// Each change carries the bindings on either side: the ones the
		// committed table held before the group, and holds after it.
		after := f.Committed()
		for _, c := range delta.Changes {
			was, _ := before.Get(c.Name)
			is, _ := after.Get(c.Name)
			if c.Old != was || c.New != is {
				t.Fatalf("group %d: change of %q = (%v, %v), want the committed bindings (%v, %v)", i, c.Name, c.Old, c.New, was, is)
			}
		}
		if defs := f.IndexDefs(); !reflect.DeepEqual(defs, wantDefs[i]) {
			t.Fatalf("group %d: follower's index definitions %v, want %v", i, defs, wantDefs[i])
		}
	}
}

// TestApplyGroupRejectsDamage: a truncated group is refused as ErrBadGroup
// and a checksum-damaged one as corruption — in both cases before any I/O,
// leaving the follower's log and state untouched and still able to apply
// the undamaged bytes.
func TestApplyGroupRejectsDamage(t *testing.T) {
	p, _ := primaryFixture(t)
	groups := splitGroups(t, allGroups(t, p))
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ApplyGroup(groups[0]); err != nil {
		t.Fatal(err)
	}
	end, state := f.DurableEnd(), render(f)

	g := groups[1]
	if _, err := f.ApplyGroup(g[:len(g)-3]); !errors.Is(err, ErrBadGroup) {
		t.Fatalf("truncated group applied with %v, want ErrBadGroup", err)
	}
	// The group checksum is the last thing in the group: flipping a bit of
	// it leaves the structure parseable and fails verification.
	bad := append([]byte(nil), g...)
	bad[len(bad)-1] ^= 0x01
	if _, err := f.ApplyGroup(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("checksum-flipped group applied with %v, want ErrCorrupt", err)
	}
	// A flip in the middle lands wherever it lands — payload or structure —
	// but is always refused with a typed error.
	bad = append([]byte(nil), g...)
	bad[len(bad)/2] ^= 0x20
	if _, err := f.ApplyGroup(bad); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadGroup) {
		t.Fatalf("mid-flipped group applied with %v, want ErrCorrupt or ErrBadGroup", err)
	}

	if f.DurableEnd() != end {
		t.Fatalf("durable end moved %d→%d on rejected groups", end, f.DurableEnd())
	}
	if !sameState(render(f), state) {
		t.Fatalf("state changed on rejected groups: %v != %v", render(f), state)
	}
	if _, err := f.ApplyGroup(g); err != nil {
		t.Fatalf("undamaged group refused after rejections: %v", err)
	}
}

// TestApplyGroupRefusesNonConformingRoot: a program on the library API can
// commit a root that no longer conforms to its declared type, by mutating
// the bound value in place. A follower checks every root a group upserts
// before it appends, so it refuses that group with a ConformanceError
// naming the root, and neither its end nor its committed table moves. The
// refused group's 'T' record defines nothing: the primary's next group,
// which names that type's ordinal, is refused as corruption at the
// ordinal. The refusals do not poison the follower, so a conforming group
// that defines its own type applies after. Open refuses a log ending in
// the non-conforming group for the same reason.
func TestApplyGroupRefusesNonConformingRoot(t *testing.T) {
	p, err := Open(filepath.Join(t.TempDir(), "primary.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rAt := types.MustParse("{a: Int}")
	rec := value.Rec("a", value.Int(1))
	if err := p.Bind("r", rec, rAt); err != nil {
		t.Fatal(err)
	}
	rec.Set("a", value.String("x"))
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	bad, _, _, err := p.ReadGroupsAt(HeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("r", value.Rec("a", value.Int(2)), rAt); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	orphan, _, _, err := p.ReadGroupsAt(HeaderSize+int64(len(bad)), 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Open(filepath.Join(t.TempDir(), "other.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if err := q.Bind("r", value.Rec("a", value.Int(2)), rAt); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Commit(); err != nil {
		t.Fatal(err)
	}
	good, _, _, err := q.ReadGroupsAt(HeaderSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	end, committed := f.DurableEnd(), f.Committed()
	_, err = f.ApplyGroup(bad)
	var ce *ConformanceError
	if !errors.Is(err, ErrNotConforming) || !errors.As(err, &ce) || ce.Root != "r" {
		t.Fatalf("ApplyGroup of a non-conforming root = %v, want a ConformanceError naming r", err)
	}
	if f.DurableEnd() != end || f.Committed() != committed {
		t.Fatalf("refused group moved the follower: end %d → %d, committed table replaced: %v",
			end, f.DurableEnd(), f.Committed() != committed)
	}
	var corrupt *CorruptError
	if _, err := f.ApplyGroup(orphan); !errors.As(err, &corrupt) || !strings.Contains(corrupt.Reason, "type ordinal 0") {
		t.Fatalf("ApplyGroup of a group naming a refused group's type = %v, want a CorruptError at the ordinal", err)
	}
	if f.DurableEnd() != end || f.Committed() != committed {
		t.Fatalf("refused group moved the follower: end %d → %d, committed table replaced: %v",
			end, f.DurableEnd(), f.Committed() != committed)
	}
	if _, err := f.ApplyGroup(good); err != nil {
		t.Fatalf("conforming group after the refusal: %v", err)
	}
	if r, ok := f.Root("r"); !ok || !value.Equal(r.Value, value.Rec("a", value.Int(2))) {
		t.Fatalf("follower's r = %v (bound %v), want {a=2}", r, ok)
	}

	prefix := filepath.Join(t.TempDir(), "prefix.log")
	if err := os.WriteFile(prefix, append(append([]byte(logMagic), logVersion), bad...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(prefix); !errors.As(err, &ce) || ce.Root != "r" {
		t.Fatalf("Open of a log binding a non-conforming root = %v, want a ConformanceError naming r", err)
	}
}

// TestRebindTakesTheDynamicAsChecked: Rebind binds the dynamic it is
// handed without checking it again — the server's PUT checks conformance
// once, when its handler builds the dynamic — while Bind checks the value
// it pairs with the declared type.
func TestRebindTakesTheDynamicAsChecked(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "s.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := types.MustParse("{a: Int}")
	rec := value.Rec("a", value.Int(1))
	d, err := dynamic.MakeAt(rec, at)
	if err != nil {
		t.Fatal(err)
	}
	rec.Set("a", value.String("x"))
	if err := s.Bind("bound", rec, at); !errors.Is(err, ErrNotConforming) {
		t.Fatalf("Bind of a non-conforming value = %v, want ErrNotConforming", err)
	}
	if prev, err := s.Rebind("rebound", d); prev != nil || err != nil {
		t.Fatalf("Rebind = (%v, %v), want (nil, nil)", prev, err)
	}
	if got, _ := s.Rebind("rebound", nil); got != d {
		t.Fatalf("Rebind(nil) returned %v, want the dynamic it replaced", got)
	}
}

// TestReplicaRefusesLocalMutation: once a store is a follower — via
// EnterReplica or the first ApplyGroup — every local mutation path is a
// typed refusal, so the log can only grow through replication.
func TestReplicaRefusesLocalMutation(t *testing.T) {
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.EnterReplica()
	if err := f.Bind("x", value.Int(1), nil); !errors.Is(err, ErrReplica) {
		t.Fatalf("Bind on replica: %v, want ErrReplica", err)
	}
	if _, err := f.Commit(); !errors.Is(err, ErrReplica) {
		t.Fatalf("Commit on replica: %v, want ErrReplica", err)
	}
	if _, err := f.Compact(); !errors.Is(err, ErrReplica) {
		t.Fatalf("Compact on replica: %v, want ErrReplica", err)
	}
}

// TestReplicaUnbindChangesNothing: on a follower Unbind is a no-op that
// reports false — the handle table is the log's — so memory never runs
// ahead of the log, and the next applied group lands on the primary's
// state.
func TestReplicaUnbindChangesNothing(t *testing.T) {
	p, _ := primaryFixture(t)
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)
	before := render(f)
	if f.Unbind("tag") {
		t.Fatal("Unbind on replica reported true")
	}
	if got := render(f); !sameState(got, before) {
		t.Fatalf("Unbind on replica changed its state: %v, want %v", got, before)
	}
	if err := p.Bind("n", value.Int(43), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	catchUp(t, p, f)
	if !sameState(render(f), render(p)) {
		t.Fatalf("follower state %v != primary state %v", render(f), render(p))
	}
}

// TestReplicaOpenAsRefusesEnrichment: on a follower OpenAs still opens a
// view, but enriching the handle's schema is a local write, refused with
// ErrReplica, and the declared type stays the one the log holds.
func TestReplicaOpenAsRefusesEnrichment(t *testing.T) {
	p, err := Open(filepath.Join(t.TempDir(), "primary.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	if err := p.Bind("emp", emp, types.MustParse("{Name: String}")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	catchUp(t, p, f)
	before := renderTyped(f)

	if _, err := f.OpenAs("emp", types.Top); err != nil {
		t.Fatalf("view on replica: %v", err)
	}
	if _, err := f.OpenAs("emp", types.MustParse("{Empno: Int}")); !errors.Is(err, ErrReplica) {
		t.Fatalf("enrichment on replica: %v, want ErrReplica", err)
	}
	if got := renderTyped(f); !sameState(got, before) {
		t.Fatalf("refused enrichment changed the replica: %v, want %v", got, before)
	}
}

// TestReadGroupsAtValidation: offsets outside the durable log are typed
// ErrBadOffset, the durable end itself means "caught up", an offset inside
// a group is detected as corruption (the primary never ships from a
// non-boundary), and a tiny window still returns at least one whole group.
func TestReadGroupsAtValidation(t *testing.T) {
	p, _ := primaryFixture(t)
	end := p.DurableEnd()
	for _, from := range []int64{0, HeaderSize - 1, end + 1, 1 << 40} {
		if _, _, _, err := p.ReadGroupsAt(from, 0); !errors.Is(err, ErrBadOffset) {
			t.Errorf("ReadGroupsAt(%d) = %v, want ErrBadOffset", from, err)
		}
	}
	raw, next, n, err := p.ReadGroupsAt(end, 0)
	if err != nil || raw != nil || next != end || n != 0 {
		t.Fatalf("ReadGroupsAt(end) = (%d bytes, %d, %d, %v), want (nil, %d, 0, nil)",
			len(raw), next, n, err, end)
	}
	if _, _, _, err := p.ReadGroupsAt(HeaderSize+1, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadGroupsAt(mid-group) = %v, want ErrCorrupt", err)
	}
	raw, next, n, err = p.ReadGroupsAt(HeaderSize, 1)
	if err != nil || n < 1 {
		t.Fatalf("ReadGroupsAt(maxBytes=1) = (%d groups, %v), want at least one whole group", n, err)
	}
	if next != HeaderSize+int64(len(raw)) {
		t.Fatalf("next %d != from+len(raw) %d", next, HeaderSize+int64(len(raw)))
	}
}

// applyAll opens a follower over fsys and applies the groups in order,
// stopping at the first failure — exactly what a crash does.
func applyAll(fsys iofault.FS, path string, groups [][]byte) int {
	f, err := OpenFS(fsys, path)
	if err != nil {
		return 0
	}
	defer f.Close()
	for i, g := range groups {
		if _, err := f.ApplyGroup(g); err != nil {
			return i
		}
	}
	return len(groups)
}

// TestFollowerPrefixCrashMatrix is the replication half of the crash
// matrix: a probe run counts the mutating I/O operations of applying the
// primary's whole history on a follower, then the apply is re-run crashing
// at every boundary (with and without losing unsynced page-cache data).
// After every crash the reopened follower must satisfy the shipping
// invariant — its durable log is a byte-for-byte prefix of the primary's,
// ending on a group boundary — and resuming from its durable end must
// converge to a byte-identical file and equal visible state.
func TestFollowerPrefixCrashMatrix(t *testing.T) {
	followerPrefixCrashMatrix(t, func(t *testing.T) (*Store, string) { return primaryFixture(t) })
}

// TestFollowerPrefixCrashMatrixGroupCommit re-runs the follower crash
// matrix against a *group-committing* primary: the same logical history
// staged via StageBound — the server's stage — and promoted in two
// SyncBatch fsyncs. Because a
// batched log is byte-identical to a serial one, a follower streaming
// from it must still converge byte-identical through every crash.
func TestFollowerPrefixCrashMatrixGroupCommit(t *testing.T) {
	followerPrefixCrashMatrix(t, batchedPrimaryFixture)
}

// batchedPrimaryFixture builds the primaryFixture history with group
// commit: four staged groups, two shared fsyncs.
func batchedPrimaryFixture(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "primary.log")
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	stage := func() {
		t.Helper()
		if _, err := p.StageBound(); err != nil {
			t.Fatal(err)
		}
	}
	sync := func(want int) {
		t.Helper()
		if n, err := p.SyncBatch(); err != nil || n != want {
			t.Fatalf("SyncBatch = (%d, %v), want (%d, nil)", n, err, want)
		}
	}
	if err := p.Bind("emp", value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("tag", value.String("v1"), nil); err != nil {
		t.Fatal(err)
	}
	stage()
	if err := p.Bind("emps", value.NewSet(
		value.Rec("Empno", value.Int(1), "Name", value.String("A")),
		value.Rec("Empno", value.Int(2), "Name", value.String("B")),
	), nil); err != nil {
		t.Fatal(err)
	}
	p.DeclareIndex("Empno")
	stage()
	sync(2)
	if err := p.Bind("tag", value.String("v2"), nil); err != nil {
		t.Fatal(err)
	}
	p.Unbind("emp")
	stage()
	if err := p.Bind("n", value.Int(42), nil); err != nil {
		t.Fatal(err)
	}
	stage()
	sync(2)
	return p, path
}

func followerPrefixCrashMatrix(t *testing.T, fixture func(*testing.T) (*Store, string)) {
	p, ppath := fixture(t)
	groups := splitGroups(t, allGroups(t, p))
	primaryBytes, err := os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	want := render(p)

	probe := iofault.NewInjector(iofault.OS{})
	if got := applyAll(probe, filepath.Join(t.TempDir(), "follower.log"), groups); got != len(groups) {
		t.Fatalf("fault-free apply stopped after %d of %d groups", got, len(groups))
	}
	n := probe.Ops()
	if n < 5 {
		t.Fatalf("apply performed only %d mutating ops", n)
	}

	// Every legal durable end: the bare header, or the end of any group.
	boundaries := map[int64]bool{HeaderSize: true}
	off := HeaderSize
	for _, g := range groups {
		off += int64(len(g))
		boundaries[off] = true
	}

	for _, lose := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("lose=%v/op=%d", lose, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "follower.log")
				inj := iofault.NewInjector(iofault.OS{})
				inj.LoseUnsynced = lose
				inj.CrashAt(k)
				applyAll(inj, path, groups)
				if !inj.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}

				f, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", k, err)
				}
				defer f.Close()
				checkLifecycle(t, f)
				de := f.DurableEnd()
				if !boundaries[de] {
					t.Fatalf("durable end %d after crash is not a group boundary", de)
				}
				fb, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(fb)) < de || !bytes.Equal(fb[:de], primaryBytes[:de]) {
					t.Fatalf("follower durable prefix [0,%d) diverges from primary", de)
				}

				// Resume: ship everything past the follower's durable end,
				// then the two logs must be byte-identical.
				catchUp(t, p, f)
				fb, err = os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fb, primaryBytes) {
					t.Fatalf("resumed follower log (%d bytes) not byte-identical to primary (%d bytes)",
						len(fb), len(primaryBytes))
				}
				if !sameState(render(f), want) {
					t.Fatalf("resumed follower state %v != primary state %v", render(f), want)
				}
				checkLifecycle(t, f)
			})
		}
	}
}
