package intrinsic

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

// TestIndexDefsDurability: declared index definitions ride the commit
// group and survive reopen; dropping one is equally durable.
func TestIndexDefsDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("db", value.NewList(), nil); err != nil {
		t.Fatal(err)
	}
	if !s.DeclareIndex("Empno") {
		t.Fatal("DeclareIndex said already declared")
	}
	if s.DeclareIndex("Empno") {
		t.Fatal("second DeclareIndex said new")
	}
	s.DeclareIndex("Dept")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.IndexDefs(); !reflect.DeepEqual(got, []string{"Dept", "Empno"}) {
		t.Fatalf("IndexDefs after reopen = %v", got)
	}
	if !s2.DropIndexDef("Dept") {
		t.Fatal("DropIndexDef said undeclared")
	}
	if _, err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.IndexDefs(); !reflect.DeepEqual(got, []string{"Empno"}) {
		t.Fatalf("IndexDefs after drop+reopen = %v", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) || rep.IndexDefs != 1 {
		t.Fatalf("fsck: clean=%v indexDefs=%d, want clean with 1", fsckClean(rep), rep.IndexDefs)
	}
}

// TestIndexDefsUncommittedNotDurable: like Bind, DeclareIndex is in-memory
// until Commit — a reopen without one sees nothing.
func TestIndexDefsUncommittedNotDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.DeclareIndex("Empno")
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.IndexDefs(); len(got) != 0 {
		t.Fatalf("uncommitted declaration survived reopen: %v", got)
	}
}

// indexCrashWorkload is the crash-matrix workload for index definitions:
// each checkpoint pairs a root mutation with an index-definition change in
// the same commit group, so a crash can only ever reveal both or neither.
func indexCrashWorkload(fsys iofault.FS, path string) (checkpoints [][]string) {
	s, err := OpenFS(fsys, path)
	if err != nil {
		return nil
	}
	defer s.Close()
	step := func(mutate func() error) bool {
		if err := mutate(); err != nil {
			return false
		}
		if _, err := s.Commit(); err != nil {
			return false
		}
		checkpoints = append(checkpoints, s.IndexDefs())
		return true
	}
	if !step(func() error {
		s.DeclareIndex("Empno")
		return s.Bind("db", value.NewList(value.Int(1)), nil)
	}) {
		return
	}
	if !step(func() error {
		s.DeclareIndex("Dept")
		r, _ := s.Root("db")
		r.Value.(*value.List).Append(value.Int(2))
		return nil
	}) {
		return
	}
	step(func() error {
		s.DropIndexDef("Empno")
		r, _ := s.Root("db")
		r.Value.(*value.List).Append(value.Int(3))
		return nil
	})
	return
}

// TestIndexDefsCrashNeverAhead extends the crash matrix to index
// definitions: crash at every mutating I/O boundary, reopen, and require
// the visible definition set to be exactly a committed checkpoint — and to
// agree with the root state committed in the same group. An index
// definition must never be ahead of the durable offset.
func TestIndexDefsCrashNeverAhead(t *testing.T) {
	probe := iofault.NewInjector(iofault.OS{})
	want := indexCrashWorkload(probe, filepath.Join(t.TempDir(), "store.log"))
	if len(want) != 3 {
		t.Fatalf("fault-free workload made %d checkpoints, want 3", len(want))
	}
	n := probe.Ops()

	// rootLen pairs each checkpoint's defs with its committed list length.
	rootLen := func(s *Store) int {
		r, ok := s.Root("db")
		if !ok {
			return 0
		}
		return len(r.Value.(*value.List).Elems)
	}

	for _, lose := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("lose=%v/op=%d", lose, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "store.log")
				inj := iofault.NewInjector(iofault.OS{})
				inj.LoseUnsynced = lose
				inj.CrashAt(k)
				got := indexCrashWorkload(inj, path)
				if !inj.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}
				s, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", k, err)
				}
				defer s.Close()

				defs := s.IndexDefs()
				nroot := rootLen(s)

				// Allowed states: (defs, rootLen) pairs of completed
				// checkpoints, plus the next one when the group was fully
				// durable before the crash boundary, plus empty.
				type st struct {
					defs []string
					n    int
				}
				allowed := []st{{nil, 0}}
				if len(got) > 0 {
					allowed = []st{{got[len(got)-1], len(got)}}
				}
				if len(got) < len(want) {
					allowed = append(allowed, st{want[len(got)], len(got) + 1})
				}
				for _, a := range allowed {
					if nroot == a.n && reflect.DeepEqual(defs, a.defs) ||
						(len(defs) == 0 && len(a.defs) == 0 && nroot == a.n) {
						return
					}
				}
				t.Fatalf("crash at op %d (lose=%v): reopened (defs=%v, rootLen=%d) is not a committed checkpoint (allowed %v)",
					k, lose, defs, nroot, allowed)
			})
		}
	}
}

// TestTornIndexRecordIsRecoverable: truncating inside an 'X' record is a
// torn tail (not corruption) and the store reopens at the previous commit.
func TestTornIndexRecordIsRecoverable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	good, _ := Fsck(path)
	s.DeclareIndex("AVeryLongFieldNameSoTruncationLandsInsideIt")
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the second group: past the first group's end, before the
	// second commit marker.
	if err := os.Truncate(path, (good.GoodEnd+fi.Size())/2); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("torn 'X' group classified as corruption: %v", rep.Corrupt)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen with torn index group: %v", err)
	}
	defer s2.Close()
	if got := s2.IndexDefs(); len(got) != 0 {
		t.Fatalf("torn index definition visible after reopen: %v", got)
	}
}
