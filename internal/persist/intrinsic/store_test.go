package intrinsic

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	return s2
}

func TestBindCommitReopen(t *testing.T) {
	s := open(t)
	db := value.Rec("Employees", value.NewSet(
		value.Rec("Name", value.String("J Doe"), "Dept", value.String("Sales"))))
	if err := s.Bind("DB", db, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	r, ok := s2.Root("DB")
	if !ok {
		t.Fatal("root lost")
	}
	if !value.Equal(r.Value, db) {
		t.Errorf("reopened value = %s", r.Value)
	}
	if !types.Equal(r.Declared, value.TypeOf(db)) {
		t.Errorf("declared type = %s", r.Declared)
	}
}

func TestBindConformance(t *testing.T) {
	s := open(t)
	err := s.Bind("x", value.Int(3), types.String)
	if !errors.Is(err, ErrNotConforming) {
		t.Errorf("err = %v, want ErrNotConforming", err)
	}
	// Binding at a declared supertype is fine.
	if err := s.Bind("p", value.Rec("Name", value.String("J"), "Empno", value.Int(1)),
		types.MustParse("{Name: String}")); err != nil {
		t.Fatal(err)
	}
}

func TestAtomRoots(t *testing.T) {
	s := open(t)
	if err := s.Bind("n", value.Int(42), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("s", value.String("hello"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	if r, _ := s2.Root("n"); !value.Equal(r.Value, value.Int(42)) {
		t.Error("atom root lost")
	}
	if r, _ := s2.Root("s"); !value.Equal(r.Value, value.String("hello")) {
		t.Error("string root lost")
	}
}

func TestSharingSurvivesReopen(t *testing.T) {
	// The decisive advantage over replicating persistence: two handles
	// reaching one value still share it after reopening.
	s := open(t)
	c := value.Rec("Balance", value.Int(100))
	if err := s.Bind("a", value.Rec("Ref", c), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("b", value.Rec("Ref", c), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	ra, _ := s2.Root("a")
	rb, _ := s2.Root("b")
	ca := ra.Value.(*value.Record).MustGet("Ref").(*value.Record)
	cb := rb.Value.(*value.Record).MustGet("Ref").(*value.Record)
	if ca != cb {
		t.Fatal("sharing lost across reopen")
	}
	// An update through a is visible through b — no update anomaly.
	ca.Set("Balance", value.Int(0))
	if v, _ := cb.Get("Balance"); !value.Equal(v, value.Int(0)) {
		t.Error("update through one handle invisible through the other")
	}
}

func TestCycleSurvivesReopen(t *testing.T) {
	s := open(t)
	r := value.NewRecord()
	r.Set("Name", value.String("loop"))
	r.Set("Self", r)
	if err := s.Bind("cyc", r, types.Top); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	root, _ := s2.Root("cyc")
	rec := root.Value.(*value.Record)
	if rec.MustGet("Self").(*value.Record) != rec {
		t.Error("cycle lost")
	}
}

func TestCommitIsIncremental(t *testing.T) {
	s := open(t)
	// Bind many independent records, commit, mutate one, commit again.
	var recs []*value.Record
	lst := value.NewList()
	for i := 0; i < 100; i++ {
		r := value.Rec("I", value.Int(int64(i)))
		recs = append(recs, r)
		lst.Append(r)
	}
	if err := s.Bind("all", lst, nil); err != nil {
		t.Fatal(err)
	}
	st1, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st1.NodesWritten != 101 { // the list + 100 records
		t.Errorf("first commit wrote %d nodes, want 101", st1.NodesWritten)
	}
	// A no-op commit writes no nodes.
	st2, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st2.NodesWritten != 0 {
		t.Errorf("no-op commit wrote %d nodes, want 0", st2.NodesWritten)
	}
	// Mutating one record re-writes exactly that node.
	recs[42].Set("I", value.Int(-1))
	st3, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st3.NodesWritten != 1 {
		t.Errorf("delta commit wrote %d nodes, want 1", st3.NodesWritten)
	}
	if st3.NodesReachable != 101 {
		t.Errorf("reachable = %d, want 101", st3.NodesReachable)
	}
}

func TestAbortRevertsToLastCommit(t *testing.T) {
	// PS-algol: "before this instruction is called, the persistent value
	// and the value being used by the program can diverge".
	s := open(t)
	r := value.Rec("K", value.Int(1))
	if err := s.Bind("x", r, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	r.Set("K", value.Int(2))                               // diverge
	if err := s.Bind("y", value.Int(9), nil); err != nil { // and a new root
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	root, ok := s.Root("x")
	if !ok {
		t.Fatal("x lost by abort")
	}
	if v, _ := root.Value.(*value.Record).Get("K"); !value.Equal(v, value.Int(1)) {
		t.Errorf("abort did not revert: K = %s", v)
	}
	if _, ok := s.Root("y"); ok {
		t.Error("uncommitted root survived abort")
	}
}

func TestTransientFieldsDoNotPersist(t *testing.T) {
	// The bill-of-materials memo fields: attached to persistent parts,
	// needed during the computation, not persisted.
	s := open(t)
	part := value.Rec("Name", value.String("frame"), "Cost", value.Float(10))
	part.Set("_memoTotalCost", value.Float(123.45))
	if err := s.Bind("part", part, types.MustParse("{Name: String, Cost: Float}")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// In memory the memo is still there.
	if _, ok := part.Get("_memoTotalCost"); !ok {
		t.Fatal("commit must not strip in-memory transient fields")
	}
	s2 := reopen(t, s)
	root, _ := s2.Root("part")
	if _, ok := root.Value.(*value.Record).Get("_memoTotalCost"); ok {
		t.Error("transient field persisted")
	}
	if v, _ := root.Value.(*value.Record).Get("Cost"); !value.Equal(v, value.Float(10)) {
		t.Error("persistent field lost")
	}
}

func TestTransientOnlyChangeIsNoOpCommit(t *testing.T) {
	s := open(t)
	part := value.Rec("Name", value.String("frame"))
	if err := s.Bind("part", part, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	part.Set("_memo", value.Int(1))
	st, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesWritten != 0 {
		t.Errorf("transient-only change wrote %d nodes, want 0", st.NodesWritten)
	}
}

func TestUnbindAndCompactCollectGarbage(t *testing.T) {
	s := open(t)
	big := value.NewList()
	for i := 0; i < 500; i++ {
		big.Append(value.Rec("I", value.Int(int64(i))))
	}
	if err := s.Bind("big", big, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("small", value.Rec("K", value.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if !s.Unbind("big") {
		t.Fatal("Unbind failed")
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesAfter >= st.BytesBefore {
		t.Errorf("compaction did not shrink the log: %d -> %d", st.BytesBefore, st.BytesAfter)
	}
	if st.NodesFreed < 500 {
		t.Errorf("freed %d nodes, want >= 500", st.NodesFreed)
	}
	// The survivor is intact after reopen.
	s2 := reopen(t, s)
	if _, ok := s2.Root("big"); ok {
		t.Error("unbound root survived compaction")
	}
	root, ok := s2.Root("small")
	if !ok {
		t.Fatal("small root lost by compaction")
	}
	if v, _ := root.Value.(*value.Record).Get("K"); !value.Equal(v, value.Int(1)) {
		t.Error("survivor corrupted")
	}
}

func TestCrashRecoveryTornCommit(t *testing.T) {
	s := open(t)
	if err := s.Bind("x", value.Rec("K", value.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Root("x")
	r.Value.(*value.Record).Set("K", value.Int(2))
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	path := s.Path()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-commit: truncate the tail of the log so the
	// second commit group is torn.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(img) - 1; cut > len(logMagic)+1; cut-- {
		if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after truncation at %d: %v", cut, err)
		}
		if root, ok := s2.Root("x"); ok {
			v, _ := root.Value.(*value.Record).Get("K")
			if !value.Equal(v, value.Int(1)) && !value.Equal(v, value.Int(2)) {
				t.Fatalf("truncation at %d exposed inconsistent state: K = %s", cut, v)
			}
		}
		s2.Close()
	}
}

func TestSchemaEvolutionMatrix(t *testing.T) {
	// The paper's DBType / DBType' recompilation scenario.
	stored := types.MustParse("{Employees: Set[{Name: String, Empno: Int}]}")
	emps := value.Rec("Employees", value.NewSet(
		value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))))

	t.Run("supertype is a view", func(t *testing.T) {
		s := open(t)
		if err := s.Bind("DB", emps, stored); err != nil {
			t.Fatal(err)
		}
		v, err := s.OpenAs("DB", types.MustParse("{Employees: Set[{Name: String}]}"))
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(v, emps) {
			t.Error("view should expose the stored value")
		}
		// The schema is NOT narrowed by a view.
		r, _ := s.Root("DB")
		if !types.Equal(r.Declared, stored) {
			t.Errorf("view changed the schema to %s", r.Declared)
		}
	})

	t.Run("consistent type enriches the schema", func(t *testing.T) {
		s := open(t)
		if err := s.Bind("DB", emps, stored); err != nil {
			t.Fatal(err)
		}
		// A new program knows about Departments too. Consistent: the meet
		// has both fields. The value must be migrated first.
		want := types.MustParse("{Employees: Set[{Name: String, Empno: Int}], Departments: Set[{Dept: String}]}")
		_, err := s.OpenAs("DB", want)
		if !errors.Is(err, ErrMigrationRequired) {
			t.Fatalf("err = %v, want ErrMigrationRequired", err)
		}
		// Migrate: add the missing field, then reopen.
		emps2 := value.Copy(emps).(*value.Record)
		emps2.Set("Departments", value.NewSet())
		if err := s.Bind("DB", emps2, stored); err != nil {
			t.Fatal(err)
		}
		if _, err := s.OpenAs("DB", want); err != nil {
			t.Fatalf("after migration: %v", err)
		}
		r, _ := s.Root("DB")
		m, _ := types.Meet(stored, want)
		if !types.Equal(r.Declared, m) {
			t.Errorf("schema = %s, want the meet %s", r.Declared, m)
		}
	})

	t.Run("element enrichment", func(t *testing.T) {
		// Same field, finer element type: consistent; existing elements
		// must already carry the extra attribute.
		s := open(t)
		richEmps := value.Rec("Employees", value.NewSet(
			value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1), "Dept", value.String("S"))))
		if err := s.Bind("DB", richEmps, stored); err != nil {
			t.Fatal(err)
		}
		want := types.MustParse("{Employees: Set[{Name: String, Empno: Int, Dept: String}]}")
		if _, err := s.OpenAs("DB", want); err != nil {
			t.Fatalf("consistent element enrichment failed: %v", err)
		}
	})

	t.Run("inconsistent is rejected", func(t *testing.T) {
		s := open(t)
		if err := s.Bind("DB", emps, stored); err != nil {
			t.Fatal(err)
		}
		_, err := s.OpenAs("DB", types.MustParse("{Employees: Int}"))
		if !errors.Is(err, ErrInconsistent) {
			t.Errorf("err = %v, want ErrInconsistent", err)
		}
	})

	t.Run("missing handle", func(t *testing.T) {
		s := open(t)
		if _, err := s.OpenAs("nope", types.Top); !errors.Is(err, ErrNoRoot) {
			t.Errorf("err = %v, want ErrNoRoot", err)
		}
	})
}

func TestDynamicsPersist(t *testing.T) {
	s := open(t)
	d, err := dynamic.MakeAt(value.Rec("Name", value.String("J"), "Empno", value.Int(1)),
		types.MustParse("{Name: String}"))
	if err != nil {
		t.Fatal(err)
	}
	lst := value.NewList(d)
	if err := s.Bind("db", lst, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	root, _ := s2.Root("db")
	got := root.Value.(*value.List).Elems[0].(*dynamic.Dynamic)
	if !types.Equal(got.Type(), types.MustParse("{Name: String}")) {
		t.Errorf("dynamic declared type = %s", got.Type())
	}
	if _, ok := got.Value().(*value.Record).Get("Empno"); !ok {
		t.Error("dynamic payload lost structure")
	}
}

// TestDynamicSeesEnclosingRecordOnReopen: a persisted dynamic whose value
// refers back to the record around it reopens, its check reading that
// record as materialized so far: outer = {A = 1, D = dynamic({X = outer} :
// {X: {A: Int}})}.
func TestDynamicSeesEnclosingRecordOnReopen(t *testing.T) {
	s := open(t)
	outer := value.Rec("A", value.Int(1))
	inner, err := dynamic.MakeAt(value.Rec("X", outer), types.MustParse("{X: {A: Int}}"))
	if err != nil {
		t.Fatal(err)
	}
	outer.Set("D", inner)
	if err := s.Bind("outer", outer, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	root, _ := reopen(t, s).Root("outer")
	r := root.Value.(*value.Record)
	if x := r.MustGet("D").(*dynamic.Dynamic).Value().(*value.Record).MustGet("X"); x != r {
		t.Errorf("reopened %v, want the cycle back to the outer record", r)
	}
}

func TestNamesAndUnbind(t *testing.T) {
	s := open(t)
	_ = s.Bind("b", value.Int(1), nil)
	_ = s.Bind("a", value.Int(2), nil)
	if names := s.Names(); len(names) != 2 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	if !s.Unbind("a") || s.Unbind("a") {
		t.Error("Unbind misbehaves")
	}
}

func TestRebindOverwrites(t *testing.T) {
	s := open(t)
	_ = s.Bind("x", value.Int(1), nil)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	_ = s.Bind("x", value.Rec("K", value.Int(2)), nil)
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	root, _ := s2.Root("x")
	if root.Value.Kind() != value.KindRecord {
		t.Errorf("rebind lost: %s", root.Value)
	}
}

func TestSetsWithContainersPersist(t *testing.T) {
	s := open(t)
	set := value.NewSet(
		value.Rec("Name", value.String("A")),
		value.Rec("Name", value.String("B")),
	)
	if err := s.Bind("s", set, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s)
	root, _ := s2.Root("s")
	got := root.Value.(*value.Set)
	if got.Len() != 2 || !got.Contains(value.Rec("Name", value.String("A"))) {
		t.Errorf("set round trip = %s", got)
	}
}
