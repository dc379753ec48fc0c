package replicating

import (
	"errors"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExternInternRoundTrip(t *testing.T) {
	// The paper's Amber fragment: extern('DBFile', dynamic d) then
	// coerce (intern 'DBFile') to database.
	s := open(t)
	dbType := types.MustParse("{Employees: Set[{Name: String}]}")
	db := value.Rec("Employees", value.NewSet(value.Rec("Name", value.String("J Doe"))))

	d, err := dynamic.MakeAt(db, dbType)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extern("DBFile", d); err != nil {
		t.Fatal(err)
	}
	got, err := s.InternAs("DBFile", dbType)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, db) {
		t.Errorf("interned value = %s", got)
	}
}

func TestCoerceGuardsType(t *testing.T) {
	// Principle P2 in action: reading the structure back at the wrong type
	// fails instead of silently misinterpreting it.
	s := open(t)
	if err := s.ExternValue("DBFile", value.Int(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InternAs("DBFile", types.String); err == nil {
		t.Error("coerce to the wrong type must fail")
	}
	if v, err := s.InternAs("DBFile", types.Int); err != nil || !value.Equal(v, value.Int(3)) {
		t.Errorf("coerce to Int = %v, %v", v, err)
	}
}

func TestUpdateAnomalyLostModification(t *testing.T) {
	// The paper's program:
	//	var x = intern 'DBFile'
	//	-- code that modifies x
	//	x = intern 'DBFile'
	// "the modifications to x will not survive the second intern".
	s := open(t)
	if err := s.ExternValue("DBFile", value.Rec("Count", value.Int(0))); err != nil {
		t.Fatal(err)
	}
	x, err := s.Intern("DBFile")
	if err != nil {
		t.Fatal(err)
	}
	x.Value().(*value.Record).Set("Count", value.Int(99)) // modify the copy

	x2, err := s.Intern("DBFile")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := x2.Value().(*value.Record).Get("Count"); !value.Equal(v, value.Int(0)) {
		t.Errorf("modification survived without re-extern: Count = %s", v)
	}
}

func TestTwoInternsDoNotShare(t *testing.T) {
	s := open(t)
	if err := s.ExternValue("H", value.Rec("K", value.Int(1))); err != nil {
		t.Fatal(err)
	}
	a, _ := s.Intern("H")
	b, _ := s.Intern("H")
	a.Value().(*value.Record).Set("K", value.Int(2))
	if v, _ := b.Value().(*value.Record).Get("K"); !value.Equal(v, value.Int(1)) {
		t.Error("two interns must be independent replicas")
	}
}

func TestSharedValueSplitsAcrossHandles(t *testing.T) {
	// "if values a and b both refer to a third value c then any change made
	// to c through a handle for a will not be visible from a handle for b,
	// since these two handles will refer to distinct copies of c."
	s := open(t)
	c := value.Rec("Balance", value.Int(100))
	a := value.Rec("Ref", c)
	b := value.Rec("Ref", c)
	if err := s.ExternValue("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.ExternValue("b", b); err != nil {
		t.Fatal(err)
	}

	// Update c through handle a and re-extern a.
	ia, _ := s.Intern("a")
	ia.Value().(*value.Record).MustGet("Ref").(*value.Record).Set("Balance", value.Int(0))
	if err := s.Extern("a", ia); err != nil {
		t.Fatal(err)
	}

	// The copy of c under handle b is unchanged: the update anomaly.
	ib, _ := s.Intern("b")
	bal, _ := ib.Value().(*value.Record).MustGet("Ref").(*value.Record).Get("Balance")
	if !value.Equal(bal, value.Int(100)) {
		t.Errorf("b's copy of c changed: %s — replicas should be distinct", bal)
	}
}

func TestWastedStorage(t *testing.T) {
	// The two handles above each store their own copy of c: combined they
	// use roughly double the space of the shared structure.
	s := open(t)
	c := value.NewList()
	for i := 0; i < 200; i++ {
		c.Append(value.Int(int64(i)))
	}
	if err := s.ExternValue("a", value.Rec("Ref", c)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExternValue("b", value.Rec("Ref", c)); err != nil {
		t.Fatal(err)
	}
	sa, _ := s.Size("a")
	sb, _ := s.Size("b")
	// Within one handle, sharing IS preserved: a single record referring to
	// c twice is barely bigger than referring once.
	if err := s.ExternValue("both", value.Rec("R1", c, "R2", c)); err != nil {
		t.Fatal(err)
	}
	sBoth, _ := s.Size("both")
	if sBoth > sa+sb/4 {
		t.Errorf("intra-handle sharing lost: both=%d, a=%d", sBoth, sa)
	}
	if sa+sb < 2*sBoth-64 {
		t.Errorf("expected duplicated storage across handles: a+b=%d, both=%d", sa+sb, sBoth)
	}
}

func TestHandlesAndRemove(t *testing.T) {
	s := open(t)
	_ = s.ExternValue("b", value.Int(1))
	_ = s.ExternValue("a", value.Int(2))
	hs, err := s.Handles()
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 || hs[0] != "a" || hs[1] != "b" {
		t.Errorf("Handles = %v", hs)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("a"); !errors.Is(err, ErrNoHandle) {
		t.Errorf("double remove err = %v", err)
	}
	if _, err := s.Intern("a"); !errors.Is(err, ErrNoHandle) {
		t.Errorf("intern of removed handle err = %v", err)
	}
}

func TestBadHandleNames(t *testing.T) {
	s := open(t)
	for _, h := range []string{"", ".", "..", "a/b", `a\b`} {
		if err := s.ExternValue(h, value.Int(1)); !errors.Is(err, ErrHandle) {
			t.Errorf("Extern(%q) err = %v, want ErrHandle", h, err)
		}
		if _, err := s.Intern(h); !errors.Is(err, ErrHandle) {
			t.Errorf("Intern(%q) err = %v, want ErrHandle", h, err)
		}
	}
}

func TestExternReplaces(t *testing.T) {
	s := open(t)
	_ = s.ExternValue("h", value.Int(1))
	_ = s.ExternValue("h", value.Int(2))
	v, err := s.InternAs("h", types.Int)
	if err != nil || !value.Equal(v, value.Int(2)) {
		t.Errorf("after replace: %v, %v", v, err)
	}
}

func TestExternClosureReachability(t *testing.T) {
	// "when a dynamic value is externed, it carries with it everything that
	// is reachable from that value".
	s := open(t)
	inner := value.Rec("Deep", value.Rec("Deeper", value.Int(7)))
	if err := s.ExternValue("h", value.Rec("Outer", inner)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Intern("h")
	if err != nil {
		t.Fatal(err)
	}
	deep := got.Value().(*value.Record).MustGet("Outer").(*value.Record).
		MustGet("Deep").(*value.Record)
	if v, _ := deep.Get("Deeper"); !value.Equal(v, value.Int(7)) {
		t.Error("reachable structure lost")
	}
}

func TestExternInternCycleBesideSet(t *testing.T) {
	// A record cycle next to a set, in the same value and inside a set's
	// dynamic element, interns back with its cycles and sets intact.
	s := open(t)
	db := value.NewRecord()
	db.Set("Self", db)
	db.Set("Tags", value.NewSet(value.String("a"), value.String("b")))
	db.Set("Wrapped", value.NewSet(dynamic.Make(db)))
	if err := s.ExternValue("h", db); err != nil {
		t.Fatal(err)
	}
	got, err := s.Intern("h")
	if err != nil {
		t.Fatal(err)
	}
	r := got.Value().(*value.Record)
	if r.MustGet("Self") != r {
		t.Error("the record cycle did not survive")
	}
	if n := r.MustGet("Tags").(*value.Set).Len(); n != 2 {
		t.Errorf("the set holds %d elements, want 2", n)
	}
	wrapped := r.MustGet("Wrapped").(*value.Set).Elems()
	if len(wrapped) != 1 || wrapped[0].(*dynamic.Dynamic).Value() != r {
		t.Error("the dynamic in the set lost its cycle")
	}
}
