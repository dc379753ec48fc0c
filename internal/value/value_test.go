package value

import (
	"errors"
	"testing"

	"dbpl/internal/types"
)

// Objects from the paper's "Inheritance on Values" section.
func paperObjects() (o1, o2, o3 *Record) {
	o1 = Rec("Name", String("J Doe"), "Address", Rec("City", String("Austin")))
	o2 = Rec("Name", String("J Doe"), "Address", Rec("City", String("Austin")),
		"Emp_no", Int(1234))
	o3 = Rec("Name", String("J Doe"),
		"Address", Rec("City", String("Austin"), "Zip", Int(78759)))
	return
}

func TestPaperOrderingExamples(t *testing.T) {
	o1, o2, o3 := paperObjects()
	// o1 ⊑ o2 (new field added) and o1 ⊑ o3 (existing field better defined).
	if !Leq(o1, o2) {
		t.Error("o1 ⊑ o2 should hold (Emp_no added)")
	}
	if !Leq(o1, o3) {
		t.Error("o1 ⊑ o3 should hold (Address refined)")
	}
	if Leq(o2, o1) || Leq(o3, o1) {
		t.Error("the ordering should be strict")
	}
	if Leq(o2, o3) || Leq(o3, o2) {
		t.Error("o2 and o3 are incomparable")
	}
}

func TestPaperJoinExamples(t *testing.T) {
	// {Name = 'J Doe'} ⊔ {Emp_no = 1234} = {Name = 'J Doe', Emp_no = 1234}
	j, err := Join(Rec("Name", String("J Doe")), Rec("Emp_no", Int(1234)))
	if err != nil {
		t.Fatalf("join failed: %v", err)
	}
	want := Rec("Name", String("J Doe"), "Emp_no", Int(1234))
	if !Equal(j, want) {
		t.Errorf("join = %s, want %s", j, want)
	}

	// o2 ⊔ o3 from the paper.
	_, o2, o3 := paperObjects()
	j, err = Join(o2, o3)
	if err != nil {
		t.Fatalf("o2 ⊔ o3 failed: %v", err)
	}
	want = Rec("Name", String("J Doe"),
		"Address", Rec("City", String("Austin"), "Zip", Int(78759)),
		"Emp_no", Int(1234))
	if !Equal(j, want) {
		t.Errorf("o2 ⊔ o3 = %s, want %s", j, want)
	}
}

func TestPaperJoinConflict(t *testing.T) {
	// "we cannot join o1 with {Name = 'K Smith'}".
	o1, _, _ := paperObjects()
	_, err := Join(o1, Rec("Name", String("K Smith")))
	if !errors.Is(err, ErrConflict) {
		t.Errorf("joining records that disagree on Name: err = %v, want ErrConflict", err)
	}
}

func TestJoinUnitAndBottom(t *testing.T) {
	o1, _, _ := paperObjects()
	j, err := Join(Bottom, o1)
	if err != nil || !Equal(j, o1) {
		t.Errorf("⊥ ⊔ o1 = %v, %v; want o1", j, err)
	}
	j, err = Join(o1, Bottom)
	if err != nil || !Equal(j, o1) {
		t.Errorf("o1 ⊔ ⊥ = %v, %v; want o1", j, err)
	}
}

func TestJoinIsLub(t *testing.T) {
	_, o2, o3 := paperObjects()
	j, err := Join(o2, o3)
	if err != nil {
		t.Fatal(err)
	}
	if !Leq(o2, j) || !Leq(o3, j) {
		t.Error("join is not an upper bound")
	}
}

func TestJoinAtomsAndKinds(t *testing.T) {
	if j, err := Join(Int(3), Int(3)); err != nil || !Equal(j, Int(3)) {
		t.Errorf("3 ⊔ 3 = %v, %v", j, err)
	}
	if _, err := Join(Int(3), Int(4)); !errors.Is(err, ErrConflict) {
		t.Error("3 ⊔ 4 should conflict")
	}
	if _, err := Join(Int(3), Float(3)); !errors.Is(err, ErrConflict) {
		t.Error("Int and Float atoms should conflict")
	}
	if _, err := Join(Int(3), Rec()); !errors.Is(err, ErrConflict) {
		t.Error("atom ⊔ record should conflict")
	}
}

func TestJoinLists(t *testing.T) {
	a := NewList(Rec("A", Int(1)), Rec("B", Int(2)))
	b := NewList(Rec("C", Int(3)), Rec("B", Int(2)))
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewList(Rec("A", Int(1), "C", Int(3)), Rec("B", Int(2)))
	if !Equal(j, want) {
		t.Errorf("list join = %s, want %s", j, want)
	}
	if _, err := Join(a, NewList(Rec("A", Int(1)))); !errors.Is(err, ErrConflict) {
		t.Error("lists of different length should conflict")
	}
}

func TestJoinTags(t *testing.T) {
	a := NewTag("Circle", Rec("R", Int(2)))
	b := NewTag("Circle", Rec("Color", String("red")))
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewTag("Circle", Rec("R", Int(2), "Color", String("red")))
	if !Equal(j, want) {
		t.Errorf("tag join = %s, want %s", j, want)
	}
	if _, err := Join(a, NewTag("Square", Rec())); !errors.Is(err, ErrConflict) {
		t.Error("different tags should conflict")
	}
}

func TestMeet(t *testing.T) {
	_, o2, o3 := paperObjects()
	m := Meet(o2, o3)
	want := Rec("Name", String("J Doe"), "Address", Rec("City", String("Austin")))
	if !Equal(m, want) {
		t.Errorf("o2 ⊓ o3 = %s, want %s", m, want)
	}
	if !Leq(m, o2) || !Leq(m, o3) {
		t.Error("meet is not a lower bound")
	}
	if Meet(Int(1), Int(2)).Kind() != KindBottom {
		t.Error("disagreeing atoms meet at ⊥")
	}
	if !Equal(Meet(Rec("A", Int(1)), Rec("B", Int(2))), Rec()) {
		t.Error("disjoint records meet at the empty record")
	}
}

func TestSetOrdering(t *testing.T) {
	// R ⊑ R' iff every object in R' is above some object in R.
	r := NewSet(Rec("Name", String("J Doe")))
	rp := NewSet(
		Rec("Name", String("J Doe"), "Dept", String("Sales")),
		Rec("Name", String("J Doe"), "Dept", String("Manuf")),
	)
	if !SetLeq(r, rp) {
		t.Error("R ⊑ R' should hold: both R' members refine R's single member")
	}
	if SetLeq(rp, r) {
		t.Error("R' ⊑ R should not hold")
	}
}

func TestSetJoinIsFigureOneShaped(t *testing.T) {
	// A miniature of Figure 1: joining on the shared Dept field.
	people := NewSet(
		Rec("Name", String("J Doe"), "Dept", String("Sales")),
		Rec("Name", String("N Bug")),
	)
	depts := NewSet(
		Rec("Dept", String("Sales"), "Floor", Int(3)),
		Rec("Dept", String("Admin"), "Floor", Int(1)),
	)
	j := SetJoin(people, depts)
	want := NewSet(
		Rec("Name", String("J Doe"), "Dept", String("Sales"), "Floor", Int(3)),
		Rec("Name", String("N Bug"), "Dept", String("Sales"), "Floor", Int(3)),
		Rec("Name", String("N Bug"), "Dept", String("Admin"), "Floor", Int(1)),
	)
	if !Equal(j, want) {
		t.Errorf("set join = %s, want %s", j, want)
	}
	// The result is an upper bound of both inputs.
	if !SetLeq(people, j) || !SetLeq(depts, j) {
		t.Error("set join is not an upper bound under the relation ordering")
	}
}

func TestMaximal(t *testing.T) {
	a := Rec("Name", String("J Doe"))
	b := Rec("Name", String("J Doe"), "Dept", String("Sales"))
	c := Rec("Name", String("K Smith"))
	got := Maximal([]Value{a, b, c})
	if len(got) != 2 {
		t.Fatalf("Maximal kept %d elements, want 2", len(got))
	}
	s := NewSet(got...)
	if !s.Contains(b) || !s.Contains(c) {
		t.Errorf("Maximal = %v, want {b, c}", s)
	}
	// Duplicates collapse.
	if got := Maximal([]Value{a, a.Copy()}); len(got) != 1 {
		t.Errorf("duplicates should collapse, got %d", len(got))
	}
	if got := Maximal(nil); got != nil {
		t.Errorf("Maximal(nil) = %v, want nil", got)
	}
}

func TestRecordMutation(t *testing.T) {
	r := Rec("Name", String("J Doe"))
	r.Set("Emp_no", Int(1234))
	if v, ok := r.Get("Emp_no"); !ok || !Equal(v, Int(1234)) {
		t.Error("Set should add the field")
	}
	r.Set("Emp_no", Int(99))
	if v, _ := r.Get("Emp_no"); !Equal(v, Int(99)) {
		t.Error("Set should replace the field")
	}
	if !r.Delete("Emp_no") {
		t.Error("Delete should report removal")
	}
	if _, ok := r.Get("Emp_no"); ok {
		t.Error("field should be gone after Delete")
	}
	if r.Delete("Emp_no") {
		t.Error("second Delete should report absence")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestRecordIdentityPreservedOnExtension(t *testing.T) {
	// The paper's complaint about Amber: extending a record should not
	// require delete-and-readd, which breaks references. Our records extend
	// in place.
	person := Rec("Name", String("J Doe"))
	holder := NewList(person) // a reference elsewhere in the database
	person.Set("Emp_no", Int(1234))
	got := holder.Elems[0].(*Record)
	if _, ok := got.Get("Emp_no"); !ok {
		t.Error("reference should observe the extension")
	}
	if got != person {
		t.Error("identity should be preserved")
	}
}

func TestSetSemantics(t *testing.T) {
	s := NewSet()
	if !s.Add(Rec("A", Int(1))) {
		t.Error("first add should change the set")
	}
	if s.Add(Rec("A", Int(1))) {
		t.Error("duplicate add should not change the set")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Contains(Rec("A", Int(1))) {
		t.Error("Contains should use structural equality")
	}
	if !s.Remove(Rec("A", Int(1))) {
		t.Error("Remove should find the structural match")
	}
	if s.Len() != 0 || s.Contains(Rec("A", Int(1))) {
		t.Error("set should be empty after removal")
	}
	// Removal keeps the key index consistent.
	s = NewSet(Int(1), Int(2), Int(3))
	s.Remove(Int(1))
	if !s.Contains(Int(3)) || !s.Contains(Int(2)) || s.Contains(Int(1)) {
		t.Error("index corrupted by removal")
	}
}

func TestCopyIsDeep(t *testing.T) {
	o1, _, _ := paperObjects()
	cp := Copy(o1).(*Record)
	addr := o1.MustGet("Address").(*Record)
	addr.Set("Zip", Int(78759))
	cpAddr := cp.MustGet("Address").(*Record)
	if _, ok := cpAddr.Get("Zip"); ok {
		t.Error("copy shares nested structure with the original")
	}
}

func TestKeyAndEqual(t *testing.T) {
	// Field insertion order must not matter.
	a := Rec("A", Int(1), "B", Int(2))
	b := Rec("B", Int(2), "A", Int(1))
	if !Equal(a, b) {
		t.Error("records with same fields should be equal")
	}
	// Set element order must not matter.
	s1 := NewSet(Int(1), Int(2))
	s2 := NewSet(Int(2), Int(1))
	if Key(s1) != Key(s2) {
		t.Error("set keys should be order-insensitive")
	}
	// Int vs Float with same numeric value are distinct.
	if Equal(Int(3), Float(3)) {
		t.Error("Int(3) and Float(3) should differ")
	}
	// Key injectivity smoke cases (shapes that could collide naively).
	if Key(NewList()) == Key(NewSet()) {
		t.Error("empty list and empty set should have distinct keys")
	}
	if Key(String("12")) == Key(String("1")+"2") {
		// identical content should collide — sanity check the test itself
	} else {
		t.Error("equal strings must share a key")
	}
	if Key(Rec("A", String("B=C"))) == Key(Rec("A", String("B"), "C", String(""))) {
		t.Error("keys must not be confusable by separator injection")
	}
}

func TestTypeOf(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(3), "Int"},
		{Float(3.5), "Float"},
		{String("x"), "String"},
		{Bool(true), "Bool"},
		{Unit, "Unit"},
		{Bottom, "Bottom"},
		{Rec("Name", String("J Doe"), "Age", Int(30)), "{Age: Int, Name: String}"},
		{NewList(Int(1), Int(2)), "List[Int]"},
		{NewList(), "List[Bottom]"},
		{NewList(Int(1), Float(2)), "List[Float]"},
		{NewSet(Rec("A", Int(1)), Rec("A", Int(2), "B", Int(3))), "Set[{A: Int}]"},
		{NewTag("Circle", Float(1)), "[Circle: Float]"},
		{NewTypeVal(types.Int), "Type"},
	}
	for _, c := range cases {
		got := TypeOf(c.v)
		if !types.Equal(got, types.MustParse(c.want)) {
			t.Errorf("TypeOf(%s) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestConformsSubsumption(t *testing.T) {
	emp := Rec("Name", String("J Doe"), "Empno", Int(1), "Dept", String("Sales"))
	person := types.MustParse("{Name: String}")
	employee := types.MustParse("{Name: String, Empno: Int, Dept: String}")
	if !Conforms(emp, employee) {
		t.Error("employee value should conform to Employee")
	}
	if !Conforms(emp, person) {
		t.Error("employee value should conform to Person by subsumption")
	}
	if Conforms(Rec("Name", String("X")), employee) {
		t.Error("bare person should not conform to Employee")
	}
}

func TestConformsRecursivePartType(t *testing.T) {
	// Finite parts with empty component lists inhabit the recursive Part
	// type because List[Bottom] ≤ List[T] for every T.
	part := types.MustParse("rec p . {Name: String, Components: List[{SubPart: p, Qty: Int}]}")
	base := Rec("Name", String("bolt"), "Components", NewList())
	assembly := Rec("Name", String("frame"),
		"Components", NewList(Rec("SubPart", base, "Qty", Int(8))))
	if !Conforms(base, part) {
		t.Error("base part should conform to Part")
	}
	if !Conforms(assembly, part) {
		t.Error("assembly should conform to Part")
	}
	if Conforms(Rec("Name", String("x")), part) {
		t.Error("record missing Components should not conform")
	}
}

func TestTypeOfCyclicValue(t *testing.T) {
	// A cyclic record must not hang TypeOf.
	r := NewRecord()
	r.Set("Self", r)
	got := TypeOf(r)
	want := types.NewRecord(types.Field{Label: "Self", Type: types.Top})
	if !types.Equal(got, want) {
		t.Errorf("TypeOf(cyclic) = %s, want %s", got, want)
	}

	// Nor a cycle through no record: a list that holds itself, and a set
	// and a tag on a list's cycle.
	l := NewList()
	l.Append(l)
	l2 := NewList()
	l2.Append(NewSet(NewTag("T", l2)))
	for _, c := range []struct {
		v    Value
		want string
	}{
		{l, "List[Top]"},
		{l2, "List[Set[[T: Top]]]"},
	} {
		if got := TypeOf(c.v); !types.Equal(got, types.MustParse(c.want)) {
			t.Errorf("TypeOf(cyclic list) = %s, want %s", got, c.want)
		}
	}
}

func TestTypeOfSharedDag(t *testing.T) {
	shared := Rec("K", Int(1))
	r := Rec("A", shared, "B", shared)
	got := TypeOf(r)
	if !types.Equal(got, types.MustParse("{A: {K: Int}, B: {K: Int}}")) {
		t.Errorf("TypeOf(dag) = %s", got)
	}
}

func TestStringRendering(t *testing.T) {
	o1, _, _ := paperObjects()
	want := "{Address = {City = 'Austin'}, Name = 'J Doe'}"
	if o1.String() != want {
		t.Errorf("String = %q, want %q", o1.String(), want)
	}
	if got := NewSet(Int(2), Int(1)).String(); got != NewSet(Int(1), Int(2)).String() {
		t.Error("set String should be canonical")
	}
}

// TestOrderOnCycles: Leq and Join terminate on cyclic values, past the
// depth at which they start keeping a path. Leq is coinductive: r = {A = 1,
// Self = r} is below s = {A = 1, B = 2, Self = s}. Join ties the knot: r ⊔
// s is {A = 1, B = 2, Self = …} whose Self chain closes a cycle. A
// conflict under the cycle is still found, and deep acyclic values, whose
// path spills past its fixed part, still order and join.
func TestOrderOnCycles(t *testing.T) {
	r := Rec("A", Int(1))
	r.Set("Self", r)
	s := Rec("A", Int(1), "B", Int(2))
	s.Set("Self", s)
	if !Leq(r, s) || Leq(s, r) || !Leq(r, r) {
		t.Errorf("Leq(r, s), Leq(s, r), Leq(r, r) = %v, %v, %v; want true, false, true", Leq(r, s), Leq(s, r), Leq(r, r))
	}
	j, err := Join(r, s)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*Record]bool{}
	for x := j.(*Record); !seen[x]; x = x.MustGet("Self").(*Record) {
		if len(seen) > 4*pathFrom {
			t.Fatal("r ⊔ s does not close its cycle")
		}
		seen[x] = true
		if !Equal(x.MustGet("A"), Int(1)) || !Equal(x.MustGet("B"), Int(2)) {
			t.Fatalf("r ⊔ s holds %s on its Self chain", x.Labels())
		}
	}
	// y agrees with r for two turns, then holds A = 2.
	y := Rec("A", Int(1), "Self", Rec("A", Int(1), "Self", Rec("A", Int(2))))
	if _, err := Join(r, y); !errors.Is(err, ErrConflict) || err.Error() != "field Self: field Self: field A: value: join conflict: 1 vs 2" {
		t.Errorf("r ⊔ y: err = %v, want the conflict at Self.Self.A", err)
	}
	l := NewList(Int(1))
	l.Append(l)
	if jl, err := Join(l, l); err != nil || !Leq(l, jl) {
		t.Errorf("l ⊔ l = (%v, %v), want a list above l", jl != nil, err)
	}
	deep, deeper := Rec("N", Int(0)), Rec("N", Int(0), "M", Int(1))
	for i := 0; i < 3*pathFrom; i++ {
		deep, deeper = Rec("N", deep), Rec("N", deeper)
	}
	if !Leq(deep, deeper) || Leq(deeper, deep) {
		t.Error("a deep acyclic record is not below its deeper copy")
	}
	if jd, err := Join(deep, deeper); err != nil || !Equal(jd, deeper) {
		t.Errorf("deep ⊔ deeper = (%v, %v), want deeper", jd, err)
	}
}

// TestMeetCyclicValues: Meet terminates on cyclic values, as Join does. r1
// = {a = 1, self = r1} and r2 = {a = 1, self = r2} meet at a record whose
// self chain closes a cycle, below both under the coinductive Leq; a cycle
// the two disagree under, and a list holding itself, meet likewise.
func TestMeetCyclicValues(t *testing.T) {
	r1, r2, s := Rec("a", Int(1)), Rec("a", Int(1)), Rec("a", Int(2))
	r1.Set("self", r1)
	r2.Set("self", r2)
	s.Set("self", s)
	m, ok := Meet(r1, r2).(*Record)
	if !ok || !Leq(m, r1) || !Leq(m, r2) {
		t.Fatalf("r1 ⊓ r2 is not a record below both")
	}
	seen := map[*Record]bool{}
	for x := m; !seen[x]; x = x.MustGet("self").(*Record) {
		if len(seen) > 4*pathFrom {
			t.Fatal("r1 ⊓ r2 does not close its cycle")
		}
		seen[x] = true
		if !Equal(x.MustGet("a"), Int(1)) {
			t.Fatalf("r1 ⊓ r2 holds %s on its self chain", x.Labels())
		}
	}
	if ms := Meet(r1, s); !Leq(ms, r1) || !Leq(ms, s) {
		t.Error("r1 ⊓ s is not below both")
	}
	l := NewList(Int(1))
	l.Append(l)
	if ml := Meet(l, l); !Leq(ml, l) {
		t.Error("l ⊓ l is not below l")
	}
}
