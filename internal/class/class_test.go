package class

import (
	"errors"
	"testing"

	"dbpl/internal/core"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// declarePersonnel builds the paper's running schema:
//
//	VARIABLE_CLASS EMPLOYEE isa PERSON with Empno, Dept.
func declarePersonnel(t *testing.T) (*Schema, *Class, *Class) {
	t.Helper()
	s := NewSchema()
	person := s.MustDeclare("Person", VariableClass, "{Name: String}")
	employee := s.MustDeclare("Employee", VariableClass,
		"{Name: String, Empno: Int, Dept: String}", "Person")
	return s, person, employee
}

func TestDeclareChecksSubtyping(t *testing.T) {
	s, _, _ := declarePersonnel(t)
	// A declared subclass whose type is not a structural subtype is
	// rejected: the isa declaration cannot contradict the types.
	_, err := s.Declare("Robot", VariableClass, types.MustParse("{Serial: Int}"), "Person")
	if !errors.Is(err, ErrNotSubtype) {
		t.Errorf("err = %v, want ErrNotSubtype", err)
	}
	// Unknown superclass.
	_, err = s.Declare("X", VariableClass, types.MustParse("{Name: String}"), "Nobody")
	if !errors.Is(err, ErrUnknownClass) {
		t.Errorf("err = %v, want ErrUnknownClass", err)
	}
	// Duplicate declaration.
	_, err = s.Declare("Person", VariableClass, types.MustParse("{Name: String}"))
	if !errors.Is(err, ErrDuplicateClass) {
		t.Errorf("err = %v, want ErrDuplicateClass", err)
	}
}

func TestAdaplexExtentInclusion(t *testing.T) {
	// "creating an instance of Employee will also create a new instance of
	// Person".
	s, person, employee := declarePersonnel(t)
	if _, err := s.NewObject(person, value.Rec("Name", value.String("P1"))); err != nil {
		t.Fatal(err)
	}
	for i, n := range []string{"E1", "E2"} {
		_, err := s.NewObject(employee, value.Rec(
			"Name", value.String(n), "Empno", value.Int(int64(i)), "Dept", value.String("Sales")))
		if err != nil {
			t.Fatal(err)
		}
	}
	pe, _ := person.Extent()
	ee, _ := employee.Extent()
	if len(pe) != 3 || len(ee) != 2 {
		t.Errorf("extents: Person %d (want 3), Employee %d (want 2)", len(pe), len(ee))
	}
	// Employee extent ⊆ Person extent, by identity.
	in := map[*Object]bool{}
	for _, o := range pe {
		in[o] = true
	}
	for _, o := range ee {
		if !in[o] {
			t.Error("employee instance missing from Person extent")
		}
	}
}

func TestNewObjectConformance(t *testing.T) {
	s, _, employee := declarePersonnel(t)
	_, err := s.NewObject(employee, value.Rec("Name", value.String("E")))
	if !errors.Is(err, ErrNotConforming) {
		t.Errorf("err = %v, want ErrNotConforming", err)
	}
}

func TestAggregateClassHasNoExtent(t *testing.T) {
	s := NewSchema()
	addr := s.MustDeclare("Address", AggregateClass, "{City: String}")
	if _, err := addr.Extent(); !errors.Is(err, ErrNoExtent) {
		t.Errorf("Extent err = %v, want ErrNoExtent", err)
	}
	if _, err := s.NewObject(addr, value.Rec("City", value.String("Austin"))); !errors.Is(err, ErrNoExtent) {
		t.Errorf("NewObject err = %v, want ErrNoExtent", err)
	}
	if addr.Kind().String() != "AGGREGATE_CLASS" {
		t.Error("kind string")
	}
}

func TestSpecializePreservesIdentity(t *testing.T) {
	s, person, employee := declarePersonnel(t)
	o, err := s.NewObject(person, value.Rec("Name", value.String("J Doe")))
	if err != nil {
		t.Fatal(err)
	}
	ref := o.Record() // a reference held elsewhere

	err = s.Specialize(o, employee, value.Rec("Empno", value.Int(1234), "Dept", value.String("Sales")))
	if err != nil {
		t.Fatal(err)
	}
	if o.Class() != employee {
		t.Error("object should now be an Employee")
	}
	if v, ok := ref.Get("Empno"); !ok || !value.Equal(v, value.Int(1234)) {
		t.Error("reference does not observe the extension — identity lost")
	}
	// It joined the Employee extent and stayed in Person's (exactly once).
	ee, _ := employee.Extent()
	if len(ee) != 1 || ee[0] != o {
		t.Errorf("employee extent = %v", ee)
	}
	pe, _ := person.Extent()
	count := 0
	for _, m := range pe {
		if m == o {
			count++
		}
	}
	if count != 1 {
		t.Errorf("object appears %d times in Person extent, want 1", count)
	}
}

func TestSpecializeRejectsBadMoves(t *testing.T) {
	s, person, employee := declarePersonnel(t)
	student := s.MustDeclare("Student", VariableClass, "{Name: String, StudentID: Int}", "Person")
	o, _ := s.NewObject(employee, value.Rec(
		"Name", value.String("E"), "Empno", value.Int(1), "Dept", value.String("S")))

	// Student is not a subclass of Employee: sideways moves are rejected.
	if err := s.Specialize(o, student, value.Rec("StudentID", value.Int(7))); !errors.Is(err, ErrNotSubclass) {
		t.Errorf("err = %v, want ErrNotSubclass", err)
	}
	// Upwards moves are rejected too.
	if err := s.Specialize(o, person, value.NewRecord()); !errors.Is(err, ErrNotSubclass) {
		t.Errorf("err = %v, want ErrNotSubclass", err)
	}
	// Conflicting extra information fails and leaves the object unchanged.
	p, _ := s.NewObject(person, value.Rec("Name", value.String("X")))
	err := s.Specialize(p, employee, value.Rec("Name", value.String("Y"), "Empno", value.Int(1), "Dept", value.String("D")))
	if !errors.Is(err, value.ErrConflict) {
		t.Errorf("err = %v, want a join conflict", err)
	}
	if _, ok := p.Record().Get("Empno"); ok {
		t.Error("failed specialize must not modify the object")
	}
	// Missing required fields.
	q, _ := s.NewObject(person, value.Rec("Name", value.String("Z")))
	if err := s.Specialize(q, employee, value.Rec("Empno", value.Int(2))); !errors.Is(err, ErrNotConforming) {
		t.Errorf("err = %v, want ErrNotConforming", err)
	}
}

func TestDelete(t *testing.T) {
	s, person, employee := declarePersonnel(t)
	o, _ := s.NewObject(employee, value.Rec(
		"Name", value.String("E"), "Empno", value.Int(1), "Dept", value.String("S")))
	if !s.Delete(o) {
		t.Fatal("Delete reported failure")
	}
	if s.Delete(o) {
		t.Error("second Delete should fail")
	}
	pe, _ := person.Extent()
	ee, _ := employee.Extent()
	if len(pe) != 0 || len(ee) != 0 {
		t.Error("deleted object still in extents")
	}
}

func TestDiamondHierarchy(t *testing.T) {
	s, person, employee := declarePersonnel(t)
	student := s.MustDeclare("Student", VariableClass, "{Name: String, StudentID: Int}", "Person")
	both := s.MustDeclare("StudentEmployee", VariableClass,
		"{Name: String, Empno: Int, Dept: String, StudentID: Int}", "Employee", "Student")
	o, err := s.NewObject(both, value.Rec(
		"Name", value.String("SE"), "Empno", value.Int(1),
		"Dept", value.String("S"), "StudentID", value.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	// The object appears exactly once in each extent, including the shared
	// apex of the diamond.
	for _, c := range []*Class{both, employee, student, person} {
		e, _ := c.Extent()
		n := 0
		for _, m := range e {
			if m == o {
				n++
			}
		}
		if n != 1 {
			t.Errorf("object appears %d times in %s extent, want 1", n, c.Name())
		}
	}
	if !both.IsSubclassOf(person) || both.IsSubclassOf(s.MustDeclare("Other", VariableClass, "{}")) {
		t.Error("IsSubclassOf misbehaves")
	}
}

func TestClassExtentsMatchDerivedExtents(t *testing.T) {
	// E9: the class-based extents (explicit hierarchy) coincide with the
	// extents derived from the type hierarchy by the generic Get.
	s, person, employee := declarePersonnel(t)
	db := core.New(core.StrategyScan)

	mk := func(c *Class, rec *value.Record) {
		if _, err := s.NewObject(c, rec); err != nil {
			t.Fatal(err)
		}
		db.InsertValue(rec)
	}
	mk(person, value.Rec("Name", value.String("P1")))
	mk(employee, value.Rec("Name", value.String("E1"), "Empno", value.Int(1), "Dept", value.String("S")))
	mk(employee, value.Rec("Name", value.String("E2"), "Empno", value.Int(2), "Dept", value.String("M")))

	for _, c := range []*Class{person, employee} {
		ext, _ := c.Extent()
		got := db.Get(c.Type())
		if len(got) != len(ext) {
			t.Errorf("%s: derived %d, class extent %d", c.Name(), len(got), len(ext))
		}
	}
}

func TestParkingLotInstanceHierarchy(t *testing.T) {
	// "a given car is an instance of a make-and-model type" — length lives
	// on the make-and-model, and AttrOf ascends one level to find it.
	s := NewSchema()
	mm, err := s.DeclareMeta("MakeModel", types.MustParse("{Make: String, Length: Int}"))
	if err != nil {
		t.Fatal(err)
	}
	nova, err := s.DeclareInstanceOf(mm, "ChevvyNova", VariableClass,
		types.MustParse("{Tag: String}"),
		value.Rec("Make", value.String("Chevrolet"), "Length", value.Int(183)))
	if err != nil {
		t.Fatal(err)
	}
	car, err := s.NewObject(nova, value.Rec("Tag", value.String("PA-1234")))
	if err != nil {
		t.Fatal(err)
	}

	if v, ok := AttrOf(car, "Tag"); !ok || !value.Equal(v, value.String("PA-1234")) {
		t.Error("object-level attribute lookup failed")
	}
	if v, ok := AttrOf(car, "Length"); !ok || !value.Equal(v, value.Int(183)) {
		t.Error("class-level attribute lookup (the instance-hierarchy ascent) failed")
	}
	if _, ok := AttrOf(car, "TopSpeed"); ok {
		t.Error("absent attribute should not resolve")
	}
	if m, ok := nova.Meta(); !ok || m != mm {
		t.Error("Meta link broken")
	}
	if insts := mm.ClassInstances(); len(insts) != 1 || insts[0] != nova {
		t.Error("ClassInstances broken")
	}
	// Declaring an instance class with non-conforming attributes fails.
	_, err = s.DeclareInstanceOf(mm, "Edsel", VariableClass,
		types.MustParse("{Tag: String}"), value.Rec("Make", value.String("Ford")))
	if !errors.Is(err, ErrMetaConformance) {
		t.Errorf("err = %v, want ErrMetaConformance", err)
	}
}

func TestProductsLevelShift(t *testing.T) {
	// Products above a price are individuals; below it they are classes
	// with weight and number-in-stock as class properties.
	s := NewSchema()
	cheapMeta, err := s.DeclareMeta("CheapProduct", types.MustParse("{Weight: Float, NumberInStock: Int}"))
	if err != nil {
		t.Fatal(err)
	}
	washer, err := s.DeclareInstanceOf(cheapMeta, "Washer10mm", VariableClass,
		types.MustParse("{}"),
		value.Rec("Weight", value.Float(0.01), "NumberInStock", value.Int(12000)))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := washer.ClassAttr("NumberInStock"); !ok || !value.Equal(v, value.Int(12000)) {
		t.Error("class-level stock count missing")
	}

	expensive := s.MustDeclare("ExpensiveProduct", VariableClass,
		"{Serial: Int, Weight: Float, CompletionDate: String}")
	turbine, err := s.NewObject(expensive, value.Rec(
		"Serial", value.Int(77), "Weight", value.Float(1200),
		"CompletionDate", value.String("1986-05-28")))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := AttrOf(turbine, "Weight"); !ok || !value.Equal(v, value.Float(1200)) {
		t.Error("individual product weight lives on the object")
	}
}

func TestSchemaLookup(t *testing.T) {
	s, _, _ := declarePersonnel(t)
	if _, ok := s.Lookup("Person"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := s.Lookup("Nobody"); ok {
		t.Error("Lookup of absent class should fail")
	}
}
