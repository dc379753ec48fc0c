package dbpl_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dbpl"
	"dbpl/internal/relation"
)

// ExampleDatabase_Get shows the paper's headline: extents derived from the
// type hierarchy by one generic function, with no class declarations.
func ExampleDatabase_Get() {
	person := dbpl.MustParseType("{Name: String}")
	employee := dbpl.MustParseType("{Name: String, Empno: Int}")

	db := dbpl.NewDatabase(dbpl.StrategyScan)
	db.InsertValue(dbpl.Rec("Name", dbpl.Str("P1")))
	db.InsertValue(dbpl.Rec("Name", dbpl.Str("E1"), "Empno", dbpl.IntV(1)))
	db.InsertValue(dbpl.IntV(42)) // databases are unconstrained

	fmt.Println("persons:", len(db.Get(person)))
	fmt.Println("employees:", len(db.Get(employee)))
	// Output:
	// persons: 2
	// employees: 1
}

// ExampleJoinValues shows object-level inheritance: turning a Person into
// an Employee by adding information.
func ExampleJoinValues() {
	person := dbpl.Rec("Name", dbpl.Str("J Doe"))
	extra := dbpl.Rec("Emp_no", dbpl.IntV(1234))
	emp, _ := dbpl.JoinValues(person, extra)
	fmt.Println(emp)
	// Output:
	// {Emp_no = 1234, Name = 'J Doe'}
}

// ExampleJoinRelations reproduces the shape of the paper's Figure 1 in
// miniature.
func ExampleJoinRelations() {
	people := dbpl.NewRelation(
		dbpl.Rec("Name", dbpl.Str("J Doe"), "Dept", dbpl.Str("Sales")),
		dbpl.Rec("Name", dbpl.Str("N Bug")),
	)
	depts := dbpl.NewRelation(
		dbpl.Rec("Dept", dbpl.Str("Sales"), "Floor", dbpl.IntV(3)),
	)
	fmt.Println(dbpl.JoinRelations(people, depts).Len())
	// Output:
	// 2
}

func ExampleInterp() {
	in := dbpl.NewInterp(nil)
	rs, err := in.Run(`
		type Person = {Name: String};
		let db: List[Dynamic] = [
			dynamic {Name = "P1"},
			dynamic {Name = "E1", Empno = 1}
		];
		length(get[Person](db))
	`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rs[len(rs)-1].Value)
	// Output:
	// 2
}

func TestFacadeTypeOps(t *testing.T) {
	emp := dbpl.MustParseType("{Name: String, Empno: Int}")
	per := dbpl.MustParseType("{Name: String}")
	if !dbpl.Subtype(emp, per) || dbpl.Subtype(per, emp) {
		t.Error("facade Subtype broken")
	}
	if !dbpl.EqualTypes(per, dbpl.MustParseType("{Name: String}")) {
		t.Error("facade EqualTypes broken")
	}
	j := dbpl.JoinTypes(emp, dbpl.MustParseType("{Name: String, Dept: String}"))
	if !dbpl.EqualTypes(j, per) {
		t.Errorf("JoinTypes = %s", j)
	}
	m, ok := dbpl.MeetTypes(emp, dbpl.MustParseType("{Dept: String}"))
	if !ok || !dbpl.Subtype(m, emp) {
		t.Errorf("MeetTypes = %s, %v", m, ok)
	}
	if !dbpl.Consistent(emp, per) || dbpl.Consistent(dbpl.Int, dbpl.String) {
		t.Error("Consistent broken")
	}
	if _, err := dbpl.ParseType("{{{"); err == nil {
		t.Error("ParseType should propagate errors")
	}
}

func TestFacadeValuesAndDynamics(t *testing.T) {
	v := dbpl.Rec("Name", dbpl.Str("J"), "Age", dbpl.IntV(30))
	if !dbpl.Conforms(v, dbpl.MustParseType("{Name: String}")) {
		t.Error("Conforms broken")
	}
	if !dbpl.Leq(dbpl.Rec("Name", dbpl.Str("J")), v) {
		t.Error("Leq broken")
	}
	d := dbpl.MakeDynamic(v)
	got, err := d.Coerce(dbpl.MustParseType("{Age: Int}"))
	if err != nil || !dbpl.EqualValues(got, v) {
		t.Errorf("dynamic round trip: %v, %v", got, err)
	}
	if _, err := dbpl.MakeDynamicAt(dbpl.IntV(1), dbpl.String); err == nil {
		t.Error("MakeDynamicAt should check conformance")
	}
	if dbpl.TypeOf(dbpl.NewList(dbpl.IntV(1))).String() != "List[Int]" {
		t.Error("TypeOf broken")
	}
	if dbpl.NewSet(dbpl.IntV(1), dbpl.IntV(1)).Len() != 1 {
		t.Error("NewSet broken")
	}
	if !dbpl.EqualValues(dbpl.FloatV(1.5), dbpl.FloatV(1.5)) || !dbpl.EqualValues(dbpl.BoolV(true), dbpl.BoolV(true)) {
		t.Error("atom constructors broken")
	}
}

func TestFacadeRelationsAndFDs(t *testing.T) {
	r := dbpl.NewKeyedRelation("Name")
	if _, err := r.Insert(dbpl.Rec("Name", dbpl.Str("J"))); err != nil {
		t.Fatal(err)
	}
	p := dbpl.Project(dbpl.NewRelation(
		dbpl.Rec("A", dbpl.IntV(1), "B", dbpl.IntV(2))), "A")
	if p.Len() != 1 {
		t.Error("Project broken")
	}
	e := dbpl.ExtractByType(dbpl.NewRelation(
		dbpl.Rec("Name", dbpl.Str("x")), dbpl.Rec("K", dbpl.IntV(1))),
		dbpl.MustParseType("{Name: String}"))
	if e.Len() != 1 {
		t.Error("ExtractByType broken")
	}
	f := dbpl.NewFlat("A", "B")
	if err := f.Insert(dbpl.Rec("A", dbpl.IntV(1), "B", dbpl.IntV(2))); err != nil {
		t.Fatal(err)
	}
	if !dbpl.FDImplies([]dbpl.FD{dbpl.Dep("A", "B"), dbpl.Dep("B", "C")}, dbpl.Dep("A", "C")) {
		t.Error("FDImplies broken")
	}
}

func TestFacadeClasses(t *testing.T) {
	s := dbpl.NewSchema()
	person := s.MustDeclare("Person", dbpl.VariableClass, "{Name: String}")
	emp := s.MustDeclare("Employee", dbpl.VariableClass, "{Name: String, Empno: Int}", "Person")
	if _, err := s.NewObject(emp, dbpl.Rec("Name", dbpl.Str("E"), "Empno", dbpl.IntV(1))); err != nil {
		t.Fatal(err)
	}
	pe, err := person.Extent()
	if err != nil || len(pe) != 1 {
		t.Errorf("extent inclusion broken: %v, %v", pe, err)
	}
}

func TestFacadePersistence(t *testing.T) {
	dir := t.TempDir()
	st, err := dbpl.OpenStore(filepath.Join(dir, "s.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Bind("x", dbpl.Rec("K", dbpl.IntV(1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	rep, err := dbpl.OpenReplicating(filepath.Join(dir, "rep"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ExternValue("h", dbpl.IntV(7)); err != nil {
		t.Fatal(err)
	}
	if v, err := rep.InternAs("h", dbpl.Int); err != nil || !dbpl.EqualValues(v, dbpl.IntV(7)) {
		t.Errorf("replicating round trip: %v, %v", v, err)
	}
	env := dbpl.NewEnvironment()
	env.Bind("a", dbpl.IntV(1))
	var buf bytes.Buffer
	if err := dbpl.SaveEnvironment(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := dbpl.ResumeEnvironment(&buf)
	if err != nil || got.Len() != 1 {
		t.Errorf("snapshot round trip: %v", err)
	}
}

func TestFacadeJoinFastAndGroupBy(t *testing.T) {
	people := dbpl.NewRelation(
		dbpl.Rec("Name", dbpl.Str("J"), "Dept", dbpl.Str("S")),
		dbpl.Rec("Name", dbpl.Str("M"), "Dept", dbpl.Str("S")),
	)
	depts := dbpl.NewRelation(dbpl.Rec("Dept", dbpl.Str("S"), "Floor", dbpl.IntV(3)))
	fast := dbpl.JoinRelations(people, depts)
	if !relation.Equal(fast, relation.JoinPlanned(people, depts, relation.JoinPlan{})) {
		t.Errorf("facade join %s differs from the nested loop's", fast)
	}
	g, err := dbpl.GroupBy(fast, []string{"Dept"}, dbpl.CountAll("N"), dbpl.Sum("F", "Floor"),
		dbpl.Min("Lo", "Floor"), dbpl.Max("Hi", "Floor"), dbpl.Count("K", "Floor"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("GroupBy = %s", g)
	}
}

func TestFacadeGetTypeSignature(t *testing.T) {
	want := dbpl.MustParseType("forall t . List[Dynamic] -> List[exists u <= t . u]")
	if !dbpl.EqualTypes(dbpl.GetType, want) {
		t.Errorf("GetType = %s", dbpl.GetType)
	}
}
