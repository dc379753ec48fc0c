package dbpl_test

import (
	"path/filepath"
	"testing"

	"dbpl"
	"dbpl/internal/class"
	"dbpl/internal/core"
	"dbpl/internal/fd"
	"dbpl/internal/relation"
	"dbpl/internal/value"
)

// TestEndToEndSeparation is the thesis of the paper as one test: the same
// objects flow through an intrinsic store (persistence), a heterogeneous
// database with the generic Get (derived extents), a declared class schema
// (the baseline), generalized relations (object-level inheritance) and the
// language — and every view agrees, with type, extent and persistence
// combined à la carte rather than welded into a class construct.
func TestEndToEndSeparation(t *testing.T) {
	dir := t.TempDir()
	personT := dbpl.MustParseType("{Name: String}")
	employeeT := dbpl.MustParseType("{Name: String, Empno: Int, Dept: String}")

	// --- Persistence: build the company, commit, reopen. -----------------
	mk := func(name string, empno int64, dept string) *value.Record {
		r := dbpl.Rec("Name", dbpl.Str(name))
		if dept != "" {
			r.Set("Empno", dbpl.IntV(empno))
			r.Set("Dept", dbpl.Str(dept))
		}
		return r
	}
	people := dbpl.NewList(
		mk("P1", 0, ""),
		mk("E1", 1, "Sales"),
		mk("E2", 2, "Sales"),
		mk("E3", 3, "Manuf"),
	)
	st, err := dbpl.OpenStore(filepath.Join(dir, "company.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Bind("people", people, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := dbpl.OpenStore(filepath.Join(dir, "company.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	root, ok := st2.Root("people")
	if !ok {
		t.Fatal("people lost")
	}
	reopened := root.Value.(*value.List)

	// --- Derived extents over the reopened objects. ----------------------
	db := core.New(core.StrategyIndexed)
	for _, p := range reopened.Elems {
		db.InsertValue(p)
	}
	if got := len(db.Get(personT)); got != 4 {
		t.Errorf("Get[Person] = %d, want 4", got)
	}
	if got := len(db.Get(employeeT)); got != 3 {
		t.Errorf("Get[Employee] = %d, want 3", got)
	}

	// --- The class baseline over the same objects agrees. ----------------
	s := class.NewSchema()
	pc := s.MustDeclare("Person", class.VariableClass, "{Name: String}")
	ec := s.MustDeclare("Employee", class.VariableClass,
		"{Name: String, Empno: Int, Dept: String}", "Person")
	for _, p := range reopened.Elems {
		rec := p.(*value.Record)
		cls := pc
		if _, isEmp := rec.Get("Empno"); isEmp {
			cls = ec
		}
		if _, err := s.NewObject(cls, rec); err != nil {
			t.Fatal(err)
		}
	}
	pe, _ := pc.Extent()
	ee, _ := ec.Extent()
	if len(pe) != len(db.Get(personT)) || len(ee) != len(db.Get(employeeT)) {
		t.Error("declared class extents disagree with derived extents")
	}

	// --- Relational view: join with departments, aggregate, check an FD. -
	emps := relation.New()
	for _, p := range db.GetValues(employeeT) {
		emps.Insert(p)
	}
	depts := relation.New(
		dbpl.Rec("Dept", dbpl.Str("Sales"), "Floor", dbpl.IntV(3)),
		dbpl.Rec("Dept", dbpl.Str("Manuf"), "Floor", dbpl.IntV(1)),
	)
	joined := relation.Join(emps, depts)
	if joined.Len() != 3 {
		t.Errorf("join = %d members, want 3", joined.Len())
	}
	byDept, err := relation.GroupBy(joined, []string{"Dept"}, relation.CountAll("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !byDept.Contains(dbpl.Rec("Dept", dbpl.Str("Sales"), "N", dbpl.IntV(2))) {
		t.Errorf("group-by = %s", byDept)
	}
	if !fd.SatisfiedGen(joined, fd.Dep("Dept", "Floor")) {
		t.Error("Dept → Floor should hold on the joined relation")
	}
	if !fd.SatisfiedGen(joined, fd.Dep("Empno", "Name")) {
		t.Error("Empno → Name should hold")
	}

	// --- The language over the same store: a recompiled program sees the
	// data at a supertype view and queries it with get. -------------------
	in := dbpl.NewInterp(nil)
	in.Intrinsic = st2
	rs, err := in.Run(`
		type Person = {Name: String};
		persistent people : List[Person] = [];
		length(get[Person](map(fun(p: Person): Dynamic is dynamic p, people)))
	`)
	if err != nil {
		t.Fatal(err)
	}
	if !dbpl.EqualValues(rs[len(rs)-1].Value, dbpl.IntV(4)) {
		t.Errorf("language view = %s, want 4", rs[len(rs)-1].Value)
	}

	// --- Transient memo fields set through any view stay out of the store.
	reopened.Elems[1].(*value.Record).Set("_cache", dbpl.IntV(1))
	stats, err := st2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesWritten != 0 {
		t.Errorf("transient-only commit wrote %d nodes", stats.NodesWritten)
	}
}
