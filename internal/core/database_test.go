package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

var (
	personT   = types.MustParse("{Name: String, Address: {City: String}}")
	employeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")
	studentT  = types.MustParse("{Name: String, Address: {City: String}, StudentID: Int}")
)

func person(name, city string) *value.Record {
	return value.Rec("Name", value.String(name),
		"Address", value.Rec("City", value.String(city)))
}

func employee(name, city string, empno int, dept string) *value.Record {
	r := person(name, city)
	r.Set("Empno", value.Int(int64(empno)))
	r.Set("Dept", value.String(dept))
	return r
}

func student(name, city string, id int) *value.Record {
	r := person(name, city)
	r.Set("StudentID", value.Int(int64(id)))
	return r
}

func studentEmployee(name, city string, empno, id int, dept string) *value.Record {
	r := employee(name, city, empno, dept)
	r.Set("StudentID", value.Int(int64(id)))
	return r
}

// populate inserts a small mixed population and returns counts by kind.
func populate(db *Database) (nPerson, nEmployee, nStudent, nBoth, nOther int) {
	db.InsertValue(person("P1", "Austin"))
	db.InsertValue(person("P2", "Moose"))
	db.InsertValue(employee("E1", "Austin", 1, "Sales"))
	db.InsertValue(employee("E2", "Glasgow", 2, "Manuf"))
	db.InsertValue(employee("E3", "Philadelphia", 3, "Sales"))
	db.InsertValue(student("S1", "Austin", 100))
	db.InsertValue(studentEmployee("SE1", "Austin", 4, 101, "Admin"))
	db.InsertValue(value.Int(42))            // databases are unconstrained:
	db.InsertValue(value.String("anything")) // "we can put any dynamic value in it"
	return 2, 3, 1, 1, 2
}

func forBothStrategies(t *testing.T, f func(t *testing.T, db *Database)) {
	for _, s := range []Strategy{StrategyScan, StrategyIndexed} {
		t.Run(s.String(), func(t *testing.T) {
			f(t, New(s))
		})
	}
}

func TestGetDerivedExtents(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		// Get[Person] includes persons, employees, students and the
		// student-employee: 2+3+1+1 = 7.
		if got := len(db.Get(personT)); got != 7 {
			t.Errorf("Get[Person] = %d objects, want 7", got)
		}
		if got := len(db.Get(employeeT)); got != 4 {
			t.Errorf("Get[Employee] = %d objects, want 4", got)
		}
		if got := len(db.Get(studentT)); got != 2 {
			t.Errorf("Get[Student] = %d objects, want 2", got)
		}
		if got := len(db.Get(types.Int)); got != 1 {
			t.Errorf("Get[Int] = %d objects, want 1", got)
		}
	})
}

func TestGetHierarchyContainment(t *testing.T) {
	// "getPersons will always return a larger list than getEmployees."
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		persons := db.Get(personT)
		index := map[string]bool{}
		for _, p := range persons {
			index[value.Key(p.Value)] = true
		}
		for _, e := range db.Get(employeeT) {
			if !index[value.Key(e.Value)] {
				t.Errorf("employee %s missing from Get[Person]", e.Value)
			}
		}
	})
}

func TestGetWitnesses(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		for _, p := range db.Get(personT) {
			// Each witness is a subtype of the requested type …
			if !types.Subtype(p.Witness, personT) {
				t.Errorf("witness %s is not ≤ Person", p.Witness)
			}
			// … and opening at the request type always succeeds.
			if _, err := p.Open(personT); err != nil {
				t.Errorf("Open at request type failed: %v", err)
			}
		}
		// An employee package opens at Employee, a plain person doesn't.
		opened := 0
		for _, p := range db.Get(personT) {
			if _, err := p.Open(employeeT); err == nil {
				opened++
			}
		}
		if opened != 4 {
			t.Errorf("%d packages opened at Employee, want 4", opened)
		}
	})
}

func TestStrategiesAgree(t *testing.T) {
	scan := New(StrategyScan)
	idx := New(StrategyIndexed)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		var v value.Value
		switch rng.Intn(4) {
		case 0:
			v = person(fmt.Sprintf("P%d", i), "Austin")
		case 1:
			v = employee(fmt.Sprintf("E%d", i), "Moose", i, "Sales")
		case 2:
			v = student(fmt.Sprintf("S%d", i), "Glasgow", i)
		default:
			v = value.Int(int64(i))
		}
		scan.InsertValue(v)
		idx.InsertValue(v)
	}
	for _, q := range []types.Type{personT, employeeT, studentT, types.Int, types.Top} {
		a, b := scan.Get(q), idx.Get(q)
		if len(a) != len(b) {
			t.Fatalf("strategies disagree on %s: %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if !value.Equal(a[i].Value, b[i].Value) {
				t.Fatalf("strategies disagree at %d on %s", i, q)
			}
		}
	}
}

func TestIndexedExtentMaintainedAcrossInserts(t *testing.T) {
	db := New(StrategyIndexed)
	populate(db)
	before := len(db.Get(employeeT))
	db.InsertValue(employee("E9", "Austin", 9, "Sales"))
	db.InsertValue(person("P9", "Austin")) // must NOT enter the Employee extent
	after := len(db.Get(employeeT))
	if after != before+1 {
		t.Errorf("extent after inserts = %d, want %d", after, before+1)
	}
}

func TestRemove(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		d := db.InsertValue(employee("Gone", "X", 99, "Sales"))
		before := len(db.Get(employeeT))
		if !db.Remove(d) {
			t.Fatal("Remove reported absence")
		}
		if db.Remove(d) {
			t.Error("second Remove should report absence")
		}
		if got := len(db.Get(employeeT)); got != before-1 {
			t.Errorf("Get after remove = %d, want %d", got, before-1)
		}
	})
}

func TestGetTopReturnsEverything(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		if got := len(db.Get(types.Top)); got != db.Len() {
			t.Errorf("Get[Top] = %d, want %d", got, db.Len())
		}
	})
}

// TestCount checks the size of Get, the way callers count a type's
// members, against counts the test keeps while inserts and removes change
// the extents underneath.
func TestCount(t *testing.T) {
	forBothStrategies(t, func(t *testing.T, db *Database) {
		_, nEmployee, _, nBoth, _ := populate(db)
		want := nEmployee + nBoth
		if got := len(db.Get(employeeT)); got != want {
			t.Errorf("Get[Employee] = %d, want %d", got, want)
		}
		late := db.InsertValue(employee("Late", "X", 77, "Sales"))
		db.InsertValue(person("NotAnEmployee", "X"))
		if got := len(db.Get(employeeT)); got != want+1 {
			t.Errorf("Get[Employee] after insert = %d, want %d", got, want+1)
		}
		db.Remove(late)
		if got := len(db.Get(employeeT)); got != want {
			t.Errorf("Get[Employee] after remove = %d, want %d", got, want)
		}
	})
}

func TestGetAtDeclaredType(t *testing.T) {
	// A value inserted at a declared supertype is found at that label, not
	// at its structural type: the static view governs.
	db := New(StrategyScan)
	emp := employee("E1", "Austin", 1, "Sales")
	d, err := dynamic.MakeAt(emp, personT)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(d)
	if got := len(db.Get(personT)); got != 1 {
		t.Errorf("Get[Person] = %d, want 1", got)
	}
	if got := len(db.Get(employeeT)); got != 0 {
		t.Errorf("Get[Employee] = %d, want 0 (value was injected at Person)", got)
	}
}

func TestGetTypeSignature(t *testing.T) {
	want := types.MustParse("forall t . List[Dynamic] -> List[exists u <= t . u]")
	if !types.Equal(GetType, want) {
		t.Errorf("GetType = %s, want %s", GetType, want)
	}
}

func TestObjectIdentityCoexistence(t *testing.T) {
	// "there is no reason why we should not allow two comparable objects to
	// co-exist": the university lot with two identical cars.
	db := New(StrategyScan)
	car := value.Rec("MakeModel", value.String("Chevvy Nova"))
	db.InsertValue(car)
	db.InsertValue(value.Copy(car))
	carT := types.MustParse("{MakeModel: String}")
	if got := len(db.Get(carT)); got != 2 {
		t.Errorf("Get[Car] = %d, want 2 — databases of objects admit duplicates", got)
	}
}

func TestForkHypotheticalState(t *testing.T) {
	// "One may want to experiment with hypothetical states of the
	// database": a fork evolves independently while sharing objects.
	forBothStrategies(t, func(t *testing.T, db *Database) {
		populate(db)
		before := len(db.Get(employeeT))

		fork := db.Fork()
		fork.InsertValue(employee("Hypothetical", "Nowhere", 99, "Sales"))
		d := fork.All()[0]
		fork.Remove(d)

		// The original is untouched.
		if got := len(db.Get(employeeT)); got != before {
			t.Errorf("original changed by fork: %d vs %d", got, before)
		}
		if got := len(fork.Get(employeeT)); got != before+1 {
			t.Errorf("fork = %d employees, want %d", got, before+1)
		}
		if fork.Len() != db.Len() { // +1 insert, -1 remove
			t.Errorf("fork length %d, original %d", fork.Len(), db.Len())
		}
		// Structure sharing: the same *Dynamic pointers appear in both.
		if db.All()[1] != fork.All()[0] {
			t.Error("fork should share member objects")
		}
	})
}

func TestConcurrentInsertAndGet(t *testing.T) {
	db := New(StrategyIndexed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			db.InsertValue(employee(fmt.Sprintf("E%d", i), "Austin", i, "Sales"))
		}
	}()
	for i := 0; i < 200; i++ {
		db.Get(employeeT)
	}
	<-done
	if got := len(db.Get(employeeT)); got != 200 {
		t.Errorf("after concurrent use: %d employees, want 200", got)
	}
}
