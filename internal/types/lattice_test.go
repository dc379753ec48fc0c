package types

import "testing"

func TestJoinBasics(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"Int", "Int", "Int"},
		{"Int", "Float", "Float"},
		{"Int", "String", "Top"},
		{"Int", "Top", "Top"},
		{"Bottom", "Int", "Int"},
		{"{Name: String, Age: Int}", "{Name: String, Dept: String}", "{Name: String}"},
		{"{Name: String, Age: Int}", "{Salary: Float}", "{}"},
		{"List[Int]", "List[Float]", "List[Float]"},
		{"Set[{A: Int, B: Int}]", "Set[{A: Int, C: Int}]", "Set[{A: Int}]"},
		{"List[Int]", "Set[Int]", "Top"},
		{"[Circle: Float]", "[Square: Float]", "[Circle: Float, Square: Float]"},
		{"Int -> Int", "Int -> Float", "Int -> Float"},
		{"Int -> Int", "Float -> Int", "Int -> Int"},
	}
	for _, c := range cases {
		got := Join(MustParse(c.a), MustParse(c.b))
		if !Equal(got, MustParse(c.want)) {
			t.Errorf("Join(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestMeetBasics(t *testing.T) {
	cases := []struct {
		a, b, want string
		ok         bool
	}{
		{"Int", "Int", "Int", true},
		{"Int", "Float", "Int", true},
		{"Int", "String", "Bottom", false},
		{"Int", "Top", "Int", true},
		{"Bottom", "Int", "Bottom", false},
		// The schema-evolution case: two record types that disagree on no
		// field are consistent; the meet carries both sets of fields.
		{"{Name: String, Age: Int}", "{Name: String, Dept: String}",
			"{Name: String, Age: Int, Dept: String}", true},
		// Records that disagree on a field are inconsistent.
		{"{Age: Int}", "{Age: String}", "Bottom", false},
		// A field Bottom on one side is no disagreement: it meets at Bottom
		// whether or not one record type is below the other.
		{"{A: Bottom}", "{A: Int}", "{A: Bottom}", true},
		{"{A: Bottom, B: Int}", "{A: Int, C: Int}", "{A: Bottom, B: Int, C: Int}", true},
		{"{A: Bottom, B: Int}", "{A: Bottom, C: Int}", "{A: Bottom, B: Int, C: Int}", true},
		{"[P: Bottom, Q: Int]", "[P: Bottom, R: Int]", "[P: Bottom]", true},
		{"List[Int]", "List[Float]", "List[Int]", true},
		// List meets never fail outright: List[Bottom] has the empty list.
		{"List[Int]", "List[String]", "List[Bottom]", true},
		{"Set[Int]", "List[Int]", "Bottom", false},
		{"[Circle: Float, Square: Float]", "[Circle: Int, Tri: Float]", "[Circle: Int]", true},
		{"[Circle: Float]", "[Square: Float]", "Bottom", false},
		{"Int -> Int", "Float -> Int", "Float -> Int", true},
	}
	for _, c := range cases {
		got, ok := Meet(MustParse(c.a), MustParse(c.b))
		if ok != c.ok {
			t.Errorf("Meet(%s, %s) ok = %v, want %v", c.a, c.b, ok, c.ok)
			continue
		}
		if !Equal(got, MustParse(c.want)) {
			t.Errorf("Meet(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestMeetIsLowerBound(t *testing.T) {
	pairs := [][2]string{
		{"{Name: String, Age: Int}", "{Name: String, Dept: String}"},
		{"Int", "Float"},
		{"List[{A: Int}]", "List[{B: Int}]"},
		{"[A: Int, B: Int]", "[B: Float, C: Int]"},
	}
	for _, pr := range pairs {
		a, b := MustParse(pr[0]), MustParse(pr[1])
		m, ok := Meet(a, b)
		if !ok {
			t.Errorf("Meet(%s, %s) unexpectedly failed", pr[0], pr[1])
			continue
		}
		if !Subtype(m, a) || !Subtype(m, b) {
			t.Errorf("Meet(%s, %s) = %s is not a lower bound", pr[0], pr[1], m)
		}
	}
}

func TestJoinIsUpperBound(t *testing.T) {
	pairs := [][2]string{
		{"{Name: String, Age: Int}", "{Name: String, Dept: String}"},
		{"Int", "String"},
		{"List[{A: Int}]", "List[{A: Int, B: Int}]"},
		{"Int -> Int", "Float -> Float"},
	}
	for _, pr := range pairs {
		a, b := MustParse(pr[0]), MustParse(pr[1])
		j := Join(a, b)
		if !Subtype(a, j) || !Subtype(b, j) {
			t.Errorf("Join(%s, %s) = %s is not an upper bound", pr[0], pr[1], j)
		}
	}
}

func TestConsistent(t *testing.T) {
	// The paper's DBType / DBType' scenario: consistent record types can be
	// used to enrich a stored database's schema; inconsistent ones cannot.
	cases := []struct {
		a, b string
		want bool
	}{
		{"{Employees: Set[{Name: String}]}", "{Employees: Set[{Name: String, Empno: Int}]}", true},
		{"{Employees: Set[{Name: String}]}", "{Departments: Set[{Dept: String}]}", true},
		{"{Employees: Set[{Name: String}]}", "{Employees: Int}", false},
		{"Int", "Float", true},
		{"Int", "String", false},
	}
	for _, c := range cases {
		if got := Consistent(MustParse(c.a), MustParse(c.b)); got != c.want {
			t.Errorf("Consistent(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestMeetRecursiveConservative(t *testing.T) {
	// Meets involving recursive types are conservative but must terminate.
	a := MustParse("rec t . {Value: Int, Next: t}")
	b := MustParse("rec t . {Value: Float, Next: t}")
	m, ok := Meet(a, b)
	if !ok {
		t.Fatalf("Meet of comparable recursive types failed")
	}
	if !Equal(m, a) {
		t.Errorf("Meet = %s, want %s (the smaller of two comparable types)", m, a)
	}
	j := Join(a, b)
	if !Equal(j, b) {
		t.Errorf("Join = %s, want %s", j, b)
	}
}
