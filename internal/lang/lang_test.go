package lang

import (
	"bytes"
	"strings"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// run evaluates src in a fresh interpreter and returns the results.
func run(t *testing.T, src string) []Result {
	t.Helper()
	in := New(new(bytes.Buffer))
	rs, err := in.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return rs
}

// last evaluates src and returns the final result.
func last(t *testing.T, src string) Result {
	t.Helper()
	rs := run(t, src)
	if len(rs) == 0 {
		t.Fatalf("Run(%q) produced no results", src)
	}
	return rs[len(rs)-1]
}

// failRun asserts that src fails in the given phase, returning the message.
func failRun(t *testing.T, src, phase string) string {
	t.Helper()
	in := New(new(bytes.Buffer))
	_, err := in.Run(src)
	if err == nil {
		t.Fatalf("Run(%q) unexpectedly succeeded", src)
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("Run(%q) error %v is not a lang error", src, err)
	}
	if le.Phase != phase {
		t.Fatalf("Run(%q) failed in phase %q (%v), want %q", src, le.Phase, err, phase)
	}
	return le.Msg
}

func wantVal(t *testing.T, src string, want value.Value) {
	t.Helper()
	got := last(t, src).Value
	if !value.Equal(got, want) {
		t.Errorf("Run(%q) = %s, want %s", src, got, want)
	}
}

func wantType(t *testing.T, src string, want string) {
	t.Helper()
	got := last(t, src).Type
	if !types.Equal(got, types.MustParse(want)) {
		t.Errorf("Run(%q) : %s, want %s", src, got, want)
	}
}

// ---------------------------------------------------------------------------
// Literals, operators, control flow
// ---------------------------------------------------------------------------

func TestLiteralsAndArithmetic(t *testing.T) {
	wantVal(t, "1 + 2 * 3", value.Int(7))
	wantVal(t, "(1 + 2) * 3", value.Int(9))
	wantVal(t, "7 / 2", value.Int(3))
	wantVal(t, "7 % 2", value.Int(1))
	wantVal(t, "7.0 / 2", value.Float(3.5))
	wantVal(t, "1 + 2.5", value.Float(3.5))
	wantVal(t, "-3", value.Int(-3))
	wantVal(t, `"foo" ++ "bar"`, value.String("foobar"))
	wantVal(t, "'single' ++ \"double\"", value.String("singledouble"))
	wantVal(t, "unit", value.Unit)
	wantVal(t, "()", value.Unit)
	wantType(t, "1 + 2", "Int")
	wantType(t, "1 + 2.0", "Float")
	wantType(t, "1.5", "Float")
}

func TestComparisonsAndLogic(t *testing.T) {
	wantVal(t, "1 < 2", value.Bool(true))
	wantVal(t, "2 <= 2", value.Bool(true))
	wantVal(t, "3 > 4", value.Bool(false))
	wantVal(t, "1.5 >= 1", value.Bool(true))
	wantVal(t, `"a" < "b"`, value.Bool(true))
	wantVal(t, "1 == 1", value.Bool(true))
	wantVal(t, "1 == 2", value.Bool(false))
	wantVal(t, "{A = 1} == {A = 1}", value.Bool(true))
	// == is structural equality: it never widens, and Floats compare by bits.
	wantVal(t, "1 == 1.0", value.Bool(false))
	wantVal(t, "0.0 == -0.0", value.Bool(false))
	wantVal(t, "-0.0 == -0.0", value.Bool(true))
	wantVal(t, "1 != 2", value.Bool(true))
	wantVal(t, "true and false", value.Bool(false))
	wantVal(t, "true or false", value.Bool(true))
	wantVal(t, "not true", value.Bool(false))
	// Short-circuit: the right side would fail.
	wantVal(t, "false and (1 / 0 == 0)", value.Bool(false))
	wantVal(t, "true or (1 / 0 == 0)", value.Bool(true))
}

func TestIfAndLet(t *testing.T) {
	wantVal(t, "if 1 < 2 then 10 else 20", value.Int(10))
	wantVal(t, "let x = 5 in x * x", value.Int(25))
	wantVal(t, "let x = 1 in let y = 2 in x + y", value.Int(3))
	wantVal(t, "let x = 1; let y = x + 1; y", value.Int(2))
	// Joined branch types.
	wantType(t, "if true then 1 else 2.0", "Float")
	wantType(t, "if true then {A = 1, B = 2} else {A = 3, C = 4}", "{A: Int}")
}

func TestRuntimeErrors(t *testing.T) {
	failRun(t, "1 / 0", "run")
	failRun(t, "1 % 0", "run")
	failRun(t, `fail[Int]("boom")`, "run")
	failRun(t, "let rec f = fun(n: Int): Int is f(n); f(1)", "run") // depth limit
}

func TestTypeErrors(t *testing.T) {
	failRun(t, "1 + true", "type")
	failRun(t, `"a" + "b"`, "type")
	failRun(t, "if 1 then 2 else 3", "type")
	failRun(t, "not 1", "type")
	failRun(t, "unknownVar", "type")
	failRun(t, "let x: String = 3; x", "type")
	failRun(t, "{A = 1}.B", "type")
	failRun(t, "1.A", "type")
	failRun(t, `1 ++ "x"`, "type")
	failRun(t, "1 < \"x\"", "type")
}

func TestParseErrors(t *testing.T) {
	failRun(t, "let = 3", "parse")
	failRun(t, "let x 3", "parse")
	failRun(t, "{A = 1, A = 2}", "parse")
	failRun(t, "fun(x) is x", "parse") // untyped parameter
	failRun(t, "let rec f = 3; f", "parse")
	failRun(t, "1 +", "parse")
	failRun(t, "(1", "parse")
	failRun(t, "let let = 1", "parse")
	failRun(t, "coerce d too Int", "parse")
}

func TestLexErrors(t *testing.T) {
	failRun(t, `"unterminated`, "lex")
	failRun(t, "#", "lex")
	failRun(t, `"bad \q escape"`, "lex")
}

func TestComments(t *testing.T) {
	wantVal(t, "1 + 1 -- this is a comment\n", value.Int(2))
	wantVal(t, "-- leading comment\n2", value.Int(2))
}

// ---------------------------------------------------------------------------
// Records, lists, subtyping
// ---------------------------------------------------------------------------

func TestRecords(t *testing.T) {
	wantVal(t, `{Name = "J Doe"}.Name`, value.String("J Doe"))
	wantVal(t, `{Addr = {City = "Austin"}}.Addr.City`, value.String("Austin"))
	wantType(t, `{Name = "J Doe", Age = 30}`, "{Name: String, Age: Int}")
	// with: functional extension and override.
	wantVal(t, `({Name = "J"} with {Empno = 7}).Empno`, value.Int(7))
	wantVal(t, `({A = 1} with {A = 2}).A`, value.Int(2))
	wantType(t, `{Name = "J"} with {Empno = 7}`, "{Name: String, Empno: Int}")
	// with does not mutate the original.
	wantVal(t, `let p = {A = 1} in let q = p with {A = 2} in p.A`, value.Int(1))
}

func TestLists(t *testing.T) {
	wantType(t, "[1, 2, 3]", "List[Int]")
	wantType(t, "[]", "List[Bottom]")
	wantType(t, "[1, 2.0]", "List[Float]")
	wantType(t, `[{A = 1, B = 2}, {A = 3, C = 4}]`, "List[{A: Int}]")
	wantVal(t, "head([7, 8])", value.Int(7))
	wantVal(t, "length(tail([7, 8, 9]))", value.Int(2))
	wantVal(t, "nth([7, 8, 9], 2)", value.Int(9))
	wantVal(t, "length(append([1], [2, 3]))", value.Int(3))
	wantVal(t, "isEmpty([])", value.Bool(true))
	wantVal(t, "head(cons(0, [1]))", value.Int(0))
	failRun(t, "head([])", "run")
	failRun(t, "nth([1], 5)", "run")
}

func TestHigherOrderBuiltins(t *testing.T) {
	wantVal(t, "nth(map(fun(x: Int): Int is x * 2, [1, 2, 3]), 2)", value.Int(6))
	wantVal(t, "length(filter(fun(x: Int): Bool is x > 1, [1, 2, 3]))", value.Int(2))
	wantVal(t, "fold(fun(a: Int, x: Int): Int is a + x, 0, [1, 2, 3, 4])", value.Int(10))
	// map can change the element type.
	wantType(t, `map(fun(x: Int): String is show(x), [1])`, "List[String]")
}

func TestFunctionsAndSubtyping(t *testing.T) {
	// An Employee can be passed where a Person is expected.
	src := `
		let getName = fun(p: {Name: String}): String is p.Name;
		getName({Name = "J Doe", Empno = 1234})
	`
	wantVal(t, src, value.String("J Doe"))
	// But not the reverse.
	failRun(t, `
		let f = fun(e: {Name: String, Empno: Int}): Int is e.Empno;
		f({Name = "J"})
	`, "type")
	// Declared result must cover the body.
	failRun(t, `fun(x: Int): String is x`, "type")
	// Higher-order subtyping: contravariant parameters.
	wantVal(t, `
		let apply = fun(f: ({Name: String, Empno: Int}) -> String, e: {Name: String, Empno: Int}): String is f(e);
		apply(fun(p: {Name: String}): String is p.Name, {Name = "X", Empno = 1})
	`, value.String("X"))
}

func TestRecursion(t *testing.T) {
	wantVal(t, `
		let rec fact = fun(n: Int): Int is if n <= 1 then 1 else n * fact(n - 1);
		fact(10)
	`, value.Int(3628800))
	wantVal(t, `
		let rec fib = fun(n: Int): Int is if n < 2 then n else fib(n-1) + fib(n-2);
		fib(15)
	`, value.Int(610))
}

func TestLetRecExpression(t *testing.T) {
	// let rec as an expression, not just a declaration.
	wantVal(t, `
		let rec go = fun(n: Int, acc: Int): Int is
			if n == 0 then acc else go(n - 1, acc + n)
		in go(100, 0)
	`, value.Int(5050))
	// Nested inside another function.
	wantVal(t, `
		let sumTo = fun(m: Int): Int is
			let rec go = fun(n: Int): Int is
				if n == 0 then 0 else n + go(n - 1)
			in go(m);
		sumTo(10)
	`, value.Int(55))
	failRun(t, `let rec f = 3 in f`, "parse")
	failRun(t, `let rec f = fun(n: Int) is n in f(1)`, "parse") // needs result type
}

func TestClosures(t *testing.T) {
	wantVal(t, `
		let mkAdder = fun(n: Int): (Int) -> Int is fun(m: Int): Int is n + m;
		let add3 = mkAdder(3);
		add3(4)
	`, value.Int(7))
}

// ---------------------------------------------------------------------------
// Type declarations and recursive types
// ---------------------------------------------------------------------------

func TestTypeDeclarations(t *testing.T) {
	wantVal(t, `
		type Person = {Name: String};
		type Employee = {Name: String, Empno: Int};
		let getName = fun(p: Person): String is p.Name;
		let e: Employee = {Name = "J Doe", Empno = 1};
		getName(e)
	`, value.String("J Doe"))
	failRun(t, "type Person = {A: Int}; type Person = {B: Int}; 1", "parse")
	failRun(t, "type lower = Int; 1", "parse")
	failRun(t, "let x: Unknown = 1; x", "parse")
}

func TestRecursiveTypeDeclaration(t *testing.T) {
	src := `
		type Part = {Name: String, Components: List[{Sub: Part, Qty: Int}]};
		let bolt: Part = {Name = "bolt", Components = []};
		let frame: Part = {Name = "frame", Components = [{Sub = bolt, Qty = 8}]};
		(head(frame.Components)).Sub.Name
	`
	wantVal(t, src, value.String("bolt"))
}

// ---------------------------------------------------------------------------
// Bounded polymorphism and existentials
// ---------------------------------------------------------------------------

func TestPolymorphicFunctions(t *testing.T) {
	wantVal(t, `
		let id = fun[a](x: a): a is x;
		id[Int](3)
	`, value.Int(3))
	wantType(t, `
		let id = fun[a](x: a): a is x;
		id
	`, "forall a . a -> a")
	// Bounded quantification: the function may use the bound's fields.
	wantVal(t, `
		let getName = fun[t <= {Name: String}](x: t): String is x.Name;
		getName[{Name: String, Empno: Int}]({Name = "J", Empno = 1})
	`, value.String("J"))
	// Exceeding the bound is a static error.
	failRun(t, `
		let getName = fun[t <= {Name: String}](x: t): String is x.Name;
		getName[Int](3)
	`, "type")
	// Direct application infers the instantiation from the arguments.
	wantVal(t, `
		let id = fun[a](x: a): a is x;
		id(3)
	`, value.Int(3))
	wantType(t, `
		let id = fun[a](x: a): a is x;
		id(3)
	`, "Int")
	// Inference joins the candidates from multiple occurrences.
	wantType(t, `
		let pick = fun[a](c: Bool, x: a, y: a): a is if c then x else y;
		pick(true, 1, 2.0)
	`, "Float")
	// An inferred argument that exceeds the bound is still an error.
	failRun(t, `
		let getName = fun[t <= {Name: String}](x: t): String is x.Name;
		getName(3)
	`, "type")
}

func TestOpenExistential(t *testing.T) {
	// get's result elements are existential packages; open reveals them at
	// the bound.
	src := `
		type Person = {Name: String};
		let db: List[Dynamic] = [dynamic {Name = "J Doe", Empno = 1}];
		let ps = get[Person](db);
		open head(ps) as (t, p) in p.Name
	`
	wantVal(t, src, value.String("J Doe"))
	// The opened variable has the abstract type t; fields beyond the bound
	// are invisible statically.
	failRun(t, `
		type Person = {Name: String};
		let db: List[Dynamic] = [dynamic {Name = "J", Empno = 1}];
		open head(get[Person](db)) as (t, p) in p.Empno
	`, "type")
	// The type variable must not escape.
	failRun(t, `
		type Person = {Name: String};
		let db: List[Dynamic] = [dynamic {Name = "J"}];
		open head(get[Person](db)) as (t, p) in p
	`, "type")
	failRun(t, `open 3 as (t, p) in 1`, "type")
}

// ---------------------------------------------------------------------------
// Dynamics: the paper's coerce example
// ---------------------------------------------------------------------------

func TestPaperDynamicExample(t *testing.T) {
	// let d = dynamic 3; let i = coerce d to Int  -- 3
	wantVal(t, `
		let d = dynamic 3;
		coerce d to Int
	`, value.Int(3))
	// coerce d to String raises a run-time exception.
	failRun(t, `
		let d = dynamic 3;
		coerce d to String
	`, "run")
	// Coercion respects subsumption.
	wantVal(t, `
		let d = dynamic {Name = "J", Empno = 1};
		(coerce d to {Name: String}).Name
	`, value.String("J"))
	// typeof reifies the carried type.
	wantType(t, "typeof (dynamic 3)", "Type")
	wantVal(t, `typeof (dynamic 3) == typeof (dynamic 4)`, value.Bool(true))
	wantVal(t, `typeof (dynamic 3) == typeof (dynamic "x")`, value.Bool(false))
	// Static: only dynamics can be coerced.
	failRun(t, "coerce 3 to Int", "type")
	failRun(t, "typeof 3", "type")
}

// ---------------------------------------------------------------------------
// The generic get: deriving extents from the type hierarchy
// ---------------------------------------------------------------------------

func TestGetDerivesClassHierarchy(t *testing.T) {
	src := `
		type Person = {Name: String};
		type Employee = {Name: String, Empno: Int, Dept: String};
		type Student = {Name: String, StudentID: Int};
		let db: List[Dynamic] = [
			dynamic {Name = "P1"},
			dynamic {Name = "E1", Empno = 1, Dept = "Sales"},
			dynamic {Name = "E2", Empno = 2, Dept = "Manuf"},
			dynamic {Name = "S1", StudentID = 100},
			dynamic {Name = "SE1", Empno = 3, Dept = "Admin", StudentID = 101},
			dynamic 42
		];
	`
	for _, c := range []struct {
		query string
		want  int64
	}{
		{"Person", 5}, {"Employee", 3}, {"Student", 2}, {"Int", 1}, {"Top", 6},
	} {
		wantVal(t, src+"length(get["+c.query+"](db))", value.Int(c.want))
	}
}

func TestGetTypeIsThePapersType(t *testing.T) {
	wantType(t, "get", "forall t . List[Dynamic] -> List[exists u <= t . u]")
	wantType(t, `
		type Person = {Name: String};
		get[Person]
	`, "List[Dynamic] -> List[exists u <= {Name: String} . u]")
	wantType(t, `
		type Person = {Name: String};
		let db: List[Dynamic] = [];
		get[Person](db)
	`, "List[exists u <= {Name: String} . u]")
}

func TestGetInsidePolymorphicFunction(t *testing.T) {
	// A user-defined generic count function built on get — generic code
	// over the database, statically checked.
	src := `
		let count = fun[t](db: List[Dynamic]): Int is length(get[t](db));
		type Employee = {Name: String, Empno: Int};
		let db: List[Dynamic] = [
			dynamic {Name = "E1", Empno = 1},
			dynamic {Name = "P1"}
		];
		count[Employee](db)
	`
	wantVal(t, src, value.Int(1))
}

// ---------------------------------------------------------------------------
// Object-level inheritance in the language
// ---------------------------------------------------------------------------

func TestObjectJoin(t *testing.T) {
	// {Name = 'J Doe'} ⊔ {Emp_no = 1234} = {Name = 'J Doe', Emp_no = 1234}.
	// The join's static type is the join of the record types ({} here), so
	// the merged fields are observed dynamically.
	wantVal(t, `
		join({Name = "J Doe"}, {Emp_no = 1234}) == {Name = "J Doe", Emp_no = 1234}
	`, value.Bool(true))
	// With an explicit common supertype instantiation the shared fields
	// stay statically visible.
	wantVal(t, `
		(join[{Name: String}]({Name = "J", A = 1}, {Name = "J", B = 2})).Name
	`, value.String("J"))
	failRun(t, `join({Name = "J"}, {Name = "K"})`, "run")
	// [Bune85]: a direct join is typed at the MEET of the argument types,
	// so the merged fields are statically visible — the "minor
	// modification … to assign a type to relational operators".
	wantType(t, `join({Name = "J Doe"}, {Emp_no = 1234})`, "{Name: String, Emp_no: Int}")
	wantVal(t, `join({Name = "J Doe"}, {Emp_no = 1234}).Emp_no`, value.Int(1234))
	wantType(t, `
		let people = relation([{Name = "J", Dept = "S"}]);
		let depts = relation([{Dept = "S", Floor = 3}]);
		rjoin(people, depts)
	`, "Set[{Name: String, Dept: String, Floor: Int}]")
	// Joining inconsistent relations is statically empty.
	wantType(t, `rjoin(setof([{A = 1}]), setof([{A = "x"}]))`, "Set[Bottom]")
	wantVal(t, `size(rjoin(setof([{A = 1}]), setof([{A = "x"}])))`, value.Int(0))
	// A user rebinding `join` gets ordinary generic typing, not the
	// refinement.
	wantType(t, `
		let join = fun[a](x: a, y: a): a is x;
		join({Name = "J"}, {Emp_no = 1})
	`, "{}")
	wantVal(t, `joinable({Name = "J"}, {Name = "K"})`, value.Bool(false))
	wantVal(t, `joinable({Name = "J"}, {Empno = 1})`, value.Bool(true))
	wantVal(t, `leq({Name = "J"}, {Name = "J", Empno = 1})`, value.Bool(true))
	wantVal(t, `leq({Name = "J", Empno = 1}, {Name = "J"})`, value.Bool(false))
}

func TestGeneralizedRelations(t *testing.T) {
	// Cochain construction subsumes comparable members.
	wantVal(t, `size(relation[{}]([{A = 1}, {A = 1, B = 2}]))`, value.Int(1))
	wantVal(t, `size(setof[{A: Int}]([{A = 1}, {A = 1}]))`, value.Int(1))
	// A miniature Figure 1 join.
	src := `
		let people = relation[{}]([
			{Name = "J Doe", Dept = "Sales"},
			{Name = "N Bug"}
		]);
		let depts = relation[{}]([
			{Dept = "Sales", Floor = 3},
			{Dept = "Admin", Floor = 1}
		]);
		size(rjoin[{}](people, depts))
	`
	wantVal(t, src, value.Int(3))
	wantVal(t, `size(project[{}](relation[{}]([{A = 1, B = 1}, {A = 1, B = 2}]), ["A"]))`, value.Int(1))
	wantVal(t, `contains[{A: Int}](setof[{A: Int}]([{A = 1}]), {A = 1})`, value.Bool(true))
	wantVal(t, `size(runion[{}](relation[{}]([{A = 1}]), relation[{}]([{A = 1, B = 2}])))`, value.Int(1))
	wantVal(t, `size(sfilter[{A: Int}](fun(r: {A: Int}): Bool is r.A > 1, setof[{A: Int}]([{A = 1}, {A = 2}])))`, value.Int(1))
}

func TestRExtract(t *testing.T) {
	src := `
		type Employee = {Name: String, Empno: Int};
		let r = relation([
			{Name = "E1", Empno = 1},
			{Name = "P1"},
			{Name = "E2", Empno = 2}
		]);
	`
	wantVal(t, src+`size(rextract[Employee](r))`, value.Int(2))
	wantType(t, src+`rextract[Employee](r)`, "Set[{Name: String, Empno: Int}]")
	// Elements of the extraction can be used at the extracted type.
	wantVal(t, src+`
		fold(fun(a: Int, e: Employee): Int is a + e.Empno, 0,
			members(rextract[Employee](r)))`, value.Int(3))
}

func TestStringBuiltins(t *testing.T) {
	wantVal(t, `strlen("hello")`, value.Int(5))
	wantVal(t, `substring("hello", 1, 3)`, value.String("el"))
	wantVal(t, `strContains("database", "base")`, value.Bool(true))
	wantVal(t, `strContains("database", "xyz")`, value.Bool(false))
	failRun(t, `substring("hi", 0, 9)`, "run")
	failRun(t, `substring("hi", -1, 1)`, "run")
	failRun(t, `strlen(3)`, "type")
}

// ---------------------------------------------------------------------------
// Output and session behaviour
// ---------------------------------------------------------------------------

func TestPrintAndShow(t *testing.T) {
	var buf bytes.Buffer
	in := New(&buf)
	if _, err := in.Run(`print[Int](42); print[String]("hello")`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "hello") {
		t.Errorf("output = %q", out)
	}
	wantVal(t, `show[{A: Int}]({A = 1})`, value.String("{A = 1}"))
}

func TestSessionStatePersistsAcrossRuns(t *testing.T) {
	in := New(new(bytes.Buffer))
	if _, err := in.Run("let x = 40"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("type Person = {Name: String}"); err != nil {
		t.Fatal(err)
	}
	rs, err := in.Run("let p: Person = {Name = \"J\"}; x + 2")
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(rs[len(rs)-1].Value, value.Int(42)) {
		t.Errorf("cross-run state: %s", rs[len(rs)-1].Value)
	}
	// Lookup API.
	if v, typ, ok := in.Lookup("x"); !ok || !value.Equal(v, value.Int(40)) || !types.Equal(typ, types.Int) {
		t.Error("Lookup failed")
	}
}

func TestStaticCheckBeforeAnyEvaluation(t *testing.T) {
	// The second declaration has a type error; the first must not run.
	var buf bytes.Buffer
	in := New(&buf)
	_, err := in.Run(`print[Int](1); 1 + true`)
	if err == nil {
		t.Fatal("expected type error")
	}
	if buf.Len() != 0 {
		t.Errorf("evaluation happened before checking: %q", buf.String())
	}
}

func TestMemoBuiltins(t *testing.T) {
	src := `
		let part = {Name = "frame", Cost = 10.0};
		memoSet[{}](part, "_total", dynamic 99.5);
		let back = coerce memoGet[{}](part, "_total") to Float;
		back
	`
	wantVal(t, src, value.Float(99.5))
	wantVal(t, `
		let p = {A = 1};
		memoHas[{}](p, "_m")
	`, value.Bool(false))
	// Labels must be transient.
	failRun(t, `memoSet[{}]({A = 1}, "B", dynamic 1)`, "run")
	// Memo fields are invisible to the static type system: the record still
	// has its declared type and no more.
	wantType(t, `
		let p = {A = 1};
		memoSet[{}](p, "_m", dynamic 2);
		p
	`, "{A: Int}")
}

func TestResultString(t *testing.T) {
	rs := run(t, "let x = 1; 2; type T = Int")
	if got := rs[0].String(); !strings.Contains(got, "x : Int = 1") {
		t.Errorf("let result = %q", got)
	}
	if got := rs[1].String(); !strings.Contains(got, "2 : Int") {
		t.Errorf("expr result = %q", got)
	}
	if got := rs[2].String(); !strings.Contains(got, "type T defined") {
		t.Errorf("type result = %q", got)
	}
}
