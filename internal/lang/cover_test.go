package lang

import (
	"bytes"
	"strings"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// These tests sweep the less-travelled syntax and error paths: explicit
// quantifier and recursive types in annotations, every keyword construct's
// error productions, and the small public helpers.

func TestExplicitQuantifierAnnotations(t *testing.T) {
	// forall in a type annotation.
	wantVal(t, `
		let id: forall t . t -> t = fun[t](x: t): t is x;
		id(41) + 1
	`, value.Int(42))
	// Bounded forall annotation.
	wantType(t, `
		let f: forall t <= {Name: String} . t -> String =
			fun[t <= {Name: String}](x: t): String is x.Name;
		f
	`, "forall t <= {Name: String} . t -> String")
	// exists annotation on a variable holding a Get element.
	wantVal(t, `
		type Person = {Name: String};
		let db: List[Dynamic] = [dynamic {Name = "J"}];
		let p: exists u <= Person . u = head(get[Person](db));
		open p as (t, x) in x.Name
	`, value.String("J"))
	// rec type annotation.
	wantVal(t, `
		let l: rec t . [Nil: Unit, Cons: {Head: Int, Tail: t}] =
			<Cons = {Head = 7, Tail = <Nil = unit>}>;
		case l of Nil(u) is 0 | Cons(c) is c.Head end
	`, value.Int(7))
}

func TestTypeSyntaxErrors(t *testing.T) {
	failRun(t, "let x: forall . t = 1", "parse")
	failRun(t, "let x: forall t t = 1", "parse")
	failRun(t, "let x: rec . t = 1", "parse")
	failRun(t, "let x: rec t t = 1", "parse")
	failRun(t, "let x: (Int, Int) = 1", "parse") // bare parameter list
	failRun(t, "let x: List[Int = 1", "parse")
	failRun(t, "let x: List Int = 1", "parse")
	failRun(t, "let x: {A Int} = 1", "parse")
	failRun(t, "let x: {A: Int, A: Int} = 1", "parse")
	failRun(t, "let x: [A: Int, A: Int] = 1", "parse")
	failRun(t, "let x: [A Int] = 1", "parse")
	failRun(t, "let x: 3 = 1", "parse")
	failRun(t, "let x: if = 1", "parse")
}

func TestKeywordConstructErrors(t *testing.T) {
	failRun(t, "if true 1 else 2", "parse")
	failRun(t, "if true then 1 2", "parse")
	failRun(t, "let x = 1 in", "parse")
	failRun(t, "let x = in 2", "parse")
	failRun(t, "open 3 as t, p) in 1", "parse")
	failRun(t, "open 3 as (t p) in 1", "parse")
	failRun(t, "open 3 as (t, p) 1", "parse")
	failRun(t, "fun[](x: Int): Int is x", "parse")
	failRun(t, "fun(x: Int) Int is x", "parse")
	failRun(t, "fun(x: Int): Int x", "parse")
	failRun(t, "case 1 of", "parse")
	failRun(t, "case <A = 1> of A x) is 1 end", "parse")
	failRun(t, "case <A = 1> of A(x) is 1", "parse")
	failRun(t, "persistent X = 1", "parse")
	failRun(t, "persistent X : Int 1", "parse")
	failRun(t, "type X", "parse")
	failRun(t, "<A 1>", "parse")
	failRun(t, "<A = 1", "parse")
	failRun(t, "{A = 1,}", "parse")
	failRun(t, "f(1,)", "parse")
	failRun(t, "x[Int", "parse")
	failRun(t, "1 with 2", "parse")
}

func TestMoreRuntimeAndTypeErrors(t *testing.T) {
	failRun(t, "let f = fun(x: Int): Int is x; f(1, 2)", "type")
	failRun(t, "let f = fun(x: Int): Int is x; f[Int](1)", "type") // not polymorphic
	failRun(t, "3(1)", "type")
	failRun(t, "3[Int]", "type")
	failRun(t, "let id = fun[a](x: a): a is x; id[Int, Int](1)", "type")
	failRun(t, "-true", "type")
	failRun(t, "true < false", "type")
	failRun(t, `1.5 % 2.5`, "type")
	failRun(t, "1 and true", "type")
	failRun(t, "let x: t = 1", "type") // unbound type variable
	failRun(t, "fun(x: t): Int is 1", "type")
}

func TestOpenShadowingRejected(t *testing.T) {
	failRun(t, `
		type Person = {Name: String};
		let db: List[Dynamic] = [dynamic {Name = "J"}];
		open head(get[Person](db)) as (t, x) in
			open head(get[Person](db)) as (t, y) in x.Name
	`, "type")
}

// mustRun is in.Run, failing the test on an error.
func mustRun(t *testing.T, in *Interp, src string) []Result {
	t.Helper()
	rs, err := in.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return rs
}

// TestRunDeclaresTypeNames: a type declaration is a result of its own and
// records the abbreviation; a program that does not parse is an error.
func TestRunDeclaresTypeNames(t *testing.T) {
	in := New(new(bytes.Buffer))
	rs := mustRun(t, in, "type Person = {Name: String}; 1 + 1")
	if len(rs) != 2 {
		t.Fatalf("Run results = %d", len(rs))
	}
	if ty, ok := in.abbrevs["Person"]; !ok || !types.Equal(ty, types.MustParse("{Name: String}")) {
		t.Errorf("abbreviations = %v", in.abbrevs)
	}
	if _, err := in.Run("]["); err == nil {
		t.Error("Run of a program that does not parse succeeded")
	}
}

func TestValueStrings(t *testing.T) {
	in := New(new(bytes.Buffer))
	rs := mustRun(t, in, "fun(x: Int): Int is x")
	if rs[0].Value.String() != "<fun>" {
		t.Errorf("closure String = %q", rs[0].Value.String())
	}
	if rs[0].Value.Kind() != value.KindOpaque {
		t.Error("closure kind")
	}
	rs = mustRun(t, in, "head")
	if !strings.Contains(rs[0].Value.String(), "head") {
		t.Errorf("builtin String = %q", rs[0].Value.String())
	}
	rs = mustRun(t, in, "head[Int]")
	if !strings.Contains(rs[0].Value.String(), "head") {
		t.Errorf("bound builtin String = %q", rs[0].Value.String())
	}
	if rs[0].Value.Kind() != value.KindOpaque {
		t.Error("bound builtin kind")
	}
}

func TestPolymorphicClosureChainedInstantiation(t *testing.T) {
	// Instantiating a two-parameter function in stages.
	wantVal(t, `
		let k = fun[a, b](x: a, y: b): a is x;
		k[Int][String](7, "ignored")
	`, value.Int(7))
	// Uninstantiated parameters fall back to their bounds at run time (the
	// dynamic built inside sees the bound).
	wantVal(t, `
		let f = fun[t <= {Name: String}](x: t): Bool is
			typeof (dynamic x) == typeof (dynamic x);
		f({Name = "J"})
	`, value.Bool(true))
}

func TestGetWithoutInstantiationActsAsTop(t *testing.T) {
	// get(db) is statically List[exists u <= Top . u]; at run time it
	// returns everything.
	wantVal(t, `
		let db: List[Dynamic] = [dynamic 1, dynamic "x"];
		length(get(db))
	`, value.Int(2))
}

func TestIfJoinsToTopIsUsable(t *testing.T) {
	// Unrelated branches join to Top; the value is still printable.
	wantType(t, `if true then 1 else "x"`, "Top")
	wantVal(t, `show(if true then 1 else "x")`, value.String("1"))
}

func TestDeepExpressionNesting(t *testing.T) {
	// A deeply right-nested expression exercises parser recursion.
	var b strings.Builder
	for i := 0; i < 200; i++ {
		b.WriteString("1 + (")
	}
	b.WriteString("0")
	for i := 0; i < 200; i++ {
		b.WriteString(")")
	}
	wantVal(t, b.String(), value.Int(200))
}

func TestSubtypeOfBuiltin(t *testing.T) {
	// Type-level computation on reified types: the runtime face of the
	// paper's "types as values" discussion.
	wantVal(t, `
		subtypeOf(typeof (dynamic {Name = "J", Empno = 1}),
		          typeof (dynamic {Name = "X"}))
	`, value.Bool(true))
	wantVal(t, `
		subtypeOf(typeof (dynamic {Name = "X"}),
		          typeof (dynamic {Name = "J", Empno = 1}))
	`, value.Bool(false))
	wantVal(t, `subtypeOf(typeof (dynamic 3), typeof (dynamic 3.5))`, value.Bool(true))
	failRun(t, `subtypeOf(typeof (dynamic 1), 2)`, "type")
}

func TestSemicolonHandling(t *testing.T) {
	wantVal(t, "1;", value.Int(1)) // trailing semicolon
	wantVal(t, "1 ; 2 ;", value.Int(2))
	failRun(t, "1 2", "parse")
	if rs := run(t, "   "); len(rs) != 0 {
		t.Error("blank program should produce no results")
	}
}
