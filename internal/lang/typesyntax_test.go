package lang

import (
	"bytes"
	"testing"

	"dbpl/internal/types"
)

// TestTypeReadersAgree: the language and types.Parse read the same text as
// the same type. The sources are types.TestParseRoundTrip's, plus one with
// a comment between fields.
func TestTypeReadersAgree(t *testing.T) {
	for _, src := range []string{
		"Int", "Float", "String", "Bool", "Unit", "Top", "Bottom", "Dynamic", "Type",
		"{}",
		"{Name: String}",
		"{Address: {City: String, Zip: Int}, Name: String}",
		"[Circle: Float, Square: Float]",
		"List[Int]",
		"Set[{Name: String}]",
		"List[List[Set[Int]]]",
		"Int -> Int",
		"(Int, String) -> Bool",
		"() -> Unit",
		"Int -> Int -> Int",
		"(Int -> Int) -> Int",
		"forall t . t -> t",
		"forall t <= {Name: String} . t -> List[t]",
		"exists t <= {Name: String, Empno: Int} . t",
		"rec t . {Value: Int, Next: t}",
		"forall t . List[Dynamic] -> List[exists u <= t . u]",
		"{Name: String, -- the key\n Age: Int}",
	} {
		want, err := types.Parse(src)
		if err != nil {
			t.Fatalf("types.Parse(%q): %v", src, err)
		}
		decls, err := Parse("type Z = "+src, nil)
		if err != nil {
			t.Errorf("lang refuses %q: %v", src, err)
			continue
		}
		got := decls[0].(*DType).Type
		if !types.Equal(got, want) || got.String() != want.String() {
			t.Errorf("%q: lang reads %s, types.Parse %s", src, got, want)
		}
	}
}

// TestTypeNameRules: on top of the shared grammar, the language refuses a
// keyword and a capitalized name that is neither a base type nor an
// abbreviation, binders included, and a capitalized type parameter of a
// function; labels and tags may be any identifier.
// Abbreviations expand wherever they occur free.
func TestTypeNameRules(t *testing.T) {
	for _, src := range []string{
		"let x: forall T . Int = 1",
		"let x: forall in . Int = 1",
		"let x: {A: then} = 1",
		"let x: List[Person] = []",
		"type Int = Bool",
		"type List = Int",
		"type Person = {Name: String}; fun[Person](x: Person): Person is x",
	} {
		failRun(t, src, "parse")
	}
	if _, err := New(new(bytes.Buffer)).Run("fun[t](x: t): t is x"); err != nil {
		t.Errorf("a lowercase type parameter: %v", err)
	}
	decls, err := Parse(`
		type Person = {Name: String};
		type Z = forall t <= Person . [Person: t, Other: List[Person]]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := types.MustParse("forall t <= {Name: String} . [Person: t, Other: List[{Name: String}]]")
	if got := decls[1].(*DType).Type; !types.Equal(got, want) {
		t.Errorf("abbreviations: got %s, want %s", got, want)
	}
}

// TestTypeErrorPosition: a syntax error inside a type spanning two lines
// is a parse error at the offending token's line and column.
func TestTypeErrorPosition(t *testing.T) {
	_, err := Parse("let x: {A: Int,\n  B Int} = 1", nil)
	le, ok := err.(*Error)
	if !ok || le.Phase != "parse" || le.Pos != (Pos{Line: 2, Col: 5}) {
		t.Fatalf("got %v, want a parse error at 2:5", err)
	}
	_, err = Parse("let x: [A: Int,\n  B: Int,\n  A: Bool] = 1", nil)
	if le, ok := err.(*Error); !ok || le.Phase != "parse" || le.Pos != (Pos{Line: 3, Col: 3}) {
		t.Errorf("duplicate tag: got %v, want a parse error at 3:3", err)
	}
}
