package types

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// roundTripSources cover every form of the grammar.
var roundTripSources = []string{
	"Int",
	"Float",
	"String",
	"Bool",
	"Unit",
	"Top",
	"Bottom",
	"Dynamic",
	"Type",
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
	"Int -> Int -> Int", // right associative
	"(Int -> Int) -> Int",
	"forall t . t -> t",
	"forall t <= {Name: String} . t -> List[t]",
	"exists t <= {Name: String, Empno: Int} . t",
	"rec t . {Value: Int, Next: t}",
	"forall t . List[Dynamic] -> List[exists u <= t . u]",
}

func TestParseRoundTrip(t *testing.T) {
	// For each source, Parse then String then Parse again must give an
	// equal type, and the second print must be a fixed point.
	for _, src := range roundTripSources {
		checkRoundTrip(t, src)
	}
}

// checkRoundTrip fails t unless src, when it parses, re-parses from its
// printing to an equal type whose printing is a fixed point.
func checkRoundTrip(t *testing.T, src string) {
	t.Helper()
	t1, err := Parse(src)
	if err != nil {
		t.Errorf("Parse(%q): %v", src, err)
		return
	}
	printed := t1.String()
	t2, err := Parse(printed)
	if err != nil {
		t.Errorf("reparse of %q (printed %q): %v", src, printed, err)
		return
	}
	if !Equal(t1, t2) {
		t.Errorf("round trip of %q changed the type: %s vs %s", src, t1, t2)
	}
	if t2.String() != printed {
		t.Errorf("printing is not a fixed point for %q: %q vs %q", src, printed, t2.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"{Name String}",
		"{Name: String",
		"{Name: String, Name: Int}",
		"[Circle: Float, Circle: Int]",
		"[]", // empty variant
		"List[",
		"List Int",
		"Set[Int",
		"(Int, String)", // bare parameter list
		"forall . t",
		"forall t t",
		"rec . t",
		"Int ->",
		"Int Int",
		"{A: Int} extra",
		"<=",
		"!@#",
	}
	for _, src := range bad {
		if got, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %s, want error", src, got)
		}
	}
}

func TestParseFunctionAssociativity(t *testing.T) {
	got := MustParse("Int -> Int -> Int")
	want := NewFunc([]Type{Int}, NewFunc([]Type{Int}, Int))
	if !Equal(got, want) {
		t.Errorf("arrow should associate right: got %s", got)
	}
}

func TestParseBoundDefaultsToTop(t *testing.T) {
	q := MustParse("forall t . t").(*Quant)
	if q.Bound.Kind() != KindTop {
		t.Errorf("unbounded forall should default bound to Top, got %s", q.Bound)
	}
}

func TestParseWhitespaceInsensitive(t *testing.T) {
	a := MustParse("{Name:String,Age:Int}")
	b := MustParse("  {  Name :  String ,\n\tAge : Int }  ")
	if !Equal(a, b) {
		t.Error("whitespace should not matter")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse of garbage should panic")
		}
	}()
	MustParse("{{{")
}

func TestStringContainsFields(t *testing.T) {
	s := MustParse("{Name: String, Age: Int}").String()
	for _, want := range []string{"Name: String", "Age: Int"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestKeyAlphaInvariance(t *testing.T) {
	a := MustParse("forall t . t -> List[t]")
	b := MustParse("forall zz . zz -> List[zz]")
	if Key(a) != Key(b) {
		t.Errorf("alpha-variants should share a key: %q vs %q", Key(a), Key(b))
	}
	c := MustParse("forall t . t -> Set[t]")
	if Key(a) == Key(c) {
		t.Error("distinct types should not share a key")
	}
}

func TestSubstituteCaptureAvoidance(t *testing.T) {
	// Substituting u := t into (forall t . u) must not capture: the result
	// binder is renamed.
	inner := NewForAll("t", nil, NewVar("u"))
	got := Substitute(inner, "u", NewVar("t")).(*Quant)
	if got.Param == "t" {
		t.Fatalf("binder captured the substituted variable: %s", got)
	}
	if v, ok := got.Body.(*Var); !ok || v.Name != "t" {
		t.Errorf("body should be the free t, got %s", got.Body)
	}
}

func TestFreeVars(t *testing.T) {
	ty := MustParse("forall t . (t, u) -> List[v]")
	free := FreeVars(ty)
	if !free["u"] || !free["v"] || free["t"] {
		t.Errorf("FreeVars = %v, want {u, v}", free)
	}
	if !Closed(MustParse("forall t . t")) {
		t.Error("closed type reported as open")
	}
	if Closed(MustParse("t")) {
		t.Error("bare variable reported as closed")
	}
}

// TestParseComments: a "--" comment runs to the end of its line and may
// sit between any two tokens, the last included.
func TestParseComments(t *testing.T) {
	got, err := Parse("{Name: String, -- the key\n Age: Int -- years\n} -- done")
	if err != nil {
		t.Fatal(err)
	}
	if want := MustParse("{Name: String, Age: Int}"); !Equal(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
	if got, err := Parse("Int -> -- result\n Int"); err != nil || got.String() != "Int -> Int" {
		t.Errorf("comment after an arrow: %v, %v", got, err)
	}
}

// TestParsePrefix: ParsePrefix stops before the first token the type
// cannot take, past space and comments, and reports its byte offset.
func TestParsePrefix(t *testing.T) {
	for _, c := range []struct {
		src  string
		end  int
		want string
	}{
		{"Int", 3, "Int"},
		{"Int = 1", 4, "Int"},
		{"List[Int] -- c\n]", 15, "List[Int]"},
		{"{A: Int}, x", 8, "{A: Int}"},
		{"Int -> Bool) is", 11, "Int -> Bool"},
	} {
		got, end, err := ParsePrefix(c.src)
		if err != nil || end != c.end || got.String() != c.want {
			t.Errorf("ParsePrefix(%q) = %v, %d, %v; want %s, %d", c.src, got, end, err, c.want, c.end)
		}
	}
}

// TestSyntaxErrorOffset: a refusal is a *SyntaxError at the byte offset of
// the token the parser stopped at; a duplicate label is refused at its
// second occurrence.
func TestSyntaxErrorOffset(t *testing.T) {
	for _, c := range []struct {
		src string
		off int
	}{
		{"{A Int}", 3},
		{"{A: Int, B: Int, A: Bool}", 17},
		{"[B: Int, A: Int, B: Int]", 17},
		{"List[Int", 8},
		{"Int Int", 4},
		{"(Int, Int)", 10},
		{"forall . t", 7},
		{"[]", 1},
		{"{A: 3}", 4},
	} {
		_, err := Parse(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) || se.Offset != c.off {
			t.Errorf("Parse(%q): %v; want a SyntaxError at offset %d", c.src, err, c.off)
		}
	}
}

// wideSource is a record ({...}) or variant ([...]) type of n Int labels.
func wideSource(open, close string, n int) string {
	var b strings.Builder
	b.WriteString(open)
	for i := range n {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "L%d: Int", i)
	}
	b.WriteString(close)
	return b.String()
}

// TestParseCostLinearInWidth: a record or variant type of 4n labels parses
// in at most 8× the CPU time of n labels, n = 8 000, so the duplicate
// label check is not pairwise. Each width is timed best of five with the
// collector off, on one locked OS thread's CPU clock (threadCPU), so a
// busy host's other processes are not charged to the parse.
func TestParseCostLinearInWidth(t *testing.T) {
	const n = 8000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for _, shape := range []struct{ name, open, close string }{
		{"record", "{", "}"},
		{"variant", "[", "]"},
	} {
		small, large := wideSource(shape.open, shape.close, n), wideSource(shape.open, shape.close, 4*n)
		run := func(src string) time.Duration {
			start := threadCPU()
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
			return threadCPU() - start
		}
		ts, tl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range 5 {
			ts, tl = min(ts, run(small)), min(tl, run(large))
		}
		ratio := float64(tl) / float64(ts)
		t.Logf("%s: %d labels %v, %d labels %v, ratio %.2f", shape.name, n, ts, 4*n, tl, ratio)
		if tl > 8*ts {
			t.Errorf("a %s of %d labels took %v, %.1f× the %v of %d labels; want ≤ 8×", shape.name, 4*n, tl, ratio, ts, n)
		}
	}
}

// FuzzParseType: Parse never panics, and every type it accepts re-parses
// from its printing to an equal type whose printing is a fixed point.
func FuzzParseType(f *testing.F) {
	for _, src := range roundTripSources {
		f.Add(src)
	}
	f.Add("{Name: String, -- the key\n Age: Int}")
	f.Add(wideSource("{", "}", 2000))
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err == nil {
			checkRoundTrip(t, src)
		}
	})
}
