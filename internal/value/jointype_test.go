package value

import (
	"math/rand"
	"testing"

	"dbpl/internal/types"
)

// This file tests the typing rule of the generalized join: an object of
// type σ joined with one of type τ has type σ ⊓ τ. ⊥ is the one exception:
// it conforms to every type and is the unit of ⊔, so a join of values
// holding ⊥ can leave σ ⊓ τ.

// vary returns a value near x, so that vary(x) and vary(x) often join: a
// record loses or gains fields, an atom is now and then replaced by ⊥ or
// by another atom, and containers vary their parts.
func vary(r *rand.Rand, x Value) Value {
	switch xv := x.(type) {
	case *Record:
		out := NewRecord()
		xv.Each(func(l string, v Value) {
			if r.Intn(4) != 0 {
				out.Set(l, vary(r, v))
			}
		})
		if r.Intn(3) == 0 {
			out.Set([]string{"A", "E", "F"}[r.Intn(3)], genValue(r, 1))
		}
		return out
	case *List:
		elems := make([]Value, len(xv.Elems))
		for i, e := range xv.Elems {
			elems[i] = vary(r, e)
		}
		return NewList(elems...)
	case *Set:
		out := NewSet()
		for _, e := range xv.elems {
			out.Add(vary(r, e))
		}
		return out
	case *Tag:
		return NewTag(xv.Label, vary(r, xv.Payload))
	}
	switch r.Intn(10) {
	case 0:
		return Bottom
	case 1:
		return genValue(r, 0)
	}
	return x
}

// widen returns a supertype of t: it drops record fields, widens Int to
// Float, adds variant tags and now and then puts Top for a part, anywhere
// in t.
func widen(r *rand.Rand, t types.Type) types.Type {
	if r.Intn(12) == 0 {
		return types.Top
	}
	switch tt := t.(type) {
	case *types.Record:
		var fs []types.Field
		for _, f := range tt.Fields() {
			if r.Intn(4) != 0 {
				fs = append(fs, types.Field{Label: f.Label, Type: widen(r, f.Type)})
			}
		}
		return types.NewRecord(fs...)
	case *types.List:
		return types.NewList(widen(r, tt.Elem))
	case *types.Set:
		return types.NewSet(widen(r, tt.Elem))
	case *types.Variant:
		fs := make([]types.Field, tt.Len())
		for i := range fs {
			f := tt.Tag(i)
			fs[i] = types.Field{Label: f.Label, Type: widen(r, f.Type)}
		}
		if _, ok := tt.Lookup("R"); !ok && r.Intn(2) == 0 {
			fs = append(fs, types.Field{Label: "R", Type: types.Int})
		}
		return types.NewVariant(fs...)
	}
	if t == types.Int && r.Intn(2) == 0 {
		return types.Float
	}
	return t
}

// TestQuickJoinHasMeetType: draw a : σ and b : τ, σ and τ supertypes of
// the most specific types formed by dropping fields and widening Int to
// Float (and by adding tags and Top, see widen), over records, lists, sets
// and variants. Whenever neither holds ⊥ and Join(a, b) succeeds, Meet(σ,
// τ) is inhabited and the join conforms to it. The server's JOIN ships
// such a pair's member at the meet unchecked. Enough pairs must join for
// the check to mean something.
func TestQuickJoinHasMeetType(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 4000
	checked, bottoms := 0, 0
	for i := 0; i < n; i++ {
		x := genValue(r, 3)
		switch x.Kind() {
		case KindRecord, KindList, KindSet, KindTag:
		default:
			continue // an atom or ⊥ alone: its meets are the types package's own tests
		}
		a, b := vary(r, x), vary(r, x)
		if HoldsBottom(a) || HoldsBottom(b) {
			bottoms++
			continue
		}
		j, err := Join(a, b)
		if err != nil {
			continue
		}
		checked++
		sigma, tau := widen(r, TypeOf(a)), widen(r, TypeOf(b))
		if !Conforms(a, sigma) || !Conforms(b, tau) {
			t.Fatalf("widen: %s is not a supertype of %s's type or %s of %s's", sigma, a, tau, b)
		}
		m, ok := types.Meet(sigma, tau)
		if !ok {
			t.Fatalf("%s ⊔ %s = %s, but %s ⊓ %s is uninhabited", a, b, j, sigma, tau)
		}
		if !Conforms(j, m) {
			t.Fatalf("%s : %s ⊔ %s : %s = %s does not conform to the meet %s", a, sigma, b, tau, j, m)
		}
	}
	t.Logf("%d of %d pairs joined without a ⊥; %d held one", checked, n, bottoms)
	if checked < n/5 {
		t.Errorf("only %d of %d pairs joined without a ⊥ (%d held one)", checked, n, bottoms)
	}
}

// TestJoinWithBottomLeavesMeet pins why the rule asks for no ⊥: ⊥
// conforms to every type and is the unit of ⊔. Filling one: {A = ⊥, B = 1}
// : {A: Bottom, B: Int} joined with {A = 2} : {A: Int} is {A = 2, B = 1},
// which is not of the meet {A: Bottom, B: Int}. Sharing one: {A = ⊥, B =
// 1} : {A: Int, B: Int} joins {A = ⊥, C = 2} : {A: String, C: Int}, whose
// meet is uninhabited. The server's JOIN checks each member of a pair
// holding ⊥ against the meet it would ship.
func TestJoinWithBottomLeavesMeet(t *testing.T) {
	a, b := Rec("A", Bottom, "B", Int(1)), Rec("A", Int(2))
	j, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := types.Meet(TypeOf(a), TypeOf(b))
	if !ok || !types.Equal(m, TypeOf(a)) || Conforms(j, m) {
		t.Errorf("%s ⊓ %s = (%s, %v), and %s conforms to it: %v", TypeOf(a), TypeOf(b), m, ok, j, Conforms(j, m))
	}
	c, d := Rec("A", Bottom, "B", Int(1)), Rec("A", Bottom, "C", Int(2))
	if _, err := Join(c, d); err != nil {
		t.Fatal(err)
	}
	if m, ok := types.Meet(types.MustParse("{A: Int, B: Int}"), types.MustParse("{A: String, C: Int}")); ok {
		t.Errorf("{A: Int, B: Int} ⊓ {A: String, C: Int} = %s, want uninhabited", m)
	}
}

// TestHoldsBottom: HoldsBottom finds ⊥ anywhere in a value, answers false
// only for values without one, and stops on a cycle with a maybe.
func TestHoldsBottom(t *testing.T) {
	cyclic := Rec("A", Int(1))
	cyclic.Set("Self", cyclic)
	for _, c := range []struct {
		v    Value
		want bool
	}{
		{Int(1), false},
		{Bottom, true},
		{Rec("A", Int(1), "B", String("x")), false},
		{Rec("A", Int(1), "B", Rec("C", Bottom)), true},
		{NewList(Int(1), NewTag("P", Bottom)), true},
		{NewSet(Rec("A", Int(1)), Rec("A", Bottom)), true},
		{NewList(NewSet(Int(1)), NewTag("P", Unit)), false},
		{cyclic, true},
	} {
		if got := HoldsBottom(c.v); got != c.want {
			t.Errorf("HoldsBottom(%v) = %v, want %v", c.v.Kind(), got, c.want)
		}
	}
}
