package value

import (
	"dbpl/internal/types"
)

// TypeVal is a type treated as a value — the result of Amber's typeOf
// applied to a dynamic value. Its type is the basic type Type.
type TypeVal struct {
	T types.Type
}

// NewTypeVal wraps a type as a value.
func NewTypeVal(t types.Type) *TypeVal { return &TypeVal{T: t} }

// Kind implements Value.
func (*TypeVal) Kind() Kind { return KindType }

// String implements Value.
func (tv *TypeVal) String() string { return "type(" + tv.T.String() + ")" }

// TypeOf returns the most specific type of v. For containers the element
// type is the join of the element types, so an empty list has type
// List[Bottom] — which is a subtype of every list type, exactly what lets a
// base part with no components inhabit the paper's recursive Part type.
//
// Values may share structure (DAGs); results are memoized per record so the
// traversal is linear in the number of distinct nodes. A cyclic value is
// given Top at the back edge, a conservative answer that keeps TypeOf total —
// whether the cycle passes through a record or only through lists, sets and
// tags.
func TypeOf(v Value) types.Type {
	t := typer{memo: map[*Record]types.Type{}}
	return t.typeOf(v)
}

// inProgress marks a container currently being typed (cycle detection).
var inProgress = types.Type(types.Top)

// typer is one TypeOf traversal. memo holds each record typed, inProgress
// while it is, so a cycle through a record ends at Top. A cycle through no
// record returns along elements that are lists, sets or tags; path holds the
// lists, sets and tags being typed that took such a step, and is allocated
// at the first, so a value without one costs nothing more.
type typer struct {
	memo map[*Record]types.Type
	path map[Value]bool
}

func (t *typer) typeOf(v Value) types.Type {
	switch vv := v.(type) {
	case Int:
		return types.Int
	case Float:
		return types.Float
	case String:
		return types.String
	case Bool:
		return types.Bool
	case unitValue:
		return types.Unit
	case bottomValue:
		return types.Bottom
	case *TypeVal:
		return types.TypeRep
	case *Record:
		if rt, ok := t.memo[vv]; ok {
			return rt // includes the Top answer for back edges
		}
		t.memo[vv] = inProgress
		fs := make([]types.Field, vv.Len())
		for i, l := range vv.Shape().labels {
			fs[i] = types.Field{Label: l, Type: t.typeOf(vv.values[i])}
		}
		rt := types.NewRecord(fs...)
		t.memo[vv] = rt
		return rt
	case *List:
		if t.path[vv] {
			return inProgress
		}
		elem := types.Type(types.Bottom)
		for _, e := range vv.Elems {
			elem = types.Join(elem, t.elem(vv, e))
		}
		delete(t.path, vv)
		return types.NewList(elem)
	case *Set:
		if t.path[vv] {
			return inProgress
		}
		elem := types.Type(types.Bottom)
		for _, e := range vv.elems {
			elem = types.Join(elem, t.elem(vv, e))
		}
		delete(t.path, vv)
		return types.NewSet(elem)
	case *Tag:
		if t.path[vv] {
			return inProgress
		}
		pt := t.elem(vv, vv.Payload)
		delete(t.path, vv)
		return types.NewVariant(types.Field{Label: vv.Label, Type: pt})
	default:
		return types.Top
	}
}

// elem types e, an element of the list, set or tag c, first putting c on
// the path when e is a list, set or tag.
func (t *typer) elem(c, e Value) types.Type {
	switch e.(type) {
	case *List, *Set, *Tag:
		if t.path == nil {
			t.path = map[Value]bool{}
		}
		t.path[c] = true
	}
	return t.typeOf(e)
}

// Conforms reports whether v can be used at type t — v's most specific type
// is a subtype of t. This is the dynamic check behind coerce and behind the
// generic Get function's filtering of a heterogeneous database.
func Conforms(v Value, t types.Type) bool {
	return ConformsInterned(v, types.Intern(t))
}

// ConformsInterned is Conforms with the target type already interned, for
// callers filtering many values against one type (relation extraction, class
// conformance, every root on open and every PUT).
//
// The verdict is Intern(TypeOf(v)) ⊑ t, but it is decided by walking t over
// v, without building TypeOf(v), wherever the two provably agree:
//
//   - Top accepts every value and ⊥ conforms to every type;
//   - an atom against a basic type reads the subtype order of the basic
//     types (so Int ≤ Float holds), and against any other walked form fails;
//   - a record against a record type needs every label of the type, each
//     field conforming (width and depth subtyping);
//   - a list or set against a list or set type needs every element to
//     conform to the element type: TypeOf joins the element types, and a
//     join is below a type exactly when each joined type is;
//   - a tagged value against a variant type needs its tag among the
//     variant's, its payload conforming.
//
// Every other form — type variables, quantifiers, recursive and function
// types, Dynamic and other opaque values, a walk nested more than
// walkDepth containers below a list or set — falls back to the reference
// expression above, which stays the oracle the tests check the walk
// against. A shared value is not walked as its unfolding (see walk).
//
// A cyclic value also falls back, whatever the walk would visit. TypeOf
// types a back edge as Top, and the record it stops at depends on the order
// its traversal meets the cycle in: for r := {self: r}, r does not conform
// to {self: {self: {}}}. A record shared by two paths is typed once, along
// the first, so a cycle the walk never enters can still decide a verdict.
func ConformsInterned(v Value, t *types.Interned) bool {
	if ok, decided := conforms(v, t.Type()); decided {
		return ok
	}
	return types.SubtypeInterned(types.Intern(TypeOf(v)), t)
}

// walkDepth bounds the nesting below a list or set that the walk follows
// before it falls back: TypeOf joins element types, and Join widens to Top
// past a fixed depth, which a deeper walk would not see. No declared type
// comes close, and outside lists and sets TypeOf joins nothing.
const walkDepth = 32

// basicLeq[s][t] is the subtype order on the basic types, read off
// types.Subtype once so the walk cannot drift from it.
var basicLeq = func() (leq [types.KindTypeRep + 1][types.KindTypeRep + 1]bool) {
	basics := []*types.Basic{types.Int, types.Float, types.String, types.Bool, types.Unit,
		types.Top, types.Bottom, types.Dynamic, types.TypeRep}
	for _, s := range basics {
		for _, t := range basics {
			leq[s.Kind()][t.Kind()] = types.Subtype(s, t)
		}
	}
	return leq
}()

// conforms is the walk behind ConformsInterned; decided is false when the
// verdict is left to the reference.
func conforms(v Value, t types.Type) (ok, decided bool) {
	if t.Kind() == types.KindTop {
		return true, true
	}
	var w conformWalk
	return w.run(v, t)
}

// conformWalk is the conformance walk. In the same pass it searches the
// value for a cycle: it enters every container the value reaches, at Top
// where the type does not cover it, so a container is entered once for
// both. A tree costs no allocation, and a DAG at most walkBudget steps an
// edge, as every walk. A cycle sends the first pass deeper than pathFrom;
// the second memoizes each step as it enters it, so a container met again
// at Top while it is on the path is a cycle, and a step at any other type
// never is: each is a part of the type of the step above it.
type conformWalk struct {
	walk[typed, verdict]
	cycle bool // the second pass met a cycle, and stopped
}

// run walks t over v, in a second pass when the first is spent, and
// returns the verdict, left undecided when v reaches a cycle.
func (w *conformWalk) run(v Value, t types.Type) (ok, decided bool) {
	ok, decided = conform(v, t, 0, w)
	if w.again() {
		ok, decided = conform(v, t, 0, w)
	}
	if w.cycle {
		return false, false
	}
	return ok, decided
}

// typed is a step of the conformance walk: the container v against the
// type node t, depth levels below the outermost list or set; a step of the
// search alone is at Top and depth 0.
type typed struct {
	v     Value
	t     types.Type
	depth int
}

// verdict is what the conformance walk memoizes for a step.
type verdict struct{ ok, decided bool }

// and is the verdict of a conjunction: decided false when either part is,
// else undecided when either part is.
func and(ok, decided, pok, pdec bool) (bool, bool) {
	return ok && pok, !ok && decided || !pok && pdec || decided && pdec
}

// conform decides v : t, depth levels below the outermost list or set,
// and searches v for a cycle. Where t stops covering v — it is Top, a form
// the walk leaves to the reference, nested past walkDepth, or of another
// shape than v — the search goes on at Top.
func conform(v Value, t types.Type, depth int, w *conformWalk) (ok, decided bool) {
	ok, decided = true, true
	if t != types.Top {
		switch t.(type) {
		case *types.Basic, *types.Record, *types.Variant, *types.List, *types.Set:
			if t.Kind() == types.KindTop {
				t = types.Top
			} else if depth > walkDepth {
				ok, decided, t = false, false, types.Top
			}
		default:
			ok, decided, t = false, false, types.Top
		}
	}
	var k types.Kind
	switch v.(type) {
	case bottomValue:
		return ok, decided
	case Int:
		k = types.KindInt
	case Float:
		k = types.KindFloat
	case String:
		k = types.KindString
	case Bool:
		k = types.KindBool
	case unitValue:
		k = types.KindUnit
	case *TypeVal:
		k = types.KindTypeRep
	case *Record, *List, *Set, *Tag:
		if t == types.Top {
			search(v, w)
			return ok, decided
		}
		key := typed{v, t, depth}
		vd, seen := w.seen(key)
		if !seen {
			start := w.enter(key, verdict{})
			vd.ok, vd.decided = conformContainer(v, t, depth, w)
			w.leave(key, vd, start)
		}
		return and(ok, decided, vd.ok, vd.decided)
	default:
		if t == types.Top {
			return ok, decided
		}
		return false, false
	}
	if t == types.Top {
		return ok, decided
	}
	return atomConforms(k, t), true
}

// conformContainer is conform for the record, list, set or tag v, which it
// walks whole. Every element of a list or set must conform: a false
// verdict on any element decides the whole, as a conjunction does. The
// walk stops at a cycle.
func conformContainer(v Value, t types.Type, depth int, w *conformWalk) (ok, decided bool) {
	below := depth + min(depth, 1) // each level counts below a list or set
	switch vv := v.(type) {
	case *Record:
		if tr, _ := t.(*types.Record); tr != nil && tr.LabelBits()&^vv.Shape().bits == 0 {
			return conformRecord(vv, tr, below, w)
		}
	case *Tag:
		if tv, _ := t.(*types.Variant); tv != nil {
			if pt, found := tv.Lookup(vv.Label); found {
				return conform(vv.Payload, pt, below, w)
			}
		}
	case *List:
		if tl, _ := t.(*types.List); tl != nil {
			return conformElems(vv.Elems, tl.Elem, depth+1, w)
		}
	case *Set:
		if ts, _ := t.(*types.Set); ts != nil {
			return conformElems(vv.elems, ts.Elem, depth+1, w)
		}
	}
	// t covers no part of v: v does not conform, and its parts are
	// searched at Top.
	if !searchParts(v, w) {
		return false, false
	}
	return false, true
}

// conformRecord is conformContainer for the record r at a record type tr
// that may hold only labels r has; below is the depth of r's fields.
func conformRecord(r *Record, tr *types.Record, below int, w *conformWalk) (ok, decided bool) {
	ok, decided = true, true
	// Both label lists are sorted: a merge join, like the subtype check.
	i := 0 // tr's next field
	for j, l := range r.Shape().labels {
		for i < tr.Len() && tr.Field(i).Label < l {
			ok, decided, i = false, true, i+1 // a label r lacks
		}
		if i == tr.Len() || tr.Field(i).Label != l {
			if !search(r.values[j], w) {
				return false, false
			}
			continue
		}
		pok, pdec := conform(r.values[j], tr.Field(i).Type, below, w)
		if w.cycle {
			return false, false
		}
		ok, decided = and(ok, decided, pok, pdec)
		i++
	}
	if i < tr.Len() {
		return false, true
	}
	return ok, decided
}

// conformElems is conformContainer for the elements of a list or set at
// the element type elem, depth levels below the outermost list or set.
func conformElems(elems []Value, elem types.Type, depth int, w *conformWalk) (ok, decided bool) {
	ok, decided = true, true
	for _, e := range elems {
		pok, pdec := conform(e, elem, depth, w)
		if w.cycle {
			return false, false
		}
		ok, decided = and(ok, decided, pok, pdec)
	}
	return ok, decided
}

// searchParts searches the parts of the container v, and reports false
// at a cycle.
func searchParts(v Value, w *conformWalk) bool {
	var parts []Value
	switch vv := v.(type) {
	case *Record:
		parts = vv.values
	case *List:
		parts = vv.Elems
	case *Set:
		parts = vv.elems
	case *Tag:
		return search(vv.Payload, w)
	}
	for _, p := range parts {
		if !search(p, w) {
			return false
		}
	}
	return true
}

// search walks v at Top, for the cycle search alone, and reports false at
// a cycle.
func search(v Value, w *conformWalk) bool {
	switch v.(type) {
	case *Record, *List, *Set, *Tag:
	default:
		return true
	}
	k := typed{v: v, t: types.Top}
	if vd, seen := w.seen(k); seen {
		if w.path && !vd.ok {
			w.cycle = true // on the path
		}
		return !w.cycle
	}
	start := w.enter(k, verdict{})
	if !searchParts(v, w) {
		return false
	}
	w.leave(k, verdict{true, true}, start)
	return true
}

// atomConforms reports whether an atom of basic kind k conforms to t, one of
// the walked forms.
func atomConforms(k types.Kind, t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && basicLeq[k][b.Kind()]
}
