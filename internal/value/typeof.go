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
	var w walk[typed, verdict]
	if cyclic(v, &w) {
		return false, false
	}
	ok, decided = conform(v, t, 0, &w)
	if w.again() {
		ok, decided = conform(v, t, 0, &w)
	}
	return ok, decided
}

// typed is a step of the conformance walk: the container v against the
// type node t, depth levels below the outermost list or set.
type typed struct {
	v     Value
	t     types.Type
	depth int
}

// verdict is what the conformance walk memoizes for a step.
type verdict struct{ ok, decided bool }

// conform decides v : t for an acyclic v, depth levels below the outermost
// list or set.
func conform(v Value, t types.Type, depth int, w *walk[typed, verdict]) (ok, decided bool) {
	switch t.(type) {
	case *types.Basic, *types.Record, *types.Variant, *types.List, *types.Set:
	default:
		return false, false
	}
	if t.Kind() == types.KindTop {
		return true, true
	}
	if depth > walkDepth {
		return false, false
	}
	switch v.(type) {
	case bottomValue:
		return true, true
	case Int:
		return atomConforms(types.KindInt, t), true
	case Float:
		return atomConforms(types.KindFloat, t), true
	case String:
		return atomConforms(types.KindString, t), true
	case Bool:
		return atomConforms(types.KindBool, t), true
	case unitValue:
		return atomConforms(types.KindUnit, t), true
	case *TypeVal:
		return atomConforms(types.KindTypeRep, t), true
	case *Record, *List, *Set, *Tag:
	default:
		return false, false
	}
	k := typed{v, t, depth}
	if vd, ok := w.seen(k); ok {
		return vd.ok, vd.decided
	}
	start := w.enter(k, verdict{})
	ok, decided = conformContainer(v, t, depth, w)
	w.leave(k, verdict{ok, decided}, start)
	return ok, decided
}

// conformContainer is conform for the record, list, set or tag v. Every
// element of a list or set must conform: a false verdict on any element
// decides the whole, as a conjunction does.
func conformContainer(v Value, t types.Type, depth int, w *walk[typed, verdict]) (ok, decided bool) {
	below := depth + min(depth, 1) // each level counts below a list or set
	var elems []Value
	var elem types.Type
	switch vv := v.(type) {
	case *Record:
		tr, ok := t.(*types.Record)
		labels := vv.Shape().labels
		if !ok || tr.LabelBits()&^vv.Shape().bits != 0 {
			return false, true
		}
		// Both label lists are sorted: a merge join, like the subtype check.
		decided = true
		j := 0
		for i := 0; i < tr.Len(); i++ {
			f := tr.Field(i)
			for j < len(labels) && labels[j] < f.Label {
				j++
			}
			if j == len(labels) || labels[j] != f.Label {
				return false, true
			}
			switch ok, d := conform(vv.values[j], f.Type, below, w); {
			case !d:
				decided = false
			case !ok:
				return false, true
			}
		}
		return true, decided
	case *Tag:
		if tv, ok := t.(*types.Variant); ok {
			if pt, ok := tv.Lookup(vv.Label); ok {
				return conform(vv.Payload, pt, below, w)
			}
		}
		return false, true
	case *List:
		tl, ok := t.(*types.List)
		if !ok {
			return false, true
		}
		elems, elem = vv.Elems, tl.Elem
	case *Set:
		ts, ok := t.(*types.Set)
		if !ok {
			return false, true
		}
		elems, elem = vv.elems, ts.Elem
	}
	decided = true
	for _, e := range elems {
		switch ok, d := conform(e, elem, depth+1, w); {
		case !d:
			decided = false
		case !ok:
			return false, true
		}
	}
	return true, decided
}

// atomConforms reports whether an atom of basic kind k conforms to t, one of
// the walked forms.
func atomConforms(k types.Kind, t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && basicLeq[k][b.Kind()]
}

// cyclic reports whether a container reachable from v lies on a cycle. It
// is a walk over w, which the conformance walk then goes on with: a first
// pass follows containers with no map, and marks in w's memo, under the
// type nil, only a container whose part took more than walkBudget steps
// and is acyclic. A cycle sends the first pass deeper than pathFrom, and
// the second pass memoizes each container as it enters it, as on the path,
// and as finished when it leaves it, so a container met on the path is a
// cycle. A tree costs no allocation, and a DAG at most walkBudget steps an
// edge, as every walk.
func cyclic(v Value, w *walk[typed, verdict]) bool {
	c := cycles(v, w)
	if w.again() {
		c = cycles(v, w)
	}
	return c
}

// cycles is one pass of cyclic. A spent walk sees every container as on
// the path, so it returns at once, its answer void.
func cycles(v Value, w *walk[typed, verdict]) bool {
	var elems []Value
	switch vv := v.(type) {
	case *Record:
		elems = vv.values
	case *List:
		elems = vv.Elems
	case *Set:
		elems = vv.elems
	case *Tag:
		elems = []Value{vv.Payload}
	default:
		return false
	}
	k := typed{v: v}
	if vd, ok := w.seen(k); ok {
		return !vd.ok // on the path, or done
	}
	start := w.enter(k, verdict{})
	for _, e := range elems {
		if cycles(e, w) {
			return true
		}
	}
	w.leave(k, verdict{ok: true}, start)
	return false
}
