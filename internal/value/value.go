// Package value implements the object domain of Buneman & Atkinson's
// SIGMOD '86 paper: atoms, records-as-partial-functions, lists, sets and
// tagged variants, together with the *information ordering* o ⊑ o' ("o'
// contains more information than o"), the partial *join* o ⊔ o' that merges
// the information in two objects, and a most-specific-type function TypeOf.
//
// Records here are mutable and have pointer identity, reflecting the
// object-oriented reading of the paper: "objects are not identified by
// intrinsic properties". Structural operations (Leq, Join, Equal, keys)
// always work on the current contents.
package value

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dbpl/internal/types"
)

// Kind discriminates the concrete representations of Value.
type Kind int

// The kinds of value in the domain; the zero Kind is no value's.
const (
	_          Kind = iota
	KindBottom      // ⊥ — the wholly uninformative object
	KindInt
	KindFloat
	KindString
	KindBool
	KindUnit
	KindRecord
	KindList
	KindSet
	KindTag  // a variant value: Label(payload)
	KindType // a type treated as a value (Amber's typeOf results)
	KindOpaque
)

// Value is an object in the database domain. Concrete representations are
// Int, Float, String, Bool, Unit, Bottom, *Record, *List, *Set, *Tag and
// *TypeVal; packages building on this one (closures in the language
// evaluator) may add opaque kinds.
type Value interface {
	// Kind reports which concrete representation this is.
	Kind() Kind
	// String renders the value in the paper's notation, e.g.
	// {Name = 'J Doe', Addr = {City = 'Austin'}}.
	String() string
}

// ---------------------------------------------------------------------------
// Atoms
// ---------------------------------------------------------------------------

// Int is an integer atom.
type Int int64

// Kind implements Value.
func (Int) Kind() Kind { return KindInt }

// String implements Value.
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

// Float is a floating-point atom.
type Float float64

// Kind implements Value.
func (Float) Kind() Kind { return KindFloat }

// String implements Value.
func (v Float) String() string {
	if v == Float(math.Trunc(float64(v))) && math.Abs(float64(v)) < 1e15 {
		return strconv.FormatFloat(float64(v), 'f', 1, 64)
	}
	return strconv.FormatFloat(float64(v), 'g', -1, 64)
}

// String is a string atom.
type String string

// Kind implements Value.
func (String) Kind() Kind { return KindString }

// String implements Value; strings print in the paper's quote style.
func (v String) String() string { return "'" + string(v) + "'" }

// Bool is a boolean atom.
type Bool bool

// Kind implements Value.
func (Bool) Kind() Kind { return KindBool }

// String implements Value.
func (v Bool) String() string { return strconv.FormatBool(bool(v)) }

// unitValue is the sole value of type Unit.
type unitValue struct{}

// Unit is the single value of the Unit type.
var Unit Value = unitValue{}

// Kind implements Value.
func (unitValue) Kind() Kind { return KindUnit }

// String implements Value.
func (unitValue) String() string { return "unit" }

// bottomValue is ⊥, below every object in the information ordering.
type bottomValue struct{}

// Bottom is ⊥: the object carrying no information at all. It is below every
// value in the ordering and is the unit of Join.
var Bottom Value = bottomValue{}

// Kind implements Value.
func (bottomValue) Kind() Kind { return KindBottom }

// String implements Value.
func (bottomValue) String() string { return "⊥" }

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

// Record is a record object — in the paper's treatment, a partial function
// from labels to values. An absent field means "no information", so adding
// a field produces a more informative object. Records are mutable and have
// pointer identity. Its labels are its Shape, shared by every record with
// those labels; Set and Delete move a record to another shape.
type Record struct {
	shape  *Shape  // nil in the zero Record, which has no fields
	values []Value // parallel to shape.labels
}

// NewRecord returns an empty record object.
func NewRecord() *Record { return &Record{} }

// Rec builds a record from alternating label, value pairs:
// Rec("Name", String("J Doe"), "Age", Int(42)). It panics on an odd number
// of arguments or a non-string label, which indicate programming errors.
func Rec(pairs ...any) *Record {
	if len(pairs)%2 != 0 {
		panic("value: Rec requires label/value pairs")
	}
	r := NewRecord()
	for i := 0; i < len(pairs); i += 2 {
		label, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value: Rec label %v is not a string", pairs[i]))
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("value: Rec value for %q is not a Value", label))
		}
		r.Set(label, v)
	}
	return r
}

// Kind implements Value.
func (r *Record) Kind() Kind { return KindRecord }

// Shape returns the record's shape, its label set.
func (r *Record) Shape() *Shape {
	if r.shape == nil {
		return emptyShape
	}
	return r.shape
}

// Len reports the number of fields.
func (r *Record) Len() int { return len(r.values) }

// Labels returns the field labels in sorted order.
func (r *Record) Labels() []string { return slices.Clone(r.Shape().labels) }

// Get returns the value of the named field, if present.
func (r *Record) Get(label string) (Value, bool) {
	labels := r.Shape().labels
	if i := sort.SearchStrings(labels, label); i < len(labels) && labels[i] == label {
		return r.values[i], true
	}
	return nil, false
}

// MustGet is Get but panics when the field is absent; for fixtures/tests.
func (r *Record) MustGet(label string) Value {
	v, ok := r.Get(label)
	if !ok {
		panic(fmt.Sprintf("value: record has no field %q", label))
	}
	return v
}

// Set adds or replaces the named field in place. This is the operation that
// makes the paper's object extension possible: an existing Person record can
// be enriched to an Employee without disturbing references to it.
func (r *Record) Set(label string, v Value) {
	s := r.Shape()
	i := sort.SearchStrings(s.labels, label)
	if i < len(s.labels) && s.labels[i] == label {
		r.values[i] = v
		return
	}
	r.shape = s.edit(i, label, true)
	r.values = append(r.values, nil)
	copy(r.values[i+1:], r.values[i:])
	r.values[i] = v
}

// Delete removes the named field if present, reporting whether it was there.
func (r *Record) Delete(label string) bool {
	s := r.Shape()
	i := sort.SearchStrings(s.labels, label)
	if i == len(s.labels) || s.labels[i] != label {
		return false
	}
	r.shape = s.edit(i, label, false)
	r.values = slices.Delete(r.values, i, i+1)
	return true
}

// Each calls f for every field in label order.
func (r *Record) Each(f func(label string, v Value)) {
	for i, l := range r.Shape().labels {
		f(l, r.values[i])
	}
}

// Copy returns a deep copy of the record (sharing atoms and the shape,
// copying all containers), as Copy does.
func (r *Record) Copy() *Record { return Copy(r).(*Record) }

// String implements Value.
func (r *Record) String() string { return containerString(r) }

// ---------------------------------------------------------------------------
// Lists
// ---------------------------------------------------------------------------

// List is a finite sequence of values.
type List struct {
	Elems []Value
}

// NewList returns a list of the given elements.
func NewList(elems ...Value) *List { return &List{Elems: append([]Value(nil), elems...)} }

// Kind implements Value.
func (l *List) Kind() Kind { return KindList }

// Len reports the number of elements.
func (l *List) Len() int { return len(l.Elems) }

// Append adds a value at the end.
func (l *List) Append(v Value) { l.Elems = append(l.Elems, v) }

// String implements Value.
func (l *List) String() string { return containerString(l) }

// ---------------------------------------------------------------------------
// Sets
// ---------------------------------------------------------------------------

// Set is a finite set of values, deduplicated by structural equality.
type Set struct {
	elems []Value
	keys  map[string]int // canonical key -> index
}

// NewSet returns a set of the given elements with duplicates removed.
func NewSet(elems ...Value) *Set {
	s := &Set{keys: map[string]int{}}
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Kind implements Value.
func (s *Set) Kind() Kind { return KindSet }

// Len reports the number of distinct elements.
func (s *Set) Len() int { return len(s.elems) }

// Add inserts v, reporting whether the set changed.
func (s *Set) Add(v Value) bool {
	if s.keys == nil {
		s.keys = map[string]int{}
	}
	var buf [keyScratch]byte
	k := AppendKey(buf[:0], v)
	if _, ok := s.keys[string(k)]; ok {
		return false
	}
	s.keys[string(k)] = len(s.elems)
	s.elems = append(s.elems, v)
	return true
}

// Contains reports whether a structurally equal element is present.
func (s *Set) Contains(v Value) bool {
	var buf [keyScratch]byte
	_, ok := s.keys[string(AppendKey(buf[:0], v))]
	return ok
}

// Remove deletes the element structurally equal to v, reporting whether it
// was present.
func (s *Set) Remove(v Value) bool {
	if s.keys == nil {
		return false
	}
	k := Key(v)
	i, ok := s.keys[k]
	if !ok {
		return false
	}
	last := len(s.elems) - 1
	if i != last {
		s.elems[i] = s.elems[last]
		s.keys[Key(s.elems[i])] = i
	}
	s.elems = s.elems[:last]
	delete(s.keys, k)
	return true
}

// Elems returns the elements in insertion order (after removals the order of
// the tail may differ). The slice is a copy.
func (s *Set) Elems() []Value { return append([]Value(nil), s.elems...) }

// Each calls f for each element.
func (s *Set) Each(f func(Value)) {
	for _, e := range s.elems {
		f(e)
	}
}

// String implements Value; elements print in canonical (sorted-key) order so
// equal sets print identically.
func (s *Set) String() string { return containerString(s) }

// ---------------------------------------------------------------------------
// Variant values
// ---------------------------------------------------------------------------

// Tag is a variant value: the named alternative carrying a payload.
type Tag struct {
	Label   string
	Payload Value
}

// NewTag returns the variant value Label(payload).
func NewTag(label string, payload Value) *Tag { return &Tag{Label: label, Payload: payload} }

// Kind implements Value.
func (*Tag) Kind() Kind { return KindTag }

// String implements Value.
func (t *Tag) String() string { return containerString(t) }

// containerString renders a record, list, set or tag in the paper's
// notation. It terminates on cyclic values, writing a container found on
// its own path as the key does (see AppendKey): r = {a = 1, self = r}
// prints as {a = 1, self = ^1}.
func containerString(v Value) string {
	return string(appendString(nil, v, map[Value]int{}, 0))
}

// appendString appends v's rendering, v being depth containers deep on
// path (see backRef).
func appendString(dst []byte, v Value, path map[Value]int, depth int) []byte {
	switch v.(type) {
	case *Record, *List, *Set, *Tag:
	default:
		return append(dst, v.String()...)
	}
	if dst, ok := backRef(dst, v, path, depth); ok {
		return dst
	}
	switch vv := v.(type) {
	case *Record:
		dst = append(dst, '{')
		for i, l := range vv.Shape().labels {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendString(append(append(dst, l...), " = "...), vv.values[i], path, depth+1)
		}
		dst = append(dst, '}')
	case *List:
		dst = append(dst, "list("...)
		for i, e := range vv.Elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendString(dst, e, path, depth+1)
		}
		dst = append(dst, ')')
	case *Set:
		type keyed struct {
			key string
			v   Value
		}
		elems := make([]keyed, len(vv.elems))
		for i, e := range vv.elems {
			elems[i] = keyed{Key(e), e}
		}
		slices.SortFunc(elems, func(x, y keyed) int { return strings.Compare(x.key, y.key) })
		dst = append(dst, '{')
		for i, e := range elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendString(dst, e.v, path, depth+1)
		}
		dst = append(dst, '}')
	case *Tag:
		dst = append(appendString(append(append(dst, vv.Label...), '('), vv.Payload, path, depth+1), ')')
	}
	delete(path, v)
	return dst
}

// ---------------------------------------------------------------------------
// Copy, equality, canonical keys
// ---------------------------------------------------------------------------

// Copy deep-copies containers and shares atoms. Opaque values are shared.
// The copy keeps the input's sharing: a container reached along several
// paths, or along a cycle, is copied once. So the copy of a DAG is a DAG
// of as many fresh containers, and the copy of a cycle is a cycle. The
// memo starts on the stack, so copying a value of a few containers
// allocates only the copy.
func Copy(v Value) Value {
	return copyValue(v, map[Value]Value{})
}

// copyValue copies v, memo mapping each container copied to its copy.
func copyValue(v Value, memo map[Value]Value) Value {
	switch v.(type) {
	case *Record, *List, *Set, *Tag:
		if out, ok := memo[v]; ok {
			return out
		}
	}
	switch vv := v.(type) {
	case *Record:
		out := &Record{shape: vv.shape, values: make([]Value, len(vv.values))}
		memo[v] = out
		for i, f := range vv.values {
			out.values[i] = copyValue(f, memo)
		}
		return out
	case *List:
		out := &List{Elems: make([]Value, len(vv.Elems))}
		memo[v] = out
		for i, e := range vv.Elems {
			out.Elems[i] = copyValue(e, memo)
		}
		return out
	case *Set:
		out := NewSet()
		memo[v] = out
		for _, e := range vv.elems {
			out.Add(copyValue(e, memo))
		}
		return out
	case *Tag:
		out := &Tag{Label: vv.Label}
		memo[v] = out
		out.Payload = copyValue(vv.Payload, memo)
		return out
	default:
		return v
	}
}

// Equal reports deep structural equality, which is exactly Key(a) ==
// Key(b). Int and Float atoms are never equal to each other even when
// numerically equal, mirroring the type distinction; Floats compare by
// their bits, so 0.0 and -0.0 differ and a NaN equals itself. Opaque values
// are equal only when identical.
//
// Atoms are decided by kind and value. Containers compare their keys,
// written into stack scratch, so a record the size of a database tuple is
// compared without allocating.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Float:
		y, ok := b.(Float)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case String:
		y, ok := b.(String)
		return ok && x == y
	case Bool:
		y, ok := b.(Bool)
		return ok && x == y
	case *Record, *List, *Set, *Tag, *TypeVal:
		if a == b {
			return true
		}
		var sa, sb [keyScratch]byte
		return bytes.Equal(AppendKey(sa[:0], a), AppendKey(sb[:0], b))
	default:
		// Unit, ⊥ and opaque values are equal only to themselves.
		return a == b
	}
}

// AtomKey identifies an Int, Float, String or Bool atom by its kind and
// contents, so a map can hash atoms without formatting them. Two atoms have
// equal AtomKeys exactly when Equal holds between them. Interface == on a
// Value is not a substitute: there NaN ≠ NaN and −0 = +0.
type AtomKey struct {
	kind Kind
	bits uint64 // the Int's bits, the Float's Float64bits, or 1 for true
	str  string
}

// AtomKeyOf returns v's AtomKey, reporting false when v is not an Int,
// Float, String or Bool.
func AtomKeyOf(v Value) (AtomKey, bool) {
	switch x := v.(type) {
	case Int:
		return AtomKey{kind: KindInt, bits: uint64(x)}, true
	case Float:
		return AtomKey{kind: KindFloat, bits: math.Float64bits(float64(x))}, true
	case String:
		return AtomKey{kind: KindString, str: string(x)}, true
	case Bool:
		k := AtomKey{kind: KindBool}
		if x {
			k.bits = 1
		}
		return k, true
	}
	return AtomKey{}, false
}

// keyScratch is the stack buffer size callers give AppendKey: room for the
// key of a record with a handful of atomic fields, so the common probe never
// reaches the heap.
const keyScratch = 128

// Key returns a canonical string for v: structurally equal values share a
// key and distinct values practically never collide. Set elements are
// ordered by their own keys, so the key is order-insensitive for sets.
func Key(v Value) string {
	var buf [keyScratch]byte
	return string(AppendKey(buf[:0], v))
}

// AppendKey appends Key(v) to dst and returns the extended buffer. A map
// keyed by Key is probed without allocating as m[string(AppendKey(buf, v))].
//
// AppendKey terminates on cyclic values. A value nested fewer than
// pathFrom containers deep is keyed as it is. A deeper one, and so every
// cyclic one, is keyed again from the top, keeping the path of records,
// lists, sets and tags the key is inside, and a container found on that
// path is written as a back-reference, ^k, k being how many
// levels up the container encloses itself: r = {a = 1, self = r} keys as
// {1:a=i1,4:self=^1}. No key of an acyclic value holds a back-reference,
// so those keys are unchanged, and two cyclic values have equal keys
// exactly when they unroll to the same tree up to the same
// back-references. Two separately built copies of r are therefore Equal. A
// value that folds the same infinite tree differently is not: r' = {a = 1,
// self = {a = 1, self = r'}} has the back-reference ^2 where r has ^1, so
// Equal(r, r') is false while Leq, which is coinductive, holds both ways.
func AppendKey(dst []byte, v Value) []byte {
	if out, ok := appendKey(dst, v, nil, 0); ok {
		return out
	}
	out, _ := appendKey(dst, v, map[Value]int{}, 0)
	return out
}

// appendKey is AppendKey for v, depth containers deep on path (see
// backRef). Without a path it gives up, reporting false, at the first
// container pathFrom deep.
func appendKey(dst []byte, v Value, path map[Value]int, depth int) ([]byte, bool) {
	switch vv := v.(type) {
	case Int:
		return strconv.AppendInt(append(dst, 'i'), int64(vv), 10), true
	case Float:
		return strconv.AppendUint(append(dst, 'f'), math.Float64bits(float64(vv)), 16), true
	case String:
		return appendLenPrefixed(append(dst, 's'), string(vv)), true
	case Bool:
		if vv {
			return append(dst, "bt"...), true
		}
		return append(dst, "bf"...), true
	case unitValue:
		return append(dst, 'u'), true
	case bottomValue:
		return append(dst, "⊥"...), true
	case *TypeVal:
		return append(append(append(dst, "T<"...), types.Key(vv.T)...), '>'), true
	case *Record, *List, *Set, *Tag:
		// Containers are written below, on the path.
	default:
		// Opaque values: identity only, as their address. They never meet
		// the order's hot paths, so this is the one key fmt still writes.
		return fmt.Appendf(dst, "opaque%p", v), true
	}
	if path == nil && depth >= pathFrom {
		return dst, false
	}
	if dst, ok := backRef(dst, v, path, depth); ok {
		return dst, true
	}
	// Only a walk without a path gives up, so a path never needs its
	// entry taken off on the way out of one.
	ok := true
	switch vv := v.(type) {
	case *Record:
		dst = append(dst, '{')
		for i, l := range vv.Shape().labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendLenPrefixed(dst, l), '=')
			if dst, ok = appendKey(dst, vv.values[i], path, depth+1); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	case *List:
		dst = append(dst, "l("...)
		for i, e := range vv.Elems {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = appendKey(dst, e, path, depth+1); !ok {
				return dst, false
			}
		}
		dst = append(dst, ')')
	case *Set:
		// Write every element's key once past the prefix, then copy them
		// back in sorted order.
		dst = append(dst, "S("...)
		start := len(dst)
		spans := make([][2]int, len(vv.elems))
		for i, e := range vv.elems {
			spans[i][0] = len(dst)
			if dst, ok = appendKey(dst, e, path, depth+1); !ok {
				return dst, false
			}
			spans[i][1] = len(dst)
		}
		slices.SortFunc(spans, func(x, y [2]int) int {
			return bytes.Compare(dst[x[0]:x[1]], dst[y[0]:y[1]])
		})
		sorted := make([]byte, 0, len(dst)-start+len(spans))
		for i, sp := range spans {
			if i > 0 {
				sorted = append(sorted, ',')
			}
			sorted = append(sorted, dst[sp[0]:sp[1]]...)
		}
		dst = append(append(dst[:start], sorted...), ')')
	case *Tag:
		dst = append(appendLenPrefixed(append(dst, 't'), vv.Label), '(')
		if dst, ok = appendKey(dst, vv.Payload, path, depth+1); !ok {
			return dst, false
		}
		dst = append(dst, ')')
	}
	delete(path, v)
	return dst, true
}

// backRef appends ^k and reports true when the container v is on the
// path, k levels up from depth; otherwise it puts v on the path, which
// maps each container the walk is inside to its depth, and the caller
// takes it off on the way out. Keys and String write the same
// back-references. A nil path is the plain key walk.
func backRef(dst []byte, v Value, path map[Value]int, depth int) ([]byte, bool) {
	if path == nil {
		return dst, false
	}
	if at, ok := path[v]; ok {
		return strconv.AppendInt(append(dst, '^'), int64(depth-at), 10), true
	}
	path[v] = depth
	return dst, false
}

// appendLenPrefixed appends len(s), a colon and s.
func appendLenPrefixed(dst []byte, s string) []byte {
	return append(append(strconv.AppendInt(dst, int64(len(s)), 10), ':'), s...)
}
