// Package types implements the structural type system of Buneman &
// Atkinson's SIGMOD '86 database programming language design: record types
// with width and depth subtyping, covariant lists and sets, contravariant
// functions, variants, Amber-style Dynamic, equi-recursive types, and
// Cardelli–Wegner bounded universal and existential quantification.
//
// Types are ordinary immutable Go values; the subtype order, lattice
// operations (meet/join), a parser, and a canonical printer are provided.
// Decidability is preserved by using Kernel-Fun rules for quantifiers and a
// coinductive (assumption-set) algorithm for recursive types, so every
// type-level computation terminates — a property the paper singles out as
// desirable for database programming languages.
package types

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Kind discriminates the concrete representations of Type.
type Kind int

// The kinds of type in the system.
const (
	KindInvalid Kind = iota
	KindInt          // Int: arbitrary-precision integers (represented as int64)
	KindFloat        // Float: IEEE-754 doubles; Int ≤ Float
	KindString       // String
	KindBool         // Bool
	KindUnit         // Unit: the one-value type
	KindTop          // Top: supertype of every type
	KindBottom       // Bottom: subtype of every type
	KindDynamic      // Dynamic: a value paired with its runtime type (Amber)
	KindTypeRep      // Type: runtime descriptions of types (Amber's typeOf)
	KindRecord       // {l1: T1, ..., ln: Tn}
	KindVariant      // [A: T1, ..., Z: Tn]
	KindList         // List[T]
	KindSet          // Set[T]
	KindFunc         // (T1, ..., Tn) -> U
	KindVar          // a type variable bound by forall/exists/rec
	KindForAll       // forall t <= B . T
	KindExists       // exists t <= B . T
	KindRec          // rec t . T (equi-recursive)
)

var kindNames = map[Kind]string{
	KindInvalid: "Invalid",
	KindInt:     "Int",
	KindFloat:   "Float",
	KindString:  "String",
	KindBool:    "Bool",
	KindUnit:    "Unit",
	KindTop:     "Top",
	KindBottom:  "Bottom",
	KindDynamic: "Dynamic",
	KindTypeRep: "Type",
	KindRecord:  "Record",
	KindVariant: "Variant",
	KindList:    "List",
	KindSet:     "Set",
	KindFunc:    "Func",
	KindVar:     "Var",
	KindForAll:  "ForAll",
	KindExists:  "Exists",
	KindRec:     "Rec",
}

// String returns the kind's name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Type is an immutable description of a set of values. Implementations are
// the *Basic, *Record, *Variant, *List, *Set, *Func, *Var, *Quant and *Rec
// structs below. Two types describing the same set of values may differ as
// Go pointers; use Equal for semantic equality and Subtype for the order.
type Type interface {
	// Kind reports which concrete representation this is.
	Kind() Kind
	// String renders the type in the concrete syntax accepted by Parse.
	String() string
}

// ---------------------------------------------------------------------------
// Basic types
// ---------------------------------------------------------------------------

// islot caches a node's canonical *Interned handle in the node itself, so
// Intern on an already-seen pointer is one atomic load — no global map, no
// eviction policy. Every concrete Type embeds it; the interner fills it on
// first use. Concurrent stores all write the same canonical handle, so the
// race-free atomic is enough.
type islot struct{ h atomic.Pointer[Interned] }

func (s *islot) internSlot() *atomic.Pointer[Interned] { return &s.h }

// Basic is a type with no structure: Int, Float, String, Bool, Unit, Top,
// Bottom, Dynamic and Type (the type of runtime type descriptions).
type Basic struct {
	islot
	kind Kind
}

// Shared instances of every basic type. Because Basic is stateless these are
// safe to compare by pointer, though Equal does not rely on that.
var (
	Int     = &Basic{kind: KindInt}
	Float   = &Basic{kind: KindFloat}
	String  = &Basic{kind: KindString}
	Bool    = &Basic{kind: KindBool}
	Unit    = &Basic{kind: KindUnit}
	Top     = &Basic{kind: KindTop}
	Bottom  = &Basic{kind: KindBottom}
	Dynamic = &Basic{kind: KindDynamic}
	TypeRep = &Basic{kind: KindTypeRep}
)

// Kind implements Type.
func (b *Basic) Kind() Kind { return b.kind }

// String implements Type.
func (b *Basic) String() string { return b.kind.String() }

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

// Field is a single labelled component of a record or variant type.
type Field struct {
	Label string
	Type  Type
}

// Record is a record type {l1: T1, ..., ln: Tn}. Fields are kept sorted by
// label; a record with more fields (or with pointwise-smaller field types)
// is a subtype: {Name: String, Age: Int} ≤ {Name: String}.
type Record struct {
	islot
	fields    []Field
	labelBits uint64 // bit per label hash; see LabelBits
}

// NewRecord builds a record type from the given fields. Labels must be
// distinct; NewRecord panics otherwise, since duplicate labels indicate a
// programming error rather than a recoverable condition.
func NewRecord(fields ...Field) *Record {
	fs, dup, ok := sortFields(fields)
	if ok {
		panic(fmt.Sprintf("types: duplicate record label %q", dup))
	}
	return &Record{fields: fs, labelBits: labelBitsOf(fs)}
}

// sortFields returns a copy of fields sorted by label, and a label that
// occurs more than once, if any.
func sortFields(fields []Field) (fs []Field, dup string, ok bool) {
	fs = make([]Field, len(fields))
	copy(fs, fields)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Label < fs[j].Label })
	for i := 1; i < len(fs); i++ {
		if fs[i].Label == fs[i-1].Label {
			return fs, fs[i].Label, true
		}
	}
	return fs, "", false
}

// LabelBit returns the signature bit for one label: a single set bit chosen
// by hashing the label. Label-set inclusion then has a necessary condition
// on the ORed signatures — a &^ b == 0 whenever labels(a) ⊆ labels(b) — so
// width subtyping and the value-level information order can reject
// incomparable records in one word operation before walking fields.
func LabelBit(label string) uint64 { return 1 << (hashKey(label) & 63) }

func labelBitsOf(fs []Field) uint64 {
	var bits uint64
	for _, f := range fs {
		bits |= LabelBit(f.Label)
	}
	return bits
}

// LabelBits returns the record's precomputed label signature: the OR of
// LabelBit over its labels.
func (r *Record) LabelBits() uint64 { return r.labelBits }

// Kind implements Type.
func (r *Record) Kind() Kind { return KindRecord }

// Len reports the number of fields.
func (r *Record) Len() int { return len(r.fields) }

// Field returns the i'th field in label order.
func (r *Record) Field(i int) Field { return r.fields[i] }

// Fields returns a copy of the fields in label order.
func (r *Record) Fields() []Field {
	fs := make([]Field, len(r.fields))
	copy(fs, r.fields)
	return fs
}

// Lookup returns the type of the named field, if present.
func (r *Record) Lookup(label string) (Type, bool) {
	i := sort.Search(len(r.fields), func(i int) bool { return r.fields[i].Label >= label })
	if i < len(r.fields) && r.fields[i].Label == label {
		return r.fields[i].Type, true
	}
	return nil, false
}

// String implements Type.
func (r *Record) String() string { return fieldString(r.fields, "{", "}") }

// ---------------------------------------------------------------------------
// Variants
// ---------------------------------------------------------------------------

// Variant is a tagged-union type [A: T1, ..., Z: Tn]. A variant with fewer
// tags is a subtype: [Circle: Float] ≤ [Circle: Float, Square: Float].
type Variant struct {
	islot
	fields    []Field
	labelBits uint64 // bit per tag hash; see LabelBits on Record
}

// NewVariant builds a variant type. Tags must be distinct; NewVariant panics
// otherwise.
func NewVariant(tags ...Field) *Variant {
	fs, dup, ok := sortFields(tags)
	if ok {
		panic(fmt.Sprintf("types: duplicate variant tag %q", dup))
	}
	return &Variant{fields: fs, labelBits: labelBitsOf(fs)}
}

// Kind implements Type.
func (v *Variant) Kind() Kind { return KindVariant }

// Len reports the number of tags.
func (v *Variant) Len() int { return len(v.fields) }

// Tag returns the i'th tag in label order.
func (v *Variant) Tag(i int) Field { return v.fields[i] }

// Lookup returns the type carried by the named tag, if present.
func (v *Variant) Lookup(tag string) (Type, bool) {
	i := sort.Search(len(v.fields), func(i int) bool { return v.fields[i].Label >= tag })
	if i < len(v.fields) && v.fields[i].Label == tag {
		return v.fields[i].Type, true
	}
	return nil, false
}

// String implements Type.
func (v *Variant) String() string { return fieldString(v.fields, "[", "]") }

func fieldString(fs []Field, open, close string) string {
	var b strings.Builder
	b.WriteString(open)
	for i, f := range fs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Label)
		b.WriteString(": ")
		b.WriteString(f.Type.String())
	}
	b.WriteString(close)
	return b.String()
}

// ---------------------------------------------------------------------------
// Lists and sets
// ---------------------------------------------------------------------------

// List is the type List[T] of finite sequences of T. Covariant.
type List struct {
	islot
	Elem Type
}

// NewList returns List[elem].
func NewList(elem Type) *List { return &List{Elem: elem} }

// Kind implements Type.
func (l *List) Kind() Kind { return KindList }

// String implements Type.
func (l *List) String() string { return "List[" + l.Elem.String() + "]" }

// Set is the type Set[T] of finite sets of T. Covariant.
type Set struct {
	islot
	Elem Type
}

// NewSet returns Set[elem].
func NewSet(elem Type) *Set { return &Set{Elem: elem} }

// Kind implements Type.
func (s *Set) Kind() Kind { return KindSet }

// String implements Type.
func (s *Set) String() string { return "Set[" + s.Elem.String() + "]" }

// ---------------------------------------------------------------------------
// Functions
// ---------------------------------------------------------------------------

// Func is the type (P1, ..., Pn) -> R. Parameters are contravariant and the
// result covariant, as usual.
type Func struct {
	islot
	Params []Type
	Result Type
}

// NewFunc returns the function type with the given parameters and result.
func NewFunc(params []Type, result Type) *Func {
	ps := make([]Type, len(params))
	copy(ps, params)
	return &Func{Params: ps, Result: result}
}

// Kind implements Type.
func (f *Func) Kind() Kind { return KindFunc }

// String implements Type.
func (f *Func) String() string {
	var b strings.Builder
	if len(f.Params) == 1 && parenFree(f.Params[0]) {
		b.WriteString(f.Params[0].String())
	} else {
		b.WriteByte('(')
		for i, p := range f.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		b.WriteByte(')')
	}
	b.WriteString(" -> ")
	b.WriteString(f.Result.String())
	return b.String()
}

// parenFree reports whether t prints unambiguously as a sole function
// parameter without surrounding parentheses.
func parenFree(t Type) bool {
	switch t.Kind() {
	case KindFunc, KindForAll, KindExists, KindRec:
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Type variables and binders
// ---------------------------------------------------------------------------

// Var is an occurrence of a type variable bound by an enclosing ForAll,
// Exists or Rec binder with the same Name. Free variables (no enclosing
// binder) are permitted in intermediate forms but are not subtypes of
// anything except via their bound in a Context.
type Var struct {
	islot
	Name string
}

// NewVar returns a variable occurrence with the given name.
func NewVar(name string) *Var { return &Var{Name: name} }

// Kind implements Type.
func (v *Var) Kind() Kind { return KindVar }

// String implements Type.
func (v *Var) String() string { return v.Name }

// Quant is a bounded quantified type: forall t <= Bound . Body or
// exists t <= Bound . Body, depending on kind (KindForAll or KindExists).
// The unbounded forms use Top as the bound.
type Quant struct {
	islot
	kind  Kind
	Param string
	Bound Type
	Body  Type
}

// NewForAll returns forall param <= bound . body. A nil bound means Top.
func NewForAll(param string, bound, body Type) *Quant {
	if bound == nil {
		bound = Top
	}
	return &Quant{kind: KindForAll, Param: param, Bound: bound, Body: body}
}

// NewExists returns exists param <= bound . body. A nil bound means Top.
//
// The paper's generic extraction function has exactly this shape in its
// result: Get : forall t . Database -> List[exists t' <= t . t'].
func NewExists(param string, bound, body Type) *Quant {
	if bound == nil {
		bound = Top
	}
	return &Quant{kind: KindExists, Param: param, Bound: bound, Body: body}
}

// Kind implements Type.
func (q *Quant) Kind() Kind { return q.kind }

// String implements Type.
func (q *Quant) String() string {
	kw := "forall"
	if q.kind == KindExists {
		kw = "exists"
	}
	if q.Bound.Kind() == KindTop {
		return fmt.Sprintf("%s %s . %s", kw, q.Param, q.Body)
	}
	return fmt.Sprintf("%s %s <= %s . %s", kw, q.Param, q.Bound, q.Body)
}

// Rec is an equi-recursive type rec t . Body, equal to its own unfolding
// Body[t := rec t . Body]. It lets schemas such as the paper's Part type —
// parts whose components are themselves parts — be expressed directly.
type Rec struct {
	islot
	Param string
	Body  Type

	unfold atomic.Value // Type; memoized Unfold
}

// NewRec returns rec param . body.
func NewRec(param string, body Type) *Rec { return &Rec{Param: param, Body: body} }

// Kind implements Type.
func (r *Rec) Kind() Kind { return KindRec }

// String implements Type.
func (r *Rec) String() string { return fmt.Sprintf("rec %s . %s", r.Param, r.Body) }

// Unfold returns Body with the bound variable replaced by the Rec itself.
// The result is memoized: the coinductive subtype algorithm unfolds the same
// Rec on every pass through a cycle, and a stable unfolding means the
// interner's pointer memo (and hence the assumption set) sees one pointer per
// cycle instead of a fresh substitution each time.
func (r *Rec) Unfold() Type {
	if u := r.unfold.Load(); u != nil {
		return u.(Type)
	}
	u := Substitute(r.Body, r.Param, r)
	r.unfold.Store(u)
	return u
}
