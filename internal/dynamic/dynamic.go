// Package dynamic implements Amber-style dynamic values: a value paired
// with a description of its type. Ordinary values are made dynamic with
// Make and recovered with Coerce, which checks — at run time — that the
// carried type is a subtype of the requested one. In the paper:
//
//	let d = dynamic 3;
//	let i = coerce d to Int;     -- binds 3
//	let s = coerce d to String;  -- raises a run-time exception
//
// Dynamics are the paper's vehicle for both heterogeneous databases (a
// database is a list of dynamics) and replicating persistence (extern
// writes a dynamic so the value's type survives with it, principle P2).
package dynamic

import (
	"fmt"
	"sync/atomic"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Dynamic is a value that carries its own type. It is itself a value (of
// the basic type Dynamic), so dynamics can be stored in records, lists and
// databases like anything else.
type Dynamic struct {
	v  value.Value
	t  types.Type
	in *types.Interned // canonical handle of t, computed at construction
	// img is v's external image once Image has been asked for it: written
	// once, then shared by every holder of the dynamic.
	img atomic.Pointer[[]byte]
}

// Kind implements value.Value.
func (*Dynamic) Kind() value.Kind { return value.KindOpaque }

// String implements value.Value.
func (d *Dynamic) String() string {
	return fmt.Sprintf("dynamic(%s : %s)", d.v, d.t)
}

// Make pairs v with the most specific type that can be computed for it.
func Make(v value.Value) *Dynamic {
	t := value.TypeOf(v)
	return &Dynamic{v: v, t: t, in: types.Intern(t)}
}

// MakeAt pairs v with the declared type t, which must be conformed to; the
// declared type may be a supertype of v's most specific type (this is how a
// statically typed program injects an Employee into a database of Persons
// without losing the record's extra fields — the value keeps them, only the
// label changes).
func MakeAt(v value.Value, t types.Type) (*Dynamic, error) {
	if !value.Conforms(v, t) {
		return nil, &CoerceError{Have: value.TypeOf(v), Want: t}
	}
	return &Dynamic{v: v, t: t, in: types.Intern(t)}, nil
}

// Value returns the carried value without any check. Use Coerce for the
// type-safe accessor.
func (d *Dynamic) Value() value.Value { return d.v }

// Type returns the carried type description — the paper's typeOf function
// on dynamics.
func (d *Dynamic) Type() types.Type { return d.t }

// Interned returns the canonical handle of the carried type. The maintained
// extents are keyed by it, and IsInterned makes the per-candidate subtype
// test a pointer-keyed cache hit.
func (d *Dynamic) Interned() *types.Interned { return d.in }

// Image returns the external image of the carried value, written by
// encode at the first call and returned by every later one. The image is
// never refreshed, so Image is for a dynamic whose value nothing changes
// any more, such as a published root. Callers racing on the first call
// may each run encode; all of them return the image stored first. An
// encode error is returned and nothing is stored.
func (d *Dynamic) Image(encode func(value.Value) ([]byte, error)) ([]byte, error) {
	if p := d.img.Load(); p != nil {
		return *p, nil
	}
	img, err := encode(d.v)
	if err != nil {
		return nil, err
	}
	if !d.img.CompareAndSwap(nil, &img) {
		img = *d.img.Load()
	}
	return img, nil
}

// TypeVal returns the carried type reified as a value of type Type.
func (d *Dynamic) TypeVal() *value.TypeVal { return value.NewTypeVal(d.t) }

// CoerceError reports a failed coercion: the dynamic's type is not a
// subtype of the requested type.
type CoerceError struct {
	Have types.Type // the type carried by the dynamic
	Want types.Type // the type requested by coerce
}

// Error implements error.
func (e *CoerceError) Error() string {
	return fmt.Sprintf("dynamic: cannot coerce %s to %s", e.Have, e.Want)
}

// Coerce reveals the carried value at type want. It succeeds when the
// carried type is a subtype of want (subsumption: a dynamic Employee
// coerces to Person). On failure it returns a *CoerceError, the statically
// typed analogue of Amber's run-time exception.
func (d *Dynamic) Coerce(want types.Type) (value.Value, error) {
	if !types.Subtype(d.t, want) {
		return nil, &CoerceError{Have: d.t, Want: want}
	}
	return d.v, nil
}

// Is reports whether the dynamic's carried type is a subtype of t — the
// test at the heart of the generic Get function.
func (d *Dynamic) Is(t types.Type) bool { return types.SubtypeInterned(d.in, types.Intern(t)) }

// IsInterned is Is with the target already interned, for callers testing
// many dynamics against one type: both cache keys are then pointers the
// caller already holds.
func (d *Dynamic) IsInterned(t *types.Interned) bool { return types.SubtypeInterned(d.in, t) }
