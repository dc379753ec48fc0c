package types

// This file implements the lattice structure on types: least upper bounds
// (Join), greatest lower bounds (Meet), and the consistency test the paper
// uses for schema evolution — two types are consistent when they have a
// common subtype with at least one value, so a database handle written at
// one type may be reopened at the other and the schema enriched to the meet.

// meetFuel bounds the unfolding of recursive types during Meet/Join. The
// subtype relation itself is exact (coinductive); the lattice operations on
// recursive types are approximated conservatively: if the bound is exceeded
// Join widens to Top and Meet reports failure.
const meetFuel = 64

// Join returns the least upper bound of s and t. It always exists because
// Top closes the order; structurally unrelated types join to Top.
func Join(s, t Type) Type { return join(s, t, meetFuel) }

func join(s, t Type, fuel int) Type {
	if Subtype(s, t) {
		return t
	}
	if Subtype(t, s) {
		return s
	}
	if fuel <= 0 {
		return Top
	}
	if r, ok := s.(*Rec); ok {
		return join(r.Unfold(), t, fuel-1)
	}
	if r, ok := t.(*Rec); ok {
		return join(s, r.Unfold(), fuel-1)
	}
	switch st := s.(type) {
	case *Basic:
		// Int/Float handled by the subtype fast paths above; anything that
		// reaches here is unrelated.
		return Top
	case *Record:
		tr, ok := t.(*Record)
		if !ok {
			return Top
		}
		// Width: keep only the common labels; depth: join their types.
		var fs []Field
		for i := 0; i < st.Len(); i++ {
			f := st.Field(i)
			if ot, ok := tr.Lookup(f.Label); ok {
				fs = append(fs, Field{Label: f.Label, Type: join(f.Type, ot, fuel-1)})
			}
		}
		return NewRecord(fs...)
	case *Variant:
		tv, ok := t.(*Variant)
		if !ok {
			return Top
		}
		// Union of tags, joining the payloads of shared tags.
		merged := map[string]Type{}
		for i := 0; i < st.Len(); i++ {
			f := st.Tag(i)
			merged[f.Label] = f.Type
		}
		for i := 0; i < tv.Len(); i++ {
			f := tv.Tag(i)
			if prev, ok := merged[f.Label]; ok {
				merged[f.Label] = join(prev, f.Type, fuel-1)
			} else {
				merged[f.Label] = f.Type
			}
		}
		fs := make([]Field, 0, len(merged))
		for l, ty := range merged {
			fs = append(fs, Field{Label: l, Type: ty})
		}
		return NewVariant(fs...)
	case *List:
		tl, ok := t.(*List)
		if !ok {
			return Top
		}
		return NewList(join(st.Elem, tl.Elem, fuel-1))
	case *Set:
		ts, ok := t.(*Set)
		if !ok {
			return Top
		}
		return NewSet(join(st.Elem, ts.Elem, fuel-1))
	case *Func:
		tf, ok := t.(*Func)
		if !ok || len(st.Params) != len(tf.Params) {
			return Top
		}
		ps := make([]Type, len(st.Params))
		for i := range ps {
			p, ok := meet(st.Params[i], tf.Params[i], fuel-1)
			if !ok {
				return Top
			}
			ps[i] = p
		}
		return &Func{Params: ps, Result: join(st.Result, tf.Result, fuel-1)}
	default:
		// Quantified types and variables: no useful bound short of Top
		// unless they are equal, which the fast paths covered.
		return Top
	}
}

// Meet returns the greatest lower bound of s and t and reports whether it is
// inhabited. ok is false when the only common subtype is (equivalent to)
// Bottom — e.g. Int vs String, or records that disagree on a field — in
// which case the returned type is Bottom.
func Meet(s, t Type) (Type, bool) { return meet(s, t, meetFuel) }

func meet(s, t Type, fuel int) (Type, bool) {
	if Subtype(s, t) {
		return s, s.Kind() != KindBottom
	}
	if Subtype(t, s) {
		return t, t.Kind() != KindBottom
	}
	if fuel <= 0 {
		return Bottom, false
	}
	if r, ok := s.(*Rec); ok {
		return meet(r.Unfold(), t, fuel-1)
	}
	if r, ok := t.(*Rec); ok {
		return meet(s, r.Unfold(), fuel-1)
	}
	switch st := s.(type) {
	case *Record:
		tr, ok := t.(*Record)
		if !ok {
			return Bottom, false
		}
		// Union of labels; common labels must not conflict, since a record
		// type with a field no value fits is itself empty. A field already
		// Bottom on one side meets at Bottom, as the subtype fast path above
		// answers {A: Bottom} ⊓ {A: Int} = {A: Bottom}: the record ⊥ fills
		// there (TypeOf({A = ⊥}) is {A: Bottom}) inhabits it.
		merged := map[string]Type{}
		for i := 0; i < st.Len(); i++ {
			f := st.Field(i)
			merged[f.Label] = f.Type
		}
		for i := 0; i < tr.Len(); i++ {
			f := tr.Field(i)
			if prev, ok := merged[f.Label]; ok {
				m, ok := meet(prev, f.Type, fuel-1)
				if !ok && !eitherBottom(prev, f.Type) {
					return Bottom, false
				}
				merged[f.Label] = m
			} else {
				merged[f.Label] = f.Type
			}
		}
		fs := make([]Field, 0, len(merged))
		for l, ty := range merged {
			fs = append(fs, Field{Label: l, Type: ty})
		}
		return NewRecord(fs...), true
	case *Variant:
		tv, ok := t.(*Variant)
		if !ok {
			return Bottom, false
		}
		// Intersection of tags; a variant with no tags is empty. A tag
		// whose payload is Bottom on one side stays, at Bottom, as a field
		// of a record does.
		var fs []Field
		for i := 0; i < st.Len(); i++ {
			f := st.Tag(i)
			if ot, ok := tv.Lookup(f.Label); ok {
				if m, ok := meet(f.Type, ot, fuel-1); ok || eitherBottom(f.Type, ot) {
					fs = append(fs, Field{Label: f.Label, Type: m})
				}
			}
		}
		if len(fs) == 0 {
			return Bottom, false
		}
		return NewVariant(fs...), true
	case *List:
		tl, ok := t.(*List)
		if !ok {
			return Bottom, false
		}
		// List[Bottom] is inhabited (by the empty list), so an uninhabited
		// element meet does not make the list meet fail.
		m, ok := meet(st.Elem, tl.Elem, fuel-1)
		if !ok {
			m = Bottom
		}
		return NewList(m), true
	case *Set:
		ts, ok := t.(*Set)
		if !ok {
			return Bottom, false
		}
		m, ok := meet(st.Elem, ts.Elem, fuel-1)
		if !ok {
			m = Bottom
		}
		return NewSet(m), true
	case *Func:
		tf, ok := t.(*Func)
		if !ok || len(st.Params) != len(tf.Params) {
			return Bottom, false
		}
		ps := make([]Type, len(st.Params))
		for i := range ps {
			ps[i] = join(st.Params[i], tf.Params[i], fuel-1)
		}
		r, ok := meet(st.Result, tf.Result, fuel-1)
		if !ok {
			return Bottom, false
		}
		return &Func{Params: ps, Result: r}, true
	default:
		return Bottom, false
	}
}

// eitherBottom reports whether s or t is Bottom.
func eitherBottom(s, t Type) bool { return s.Kind() == KindBottom || t.Kind() == KindBottom }

// Consistent reports whether s and t have a common inhabited subtype. The
// paper: a handle stored at DBType may be reopened at DBType' when DBType is
// "consistent with it, i.e. there is a common subtype of both", enriching
// the database's schema to the meet.
func Consistent(s, t Type) bool {
	_, ok := Meet(s, t)
	return ok
}
