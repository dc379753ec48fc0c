package relation

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dbpl/internal/value"
)

// Flat is a classical first-normal-form relation: a set of tuples over a
// fixed attribute schema, every attribute an atom. It is the baseline the
// paper's generalized relations are measured against, and embodies the
// three restrictions the paper lists: tuples are identified by intrinsic
// properties, there is no inheritance, and values are flat.
type Flat struct {
	attrs  []string // sorted schema
	tuples []*value.Record
	index  map[string]int // value.Key -> position
}

// ErrSchema is returned when a tuple does not match the relation's schema
// exactly or has non-atomic attribute values.
var ErrSchema = errors.New("relation: tuple does not match 1NF schema")

// NewFlat returns an empty flat relation over the given attributes.
func NewFlat(attrs ...string) *Flat {
	as := append([]string(nil), attrs...)
	sort.Strings(as)
	return &Flat{attrs: as, index: map[string]int{}}
}

// Len reports the number of tuples.
func (f *Flat) Len() int { return len(f.tuples) }

// Tuples returns the tuples; the slice is fresh but shares the records.
func (f *Flat) Tuples() []*value.Record { return append([]*value.Record(nil), f.tuples...) }

func isAtom(v value.Value) bool {
	switch v.Kind() {
	case value.KindInt, value.KindFloat, value.KindString, value.KindBool:
		return true
	}
	return false
}

// check validates t against the schema: exactly the schema attributes, all
// atomic.
func (f *Flat) check(t *value.Record) error {
	if t.Len() != len(f.attrs) {
		return fmt.Errorf("%w: have %v, want %v", ErrSchema, t.Labels(), f.attrs)
	}
	for _, a := range f.attrs {
		v, ok := t.Get(a)
		if !ok {
			return fmt.Errorf("%w: missing attribute %q", ErrSchema, a)
		}
		if !isAtom(v) {
			return fmt.Errorf("%w: attribute %q is not atomic (first normal form)", ErrSchema, a)
		}
	}
	return nil
}

// Insert adds the tuple; duplicates are ignored (set semantics). An error
// is returned if the tuple violates the schema.
func (f *Flat) Insert(t *value.Record) error {
	if err := f.check(t); err != nil {
		return err
	}
	k := value.Key(t)
	if _, ok := f.index[k]; ok {
		return nil
	}
	f.index[k] = len(f.tuples)
	f.tuples = append(f.tuples, t)
	return nil
}

// Contains reports membership by structural equality.
func (f *Flat) Contains(t *value.Record) bool {
	_, ok := f.index[value.Key(t)]
	return ok
}

// Delete removes the tuple, reporting whether it was present.
func (f *Flat) Delete(t *value.Record) bool {
	k := value.Key(t)
	i, ok := f.index[k]
	if !ok {
		return false
	}
	last := len(f.tuples) - 1
	if i != last {
		f.tuples[i] = f.tuples[last]
		f.index[value.Key(f.tuples[i])] = i
	}
	f.tuples = f.tuples[:last]
	delete(f.index, k)
	return true
}

// NaturalJoin is the classical natural join: tuples agreeing on all shared
// attributes are merged. When the schemas are disjoint it degenerates to
// the Cartesian product.
func NaturalJoin(a, b *Flat) *Flat {
	shared := map[string]bool{}
	for _, x := range a.attrs {
		shared[x] = true
	}
	var common []string
	merged := append([]string(nil), a.attrs...)
	for _, y := range b.attrs {
		if shared[y] {
			common = append(common, y)
		} else {
			merged = append(merged, y)
		}
	}
	out := NewFlat(merged...)
	// Hash join on the common attributes.
	h := map[string][]*value.Record{}
	keyOf := func(t *value.Record) string {
		var sb strings.Builder
		for _, c := range common {
			v, _ := t.Get(c)
			sb.WriteString(value.Key(v))
			sb.WriteByte('|')
		}
		return sb.String()
	}
	for _, t := range a.tuples {
		k := keyOf(t)
		h[k] = append(h[k], t)
	}
	for _, u := range b.tuples {
		for _, t := range h[keyOf(u)] {
			m := t.Copy()
			u.Each(func(l string, v value.Value) { m.Set(l, v) })
			// Safe to ignore the error: both sides satisfied their schemas.
			_ = out.Insert(m)
		}
	}
	return out
}

// ProjectFlat projects onto the given attributes (which must be a subset of
// the schema) with set semantics.
func ProjectFlat(f *Flat, attrs ...string) (*Flat, error) {
	have := map[string]bool{}
	for _, a := range f.attrs {
		have[a] = true
	}
	for _, a := range attrs {
		if !have[a] {
			return nil, fmt.Errorf("%w: projection attribute %q not in schema", ErrSchema, a)
		}
	}
	out := NewFlat(attrs...)
	for _, t := range f.tuples {
		p := value.NewRecord()
		for _, a := range attrs {
			v, _ := t.Get(a)
			p.Set(a, v)
		}
		if err := out.Insert(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SelectFlat returns the tuples satisfying pred.
func SelectFlat(f *Flat, pred func(*value.Record) bool) *Flat {
	out := NewFlat(f.attrs...)
	for _, t := range f.tuples {
		if pred(t) {
			_ = out.Insert(t)
		}
	}
	return out
}

// DiffFlat returns a − b over identical schemas (set difference).
func DiffFlat(a, b *Flat) (*Flat, error) {
	if len(a.attrs) != len(b.attrs) {
		return nil, fmt.Errorf("%w: schemas differ", ErrSchema)
	}
	for i := range a.attrs {
		if a.attrs[i] != b.attrs[i] {
			return nil, fmt.Errorf("%w: schemas differ", ErrSchema)
		}
	}
	out := NewFlat(a.attrs...)
	for _, t := range a.tuples {
		if !b.Contains(t) {
			if err := out.Insert(t); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Generalize converts a flat relation to a generalized one; total tuples
// over the same schema are automatically mutually incomparable (they differ
// somewhere, hence conflict), so no information is lost.
func (f *Flat) Generalize() *Relation {
	return New(recordsToValues(f.tuples)...)
}

// String renders the relation in canonical order.
func (f *Flat) String() string {
	return New(recordsToValues(f.tuples)...).String()
}

func recordsToValues(rs []*value.Record) []value.Value {
	out := make([]value.Value, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}
