package value

import (
	"errors"
	"fmt"
)

// This file implements the paper's "Inheritance on Values" section: the
// information ordering ⊑ on objects, the partial join ⊔ ("adding
// information"), and the total meet ⊓ (the information two objects agree
// on). Records are ordered as partial functions: o ⊑ o' holds when o' has
// every field of o with a pointwise-greater value — o' was obtained from o
// by adding new fields or better defining existing ones.

// ErrConflict is returned (wrapped) by Join when the two objects disagree on
// a common component — e.g. joining {Name = 'J Doe'} with {Name = 'K Smith'}
// — so no object contains the information of both.
var ErrConflict = errors.New("value: join conflict")

// Leq reports o ⊑ o': every piece of information in o is also in o'.
// ⊥ ⊑ v for all v; atoms and type values are ordered discretely, so that ⊑
// agrees with Equal on them; records by field inclusion
// with pointwise Leq; lists pointwise at equal length; tags by equal label
// and payload Leq; sets by the paper's relation ordering (each element of
// the larger is above some element of the smaller).
func Leq(o, op Value) bool {
	if o.Kind() == KindBottom {
		return true
	}
	switch a := o.(type) {
	case Int, Float, String, Bool, unitValue, *TypeVal:
		return Equal(o, op)
	case *Record:
		b, ok := op.(*Record)
		if !ok || len(a.labels) > len(b.labels) {
			return false
		}
		// a ⊑ b needs labels(a) ⊆ labels(b); the precomputed signatures
		// reject a missing label in one word operation.
		if a.labelBits&^b.labelBits != 0 {
			return false
		}
		// Both label slices are sorted, so one merge finds each of a's
		// labels in b.
		j := 0
		for i, l := range a.labels {
			for j < len(b.labels) && b.labels[j] < l {
				j++
			}
			if j == len(b.labels) || b.labels[j] != l || !Leq(a.values[i], b.values[j]) {
				return false
			}
			j++
		}
		return true
	case *List:
		b, ok := op.(*List)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Leq(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case *Tag:
		b, ok := op.(*Tag)
		return ok && a.Label == b.Label && Leq(a.Payload, b.Payload)
	case *Set:
		b, ok := op.(*Set)
		if !ok {
			return false
		}
		return SetLeq(a, b)
	default:
		return o == op
	}
}

// SetLeq is the paper's ordering on relations: R ⊑ R' iff for every object
// o' in R' there is an object o in R with o ⊑ o' — every member of R' is
// more informative than some member of R.
func SetLeq(r, rp *Set) bool {
	for _, op := range rp.elems {
		found := false
		for _, o := range r.elems {
			if Leq(o, op) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Comparable reports whether o ⊑ o' or o' ⊑ o. Generalized relations forbid
// comparable pairs (they are cochains).
func Comparable(o, op Value) bool { return Leq(o, op) || Leq(op, o) }

// Join returns the least object containing the information of both a and b,
// or an error wrapping ErrConflict when they disagree on a common component.
// Joining records merges their fields; this is the paper's mechanism for
// turning a Person into an Employee by "adding information":
//
//	{Name = 'J Doe'} ⊔ {Emp_no = 1234} = {Name = 'J Doe', Emp_no = 1234}
func Join(a, b Value) (Value, error) {
	if a.Kind() == KindBottom {
		return b, nil
	}
	if b.Kind() == KindBottom {
		return a, nil
	}
	switch av := a.(type) {
	case Int, Float, String, Bool, unitValue, *TypeVal:
		if Equal(a, b) {
			return a, nil
		}
		return nil, conflict(a, b)
	case *Record:
		bv, ok := b.(*Record)
		if !ok {
			return nil, conflict(a, b)
		}
		out := NewRecordCap(len(av.labels) + len(bv.labels))
		for i, l := range av.labels {
			out.Set(l, av.values[i])
		}
		var err error
		bv.Each(func(l string, v Value) {
			if err != nil {
				return
			}
			if prev, ok := out.Get(l); ok {
				j, jerr := Join(prev, v)
				if jerr != nil {
					err = fmt.Errorf("field %s: %w", l, jerr)
					return
				}
				out.Set(l, j)
			} else {
				out.Set(l, v)
			}
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return nil, conflict(a, b)
		}
		out := &List{Elems: make([]Value, len(av.Elems))}
		for i := range av.Elems {
			j, err := Join(av.Elems[i], bv.Elems[i])
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out.Elems[i] = j
		}
		return out, nil
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return nil, conflict(a, b)
		}
		p, err := Join(av.Payload, bv.Payload)
		if err != nil {
			return nil, err
		}
		return NewTag(av.Label, p), nil
	case *Set:
		bv, ok := b.(*Set)
		if !ok {
			return nil, conflict(a, b)
		}
		return SetJoin(av, bv), nil
	default:
		if a == b {
			return a, nil
		}
		return nil, conflict(a, b)
	}
}

func conflict(a, b Value) error {
	return fmt.Errorf("%w: %s vs %s", ErrConflict, a, b)
}

// SetJoin is the least upper bound of two sets under the relation ordering:
// all pairwise element joins that succeed, reduced to mutually incomparable
// maximal elements. Applied to generalized relations it is exactly the
// generalized natural join of the paper's Figure 1.
func SetJoin(a, b *Set) *Set {
	var joined []Value
	for _, x := range a.elems {
		for _, y := range b.elems {
			if j, err := Join(x, y); err == nil {
				joined = append(joined, j)
			}
		}
	}
	return NewSet(Maximal(joined)...)
}

// Maximal returns the elements of vs that are not strictly below any other
// element — the cochain of maximal elements — in a fresh slice, in input
// order. Of duplicates, and of mutually-⊑ pairs (possible only through
// sets), the first occurrence is kept.
//
// For record-only inputs of more than 32 elements the quadratic scan is
// pruned by two facts. r ⊑ r' requires labels(r) ⊆ labels(r'), so only the
// records of a label-superset group can dominate r. And two records whose
// common atomic field differs are incomparable, so each group is bucketed
// on its discriminator: of the labels atomic in every member, the one with
// the most distinct atoms, the first in label order on a tie. r is then
// compared only with the bucket holding its own atom there. maximalNaive is
// the reference implementation (property-tested and fuzzed equal).
func Maximal(vs []Value) []Value {
	if len(vs) <= 32 {
		return maximalNaive(vs)
	}
	for _, v := range vs {
		if _, ok := v.(*Record); !ok {
			return maximalNaive(vs) // mixed kinds: rare, keep it simple
		}
	}
	return maximalRecords(vs)
}

// maximalNaive is the direct O(n²) definition.
func maximalNaive(vs []Value) []Value {
	var out []Value
	for i, v := range vs {
		dominated := false
		for j, w := range vs {
			if i == j {
				continue
			}
			if Leq(v, w) && !Leq(w, v) {
				dominated = true
				break
			}
			// For equal pairs keep only the first occurrence.
			if j < i && Leq(v, w) && Leq(w, v) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

// sigGroup collects the records sharing one label set.
type sigGroup struct {
	labels []string
	bits   uint64 // label signature of the shared label set
	// members in input order, with their input positions, which tell a
	// member from its duplicates and decide the first-occurrence rule.
	recs []*Record
	idx  []int
	// disc is the group's discriminator ("" when none is needed or no
	// label is atomic in every member). heads maps each of its atoms to one
	// plus the first member holding it; next chains each member to the one
	// after it holding the same atom, -1 at the last. Oldest first, a
	// duplicate meets its first occurrence at once.
	disc  string
	heads map[AtomKey]int
	next  []int
}

// bucket picks g's discriminator and chains its members by their atom
// there. seen is scratch for counting distinct atoms.
func (g *sigGroup) bucket(seen map[AtomKey]struct{}) {
	if len(g.recs) < 2 {
		return // a lone member is its own bucket
	}
	best, most := -1, 0
	for i := range g.labels {
		clear(seen)
		for _, r := range g.recs {
			k, ok := AtomKeyOf(r.values[i])
			if !ok {
				clear(seen)
				break
			}
			seen[k] = struct{}{}
		}
		if len(seen) > most {
			best, most = i, len(seen)
			if most == len(g.recs) {
				break // every atom distinct: no label does better
			}
		}
	}
	if best < 0 {
		return
	}
	g.disc = g.labels[best]
	g.heads = make(map[AtomKey]int, most)
	g.next = make([]int, len(g.recs))
	for j := len(g.recs) - 1; j >= 0; j-- {
		k, _ := AtomKeyOf(g.recs[j].values[best])
		g.next[j] = g.heads[k] - 1
		g.heads[k] = j + 1
	}
}

func maximalRecords(vs []Value) []Value {
	// Group by label set.
	groups := map[string]*sigGroup{}
	var buf [keyScratch]byte
	for i, v := range vs {
		r := v.(*Record)
		sig := buf[:0]
		for _, l := range r.labels {
			sig = append(append(sig, l...), 0)
		}
		g, ok := groups[string(sig)]
		if !ok {
			g = &sigGroup{labels: r.labels, bits: r.labelBits}
			groups[string(sig)] = g
		}
		g.recs = append(g.recs, r)
		g.idx = append(g.idx, i)
	}
	seen := map[AtomKey]struct{}{}
	for _, g := range groups {
		g.bucket(seen)
	}
	// For each record, search for a dominator among label-superset groups.
	subset := func(a, b []string) bool { // a ⊆ b, both sorted
		i := 0
		for _, l := range a {
			for i < len(b) && b[i] < l {
				i++
			}
			if i >= len(b) || b[i] != l {
				return false
			}
			i++
		}
		return true
	}
	dominatedBy := func(r *Record, rIdx int, g *sigGroup) bool {
		check := func(j int) bool {
			if g.idx[j] == rIdx {
				return false // r itself
			}
			w := g.recs[j]
			// Of mutually-⊑ records, duplicates included, the first
			// occurrence wins.
			return Leq(r, w) && (!Leq(w, r) || g.idx[j] < rIdx)
		}
		if g.disc != "" {
			// A dominator agrees with r on the discriminator, so when r
			// holds an atom there only that atom's bucket is searched. When
			// r lacks the label, or holds ⊥ or a container there, any
			// member may still be above it.
			if v, ok := r.Get(g.disc); ok {
				if k, ok := AtomKeyOf(v); ok {
					for j := g.heads[k] - 1; j >= 0; j = g.next[j] {
						if check(j) {
							return true
						}
					}
					return false
				}
			}
		}
		for j := range g.recs {
			if check(j) {
				return true
			}
		}
		return false
	}

	var out []Value
	for i, v := range vs {
		r := v.(*Record)
		dominated := false
		for _, g := range groups {
			// Signature prefilter: labels(r) ⊆ g.labels requires r's bits to
			// be covered by the group's bits.
			if r.labelBits&^g.bits != 0 {
				continue
			}
			if len(g.labels) < len(r.labels) || !subset(r.labels, g.labels) {
				continue
			}
			if dominatedBy(r, i, g) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	return out
}

// Meet returns the greatest object whose information is contained in both a
// and b — what the two objects agree on. Unlike Join it is total: objects
// with nothing in common meet at ⊥ (or, for records, at the empty record).
func Meet(a, b Value) Value {
	if a.Kind() == KindBottom || b.Kind() == KindBottom {
		return Bottom
	}
	switch av := a.(type) {
	case Int, Float, String, Bool, unitValue, *TypeVal:
		if Equal(a, b) {
			return a
		}
		return Bottom
	case *Record:
		bv, ok := b.(*Record)
		if !ok {
			return Bottom
		}
		out := NewRecord()
		for i, l := range av.labels {
			if w, ok := bv.Get(l); ok {
				m := Meet(av.values[i], w)
				if m.Kind() != KindBottom {
					out.Set(l, m)
				}
			}
		}
		return out
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return Bottom
		}
		out := &List{Elems: make([]Value, len(av.Elems))}
		for i := range av.Elems {
			out.Elems[i] = Meet(av.Elems[i], bv.Elems[i])
		}
		return out
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return Bottom
		}
		return NewTag(av.Label, Meet(av.Payload, bv.Payload))
	default:
		if a == b {
			return a
		}
		return Bottom
	}
}
