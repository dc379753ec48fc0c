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
// ⊥ ⊑ v for all v; atoms are ordered discretely; records by field inclusion
// with pointwise Leq; lists pointwise at equal length; tags by equal label
// and payload Leq; sets by the paper's relation ordering (each element of
// the larger is above some element of the smaller).
func Leq(o, op Value) bool {
	if o.Kind() == KindBottom {
		return true
	}
	switch a := o.(type) {
	case Int, Float, String, Bool, unitValue:
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
	case Int, Float, String, Bool, unitValue:
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
// element — the cochain of maximal elements. Duplicates (and mutually-⊑
// pairs, possible only through sets) collapse to the first occurrence.
//
// For large record-only inputs the quadratic scan is pruned by two facts:
// r ⊑ r' requires labels(r) ⊆ labels(r'), so only label-superset groups
// can dominate; and two records whose common atomic field differs are
// incomparable, so groups are bucketed by a discriminating atom when one
// exists. maximalNaive is the reference implementation (property-tested
// equal).
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
	// members in input order, with their input indices (for the
	// first-occurrence tie-break on mutually-⊑ pairs).
	recs []*Record
	idx  []int
	// disc is a label whose value is an atom in every member ("" if none);
	// buckets groups members by that atom's key.
	disc    string
	buckets map[string][]int // atom key -> positions in recs
}

func maximalRecords(vs []Value) []Value {
	// Deduplicate by structural key, keeping first occurrences.
	seen := make(map[string]struct{}, len(vs))
	var uniq []*Record
	var uniqIdx []int
	var buf [keyScratch]byte
	for i, v := range vs {
		k := AppendKey(buf[:0], v)
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		uniq = append(uniq, v.(*Record))
		uniqIdx = append(uniqIdx, i)
	}

	// Group by label-set signature.
	groups := map[string]*sigGroup{}
	for i, r := range uniq {
		sig := buf[:0]
		for _, l := range r.labels {
			sig = append(append(sig, l...), 0)
		}
		g, ok := groups[string(sig)]
		if !ok {
			g = &sigGroup{labels: r.Labels(), bits: r.labelBits}
			groups[string(sig)] = g
		}
		g.recs = append(g.recs, r)
		g.idx = append(g.idx, uniqIdx[i])
	}
	// Pick a discriminating atom label per group and bucket by it.
	for _, g := range groups {
		for _, l := range g.labels {
			allAtoms := true
			for _, r := range g.recs {
				v, _ := r.Get(l)
				switch v.Kind() {
				case KindInt, KindFloat, KindString, KindBool:
				default:
					allAtoms = false
				}
				if !allAtoms {
					break
				}
			}
			if allAtoms {
				g.disc = l
				break
			}
		}
		if g.disc != "" {
			g.buckets = map[string][]int{}
			for i, r := range g.recs {
				v, _ := r.Get(g.disc)
				k := AppendKey(buf[:0], v)
				g.buckets[string(k)] = append(g.buckets[string(k)], i)
			}
		}
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
			w := g.recs[j]
			if w == r {
				return false
			}
			if Leq(r, w) {
				if !Leq(w, r) {
					return true
				}
				return g.idx[j] < rIdx // mutual ⊑: first occurrence wins
			}
			return false
		}
		if g.disc != "" {
			// The dominator must agree on the discriminating atom; a
			// candidate r lacking the label (or non-atomic there) cannot be
			// below any member that has an atom in it only if the field
			// would be missing in r — but labels(r) ⊆ labels(w) suffices
			// for domination, and if r lacks disc entirely r can still be
			// below w. Only when r *has* an atom at disc can we restrict to
			// the equal-atom bucket.
			if v, ok := r.Get(g.disc); ok {
				switch v.Kind() {
				case KindInt, KindFloat, KindString, KindBool:
					var kb [keyScratch]byte
					for _, j := range g.buckets[string(AppendKey(kb[:0], v))] {
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
	for i, r := range uniq {
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
			if dominatedBy(r, uniqIdx[i], g) {
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
	case Int, Float, String, Bool, unitValue:
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
