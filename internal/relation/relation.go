// Package relation implements the paper's generalized relations: sets of
// mutually incomparable objects (cochains in the information ordering of
// package value), with insertion by subsumption, a generalized natural join
// — the operation of Figure 1 — projection, selection, keys, and the
// type-as-relation extraction that unifies relational and object-oriented
// database programming. A classical flat (1NF) relation type is provided as
// the baseline the generalization is measured against.
//
// A key proves a cochain. Records that each hold an atom at one label,
// pairwise distinct there, are mutually incomparable: a record below
// another would hold an equal atom there, since atoms are ordered only by
// equality. New finds such a label in one linear probe (value.MaximalIndex)
// and then keeps its input without comparing members, and the join of two
// relations keyed so is a cochain as built (see EachPair).
//
// A relation keeps what the join reads of it: its label set and its
// partitions on the labels a plan reads, built on first use and dropped by
// Insert and Delete, so joining a relation again while it is unchanged
// partitions nothing (see PlanJoin).
package relation

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Outcome describes what Insert did with an object.
type Outcome int

const (
	// Added: the object was incomparable with every member and was added.
	Added Outcome = iota
	// Redundant: an existing member already contains as much information,
	// so the relation is unchanged.
	Redundant
	// Subsumed: the object was more informative than one or more existing
	// members, which it replaced.
	Subsumed
)

// String returns the outcome's name.
func (o Outcome) String() string {
	switch o {
	case Added:
		return "added"
	case Redundant:
		return "redundant"
	case Subsumed:
		return "subsumed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ErrKeyViolation is returned when a keyed insert collides with an existing
// member on the key attributes but neither object subsumes the other.
var ErrKeyViolation = errors.New("relation: key violation")

// ErrNoKey is returned when an inserted object lacks one of the relation's
// key attributes.
var ErrNoKey = errors.New("relation: object missing key attribute")

// Relation is a generalized relation: a set of mutually incomparable
// objects under the information ordering ("cochains in the jargon of
// lattice theory"). The zero value is not usable; construct with New or
// NewKeyed. A Relation is not safe for concurrent use in general: Insert
// and Delete change it, and even Contains, and so Equal and Diff, may
// build its member index. Len, Keyed, Key, Members, Lookup and String,
// and the other operations that build a new relation from it, only read
// it. The joins (Join, JoinPlanned, JoinPairs, EachPair, PlanJoin) build
// its label set and partitions on first use and publish each by
// compare-and-swap. So any number of goroutines may run all of these on a
// relation nothing changes any more.
type Relation struct {
	elems []value.Value
	// keyedOn is the label value.MaximalIndex proved the members a cochain
	// on — each holds a distinct atom there — or "" when none was proven.
	// Insert forgets it.
	keyedOn string
	// keys (value.Key of each member, parallel to elems) and index (value.Key
	// -> position) are built on first use by indexMembers, so a relation
	// that is only joined never formats a key.
	keys  []string
	index map[string]int
	key   []string       // key attributes; empty means unkeyed
	byKey map[string]int // key-tuple -> position, when keyed
	// join is the label set and partitions the joins read, built on first
	// use (joinIndex). Insert and Delete drop it: they add members and
	// reorder them.
	join atomic.Pointer[joinIndex]
}

// keyScratch sizes the stack buffers member keys are written into before a
// map probe: a record of a handful of atomic fields fits.
const keyScratch = 128

// New returns a generalized relation holding the maximal objects among
// objects, computed in one pass by value.MaximalIndex: the members are the
// survivors in input order, and of duplicates (or of objects each ⊑ the
// other) the first occurrence is kept. That is the cochain inserting the
// objects in order would build, up to the order of its members. Records
// that hold pairwise distinct atoms at one label are a cochain already (a
// key keeps comparable objects apart), so then every object is kept after
// one linear probe, and the relation remembers the label. Like every
// Relation, the result is not safe for concurrent use.
func New(objects ...value.Value) *Relation {
	r, _ := newFrom(objects)
	return r
}

// NewIndexed is New that also reports where each member came from:
// Members()[i] is objects[pos[i]].
func NewIndexed(objects []value.Value) (r *Relation, pos []int) {
	r, keep := newFrom(objects)
	if r.keyedOn != "" {
		keep = make([]int, len(objects))
		for i := range keep {
			keep[i] = i
		}
	}
	return r, keep
}

// newFrom builds New's relation over objects and returns the survivors'
// positions, nil when every object survives a proven key.
func newFrom(objects []value.Value) (*Relation, []int) {
	keep, key := value.MaximalIndex(objects)
	if key != "" {
		return &Relation{elems: slices.Clone(objects), keyedOn: key}, nil
	}
	return &Relation{elems: pick(objects, keep)}, keep
}

// pick returns vs at the positions keep.
func pick(vs []value.Value, keep []int) []value.Value {
	out := make([]value.Value, len(keep))
	for i, k := range keep {
		out[i] = vs[k]
	}
	return out
}

// indexMembers builds the member index, keys and index, if it is not built
// yet.
func (r *Relation) indexMembers() {
	if r.index != nil {
		return
	}
	r.index = make(map[string]int, len(r.elems))
	r.keys = make([]string, len(r.elems))
	for i, m := range r.elems {
		r.keys[i] = value.Key(m)
		r.index[r.keys[i]] = i
	}
}

// NewKeyed returns an empty relation with the given key attributes. As the
// paper observes, imposing a key prevents comparable objects from
// coexisting: two comparable objects would necessarily agree on the key.
func NewKeyed(key ...string) *Relation {
	ks := append([]string(nil), key...)
	sort.Strings(ks)
	return &Relation{key: ks, byKey: map[string]int{}}
}

// Keyed reports whether New proved the members a cochain by a key: each
// holds a distinct atom at one label. Insert forgets the proof.
func (r *Relation) Keyed() bool { return r.keyedOn != "" }

// Len reports the number of members.
func (r *Relation) Len() int { return len(r.elems) }

// Key returns the key attributes (nil when unkeyed).
func (r *Relation) Key() []string { return append([]string(nil), r.key...) }

// Members returns the members; the slice is fresh but shares the member
// values.
func (r *Relation) Members() []value.Value { return append([]value.Value(nil), r.elems...) }

// Contains reports whether an object structurally equal to o is a member.
func (r *Relation) Contains(o value.Value) bool {
	r.indexMembers()
	var buf [keyScratch]byte
	_, ok := r.index[string(value.AppendKey(buf[:0], o))]
	return ok
}

// appendKeyTuple appends the canonical key tuple of o to dst, or returns an
// error if a key attribute is missing or o is not a record.
func (r *Relation) appendKeyTuple(dst []byte, o value.Value) ([]byte, error) {
	rec, ok := o.(*value.Record)
	if !ok {
		return dst, fmt.Errorf("%w: %s is not a record", ErrNoKey, o)
	}
	for _, k := range r.key {
		v, ok := rec.Get(k)
		if !ok {
			return dst, fmt.Errorf("%w: %q", ErrNoKey, k)
		}
		dst = append(value.AppendKey(dst, v), '|')
	}
	return dst, nil
}

// Insert adds o with the paper's subsumption rule: o is not admitted if an
// existing member contains as much information; if o is more informative
// than existing members, those are subsumed (removed). For keyed relations
// a collision on the key with a non-comparable member is ErrKeyViolation.
func (r *Relation) Insert(o value.Value) (Outcome, error) {
	r.indexMembers()
	var buf [keyScratch]byte
	k := value.AppendKey(buf[:0], o)
	if _, ok := r.index[string(k)]; ok {
		return Redundant, nil
	}
	if len(r.key) > 0 {
		var tuple [keyScratch]byte
		ks, err := r.appendKeyTuple(tuple[:0], o)
		if err != nil {
			return Redundant, err
		}
		if i, ok := r.byKey[string(ks)]; ok {
			old := r.elems[i]
			switch {
			case value.Leq(o, old):
				return Redundant, nil
			case value.Leq(old, o):
				r.removeAt(i)
				r.add(o, string(k), string(ks))
				return Subsumed, nil
			default:
				return Redundant, fmt.Errorf("%w: %s vs %s", ErrKeyViolation, o, old)
			}
		}
		// With a key, distinct key tuples guarantee incomparability, so no
		// further scan is needed.
		r.add(o, string(k), string(ks))
		return Added, nil
	}
	// Unkeyed: compare against every member (the cost experiment E6
	// measures exactly this scan).
	subsumed := false
	for i := 0; i < len(r.elems); {
		m := r.elems[i]
		if value.Leq(o, m) {
			return Redundant, nil
		}
		if value.Leq(m, o) {
			r.removeAt(i)
			subsumed = true
			continue
		}
		i++
	}
	r.add(o, string(k), "")
	if subsumed {
		return Subsumed, nil
	}
	return Added, nil
}

// add appends o, whose value.Key is k; tuple is its key tuple when the
// relation is keyed.
func (r *Relation) add(o value.Value, k, tuple string) {
	r.keyedOn = "" // o may repeat the atom the members were keyed on
	r.join.Store(nil)
	r.index[k] = len(r.elems)
	if len(r.key) > 0 {
		r.byKey[tuple] = len(r.elems)
	}
	r.elems = append(r.elems, o)
	r.keys = append(r.keys, k)
}

func (r *Relation) removeAt(i int) {
	r.join.Store(nil)
	delete(r.index, r.keys[i])
	if len(r.key) > 0 {
		if ks, err := r.appendKeyTuple(nil, r.elems[i]); err == nil {
			delete(r.byKey, string(ks))
		}
	}
	last := len(r.elems) - 1
	if i != last {
		r.elems[i], r.keys[i] = r.elems[last], r.keys[last]
		r.index[r.keys[i]] = i
		if len(r.key) > 0 {
			if ks, err := r.appendKeyTuple(nil, r.elems[i]); err == nil {
				r.byKey[string(ks)] = i
			}
		}
	}
	r.elems, r.keys = r.elems[:last], r.keys[:last]
}

// Delete removes the member structurally equal to o, reporting whether it
// was present.
func (r *Relation) Delete(o value.Value) bool {
	r.indexMembers()
	var buf [keyScratch]byte
	i, ok := r.index[string(value.AppendKey(buf[:0], o))]
	if !ok {
		return false
	}
	r.removeAt(i)
	return true
}

// Lookup returns the member with the given key values (keyed relations
// only). The key values must be given in the sorted order of Key().
func (r *Relation) Lookup(keyVals ...value.Value) (value.Value, bool) {
	if len(r.key) == 0 || len(keyVals) != len(r.key) {
		return nil, false
	}
	var buf [keyScratch]byte
	tuple := buf[:0]
	for _, v := range keyVals {
		tuple = append(value.AppendKey(tuple, v), '|')
	}
	i, ok := r.byKey[string(tuple)]
	if !ok {
		return nil, false
	}
	return r.elems[i], true
}

// Leq reports the paper's ordering on relations: r ⊑ s iff every member of
// s is more informative than some member of r.
func Leq(r, s *Relation) bool {
	return value.SetLeq(value.NewSet(r.elems...), value.NewSet(s.elems...))
}

// Equal reports whether the two relations have structurally equal members.
func Equal(r, s *Relation) bool {
	if r.Len() != s.Len() {
		return false
	}
	for _, m := range r.elems {
		if !s.Contains(m) {
			return false
		}
	}
	return true
}

// Join is the generalized natural join of Figure 1: every pairwise join of
// members that does not conflict, reduced to the maximal (mutually
// incomparable) objects. For flat keyed relations it coincides with the
// classical natural join. It runs the plan PlanJoin chooses; members
// silent (or non-atomic) on the chosen attribute are wildcards paired with
// everything, exactly preserving the partial-tuple semantics. The nested
// loop every plan must agree with is JoinPlanned(r, s, JoinPlan{}).
func Join(r, s *Relation) *Relation {
	return JoinPlanned(r, s, PlanJoin(r, s))
}

// Project restricts each member record to the given labels — with partial
// records a member simply loses the fields it has and keeps silent on those
// it lacks — and reduces the result to a cochain.
func Project(r *Relation, labels ...string) *Relation {
	want := map[string]bool{}
	for _, l := range labels {
		want[l] = true
	}
	out := New()
	for _, m := range r.elems {
		rec, ok := m.(*value.Record)
		if !ok {
			continue
		}
		p := value.NewRecord()
		rec.Each(func(l string, v value.Value) {
			if want[l] {
				p.Set(l, v)
			}
		})
		out.Insert(p)
	}
	return out
}

// Select returns the members satisfying pred, as a new relation.
func Select(r *Relation, pred func(value.Value) bool) *Relation {
	out := New()
	for _, m := range r.elems {
		if pred(m) {
			out.Insert(m)
		}
	}
	return out
}

// Union inserts every member of s into a copy of r, applying subsumption.
func Union(r, s *Relation) *Relation {
	out := New(r.elems...)
	for _, m := range s.elems {
		out.Insert(m)
	}
	return out
}

// Diff returns the members of r that are not members of s (structural
// equality), as a new relation. With partial records this is the set
// difference of the cochains, not an information-ordering operation.
func Diff(r, s *Relation) *Relation {
	out := New()
	for _, m := range r.elems {
		if !s.Contains(m) {
			out.Insert(m)
		}
	}
	return out
}

// ExtractByType returns the members whose most specific type is a subtype
// of t. The paper derives this from the join: "the type {Name: String; Age:
// Int} can be seen as a very large relation … it is meaningful to talk
// about the join of this relation with a relation R to extract all the
// objects in R whose type is a subtype" — joining o with the matching
// member of the type-relation adds no information, so the join filters R by
// conformance. This is precisely the class-extraction operation of the
// paper's earlier sections, now expressed relationally.
func ExtractByType(r *Relation, t types.Type) *Relation {
	want := types.Intern(t)
	return Select(r, func(v value.Value) bool { return value.ConformsInterned(v, want) })
}

// String renders the relation with members in canonical order.
func (r *Relation) String() string {
	keys := make([]string, len(r.elems))
	byKey := map[string]value.Value{}
	for i, m := range r.elems {
		keys[i] = value.Key(m)
		byKey[keys[i]] = m
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(",\n ")
		}
		b.WriteString(byKey[k].String())
	}
	b.WriteString("}")
	return b.String()
}

// IsCochain verifies the relation invariant: no two members are comparable.
// It exists for tests and costs O(n²).
func (r *Relation) IsCochain() bool {
	for i, a := range r.elems {
		for j, b := range r.elems {
			if i != j && value.Leq(a, b) {
				return false
			}
		}
	}
	return true
}
