package value

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
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
//
// Leq is coinductive, as recursive subtyping is: a pair of records, lists
// or tags met again on its own path is assumed to hold, so Leq terminates
// on cyclic values (see orderPath).
func Leq(o, op Value) bool { return leq(o, op, nil, 0) }

// leq is Leq inside depth pairs of containers, p being their path once
// depth has reached pathFrom.
func leq(o, op Value, p *orderPath, depth int) bool {
	if p == nil && depth >= pathFrom {
		return leqOnPath(o, op, depth)
	}
	switch a := o.(type) {
	case Int, Float, String, Bool, unitValue, *TypeVal:
		return Equal(o, op)
	case *Record:
		b, ok := op.(*Record)
		if !ok {
			return false
		}
		// a ⊑ b needs labels(a) ⊆ labels(b); the shapes' signatures reject
		// a missing label in one word operation.
		sa, sb := a.Shape(), b.Shape()
		if len(sa.labels) > len(sb.labels) || sa.bits&^sb.bits != 0 {
			return false
		}
		if _, _, ok := p.find(a, b); ok {
			return true
		}
		p.push(a, b, nil)
		// Both label slices are sorted, so one merge finds each of a's
		// labels in b; over one shape the fields pair by position.
		j, holds := 0, true
		for i, l := range sa.labels {
			if sa != sb {
				for j < len(sb.labels) && sb.labels[j] < l {
					j++
				}
				if j == len(sb.labels) || sb.labels[j] != l {
					holds = false
					break
				}
			}
			if !leq(a.values[i], b.values[j], p, depth+1) {
				holds = false
				break
			}
			j++
		}
		p.pop()
		return holds
	case *List:
		b, ok := op.(*List)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		if _, _, ok := p.find(a, b); ok {
			return true
		}
		p.push(a, b, nil)
		holds := true
		for i := range a.Elems {
			if !leq(a.Elems[i], b.Elems[i], p, depth+1) {
				holds = false
				break
			}
		}
		p.pop()
		return holds
	case *Tag:
		b, ok := op.(*Tag)
		if !ok || a.Label != b.Label {
			return false
		}
		if _, _, ok := p.find(a, b); ok {
			return true
		}
		p.push(a, b, nil)
		holds := leq(a.Payload, b.Payload, p, depth+1)
		p.pop()
		return holds
	case *Set:
		b, ok := op.(*Set)
		if !ok {
			return false
		}
		return setLeq(a, b, p, depth)
	default:
		return o.Kind() == KindBottom || o == op
	}
}

// leqOnPath is leq starting a path, in its own frame.
func leqOnPath(o, op Value, depth int) bool {
	var p orderPath
	return leq(o, op, &p, depth)
}

// SetLeq is the paper's ordering on relations: R ⊑ R' iff for every object
// o' in R' there is an object o in R with o ⊑ o' — every member of R' is
// more informative than some member of R.
func SetLeq(r, rp *Set) bool { return setLeq(r, rp, nil, 0) }

func setLeq(r, rp *Set, p *orderPath, depth int) bool {
	for _, op := range rp.elems {
		found := false
		for _, o := range r.elems {
			if leq(o, op, p, depth+1) {
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

// orderPath is the path of one Leq, Join, Meet, key, String or Copy: the
// pairs of containers it is inside, outermost first, each with the
// container Join, Meet or Copy builds for it (a walk of one value pairs
// each container with nil). Only a cycle makes a pair recur on its own
// path. No acyclic value nests containers pathFrom deep in practice, so
// Leq and Join keep no path until that depth: the level that reaches it
// starts one in its frame, which spills to the heap only past pathDepth
// pairs more. A key starts one at the top once a walk without one has
// reached that depth (see AppendKey). A nil *orderPath keeps nothing.
//
// A pair is looked for among the first pathDepth pairs of the path and,
// past them, at the positions that are powers of two. A pair met again
// after one of the first pathDepth is found at once, and any cycle within
// one more turn once it has passed such a position: a cycle entered at
// position s recurs by position 2s plus its length. A deep acyclic value
// costs O(log depth) per container rather than O(depth).
type orderPath struct {
	fixed [pathDepth]pathStep
	n     int
	spill []pathStep
}

const (
	// pathFrom is the nesting depth at which Leq and Join start a path.
	pathFrom = 32
	// pathDepth is how many pairs the fixed part of a path holds. It is a
	// power of two, the first position past it that lookup checks.
	pathDepth = 8
)

// pathStep is one pair on the path: a and b are compared or joined, and
// out is the container Join builds for them (nil under Leq).
type pathStep struct {
	a, b, out Value
}

// find reports whether the pair (a, b) is on the path, its out, and its
// position: 0 outermost, p.n-1 the pair pushed last.
func (p *orderPath) find(a, b Value) (out Value, pos int, ok bool) {
	if p == nil {
		return nil, 0, false
	}
	return p.lookup(a, b)
}

// lookup is find on a path. It is kept out of line so that find, which
// every container pair meets, inlines to a nil check.
//
//go:noinline
func (p *orderPath) lookup(a, b Value) (Value, int, bool) {
	for i := range min(p.n, pathDepth) {
		if s := &p.fixed[i]; s.a == a && s.b == b {
			return s.out, i, true
		}
	}
	for i := pathDepth; i < p.n; i *= 2 {
		if s := &p.spill[i-pathDepth]; s.a == a && s.b == b {
			return s.out, i, true
		}
	}
	return nil, 0, false
}

// push puts the pair (a, b), with out, on the path, to be taken off by pop.
func (p *orderPath) push(a, b, out Value) {
	if p != nil {
		p.add(pathStep{a, b, out})
	}
}

func (p *orderPath) add(s pathStep) {
	if p.n < pathDepth {
		p.fixed[p.n] = s
	} else {
		p.spill = append(p.spill, s)
	}
	p.n++
}

// pop takes off the pair pushed last.
func (p *orderPath) pop() {
	if p == nil {
		return
	}
	p.n--
	if p.n >= pathDepth {
		p.spill = p.spill[:len(p.spill)-1]
	}
}

// Join returns the least object containing the information of both a and b,
// or an error wrapping ErrConflict when they disagree on a common component.
// Joining records merges their fields; this is the paper's mechanism for
// turning a Person into an Employee by "adding information":
//
//	{Name = 'J Doe'} ⊔ {Emp_no = 1234} = {Name = 'J Doe', Emp_no = 1234}
//
// Join terminates on cyclic values: a pair of records, lists or tags met
// again on its own path joins to the container being built for it, so the
// result closes the cycle too (see orderPath).
func Join(a, b Value) (Value, error) { return join(a, b, nil, 0) }

// join is Join inside depth pairs of containers, p being their path once
// depth has reached pathFrom.
func join(a, b Value, p *orderPath, depth int) (Value, error) {
	if a.Kind() == KindBottom {
		return b, nil
	}
	if b.Kind() == KindBottom {
		return a, nil
	}
	if p == nil && depth >= pathFrom {
		return joinOnPath(a, b, depth)
	}
	switch a.(type) {
	case *Record, *List, *Tag:
		if out, _, ok := p.find(a, b); ok {
			return out, nil
		}
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
		return joinRecords(av, bv, p, depth)
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return nil, conflict(a, b)
		}
		out := &List{Elems: make([]Value, len(av.Elems))}
		p.push(av, bv, out)
		for i := range av.Elems {
			j, err := join(av.Elems[i], bv.Elems[i], p, depth+1)
			if err != nil {
				p.pop()
				return nil, &joinError{elem: i, inner: err}
			}
			out.Elems[i] = j
		}
		p.pop()
		return out, nil
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return nil, conflict(a, b)
		}
		out := &Tag{Label: av.Label}
		p.push(av, bv, out)
		pl, err := join(av.Payload, bv.Payload, p, depth+1)
		p.pop()
		if err != nil {
			return nil, err
		}
		out.Payload = pl
		return out, nil
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

// joinOnPath is join starting a path, in its own frame.
func joinOnPath(a, b Value, depth int) (Value, error) {
	var p orderPath
	return join(a, b, &p, depth)
}

// joinRecords merges a's and b's sorted labels in one pass: a label of one
// side keeps its value, and a common label joins a's value with b's.
func joinRecords(a, b *Record, p *orderPath, depth int) (*Record, error) {
	la, lb := a.Shape().labels, b.Shape().labels
	out := newJoined(len(la) + len(lb))
	p.push(a, b, out)
	defer p.pop()
	var buf [keyScratch]byte
	key := buf[:0]
	for i, j := 0, 0; i < len(la) || j < len(lb); {
		var l string
		var v Value
		switch {
		case j == len(lb) || i < len(la) && la[i] < lb[j]:
			l, v = la[i], a.values[i]
			i++
		case i == len(la) || lb[j] < la[i]:
			l, v = lb[j], b.values[j]
			j++
		default:
			l = la[i]
			var err error
			if v, err = join(a.values[i], b.values[j], p, depth+1); err != nil {
				return nil, &joinError{field: true, label: l, inner: err}
			}
			i++
			j++
		}
		key = appendLabelKey(key, l)
		out.values = append(out.values, v)
	}
	out.shape = shapeOf(key)
	return out, nil
}

// joinedInline is the field count up to which a joined record is one
// allocation: a relation join builds one record per pair, most of a few
// fields each.
const joinedInline = 8

// newJoined returns an empty record with room for n fields, in one
// allocation with its value array when n ≤ joinedInline.
func newJoined(n int) *Record {
	if n > joinedInline {
		return &Record{values: make([]Value, 0, n)}
	}
	blk := new(struct {
		r      Record
		values [joinedInline]Value
	})
	blk.r.values = blk.values[:0:n]
	return &blk.r
}

func conflict(a, b Value) error { return &joinError{a: a, b: b} }

// joinError is a Join failure: the conflict itself, or one found under a
// record field or list element. Its text is written only when asked for,
// since a relation join discards most failures.
type joinError struct {
	field bool // under the record field label, else under list element elem
	label string
	elem  int
	inner error // the failure under the field or element; nil at the conflict
	a, b  Value // the conflicting values, at the conflict
}

func (e *joinError) Error() string {
	switch {
	case e.inner == nil:
		return fmt.Sprintf("%v: %s vs %s", ErrConflict, e.a, e.b)
	case e.field:
		return "field " + e.label + ": " + e.inner.Error()
	default:
		return "element " + strconv.Itoa(e.elem) + ": " + e.inner.Error()
	}
}

func (e *joinError) Unwrap() error {
	if e.inner == nil {
		return ErrConflict
	}
	return e.inner
}

// HoldsBottom reports whether ⊥ occurs in v. It reads at most bottomScan
// nodes and answers true past them, so it terminates on cyclic and on
// widely shared values: false is a guarantee, true a maybe. The join of
// two values without ⊥ has the meet of their types; with ⊥, which
// conforms to every type, it need not (TestQuickJoinHasMeetType).
func HoldsBottom(v Value) bool {
	budget := bottomScan
	return holdsBottom(v, &budget)
}

// bottomScan bounds the nodes HoldsBottom reads.
const bottomScan = 4096

func holdsBottom(v Value, budget *int) bool {
	if *budget--; *budget < 0 {
		return true
	}
	switch x := v.(type) {
	case *Record:
		for _, f := range x.values {
			if holdsBottom(f, budget) {
				return true
			}
		}
	case *List:
		for _, e := range x.Elems {
			if holdsBottom(e, budget) {
				return true
			}
		}
	case *Set:
		for _, e := range x.elems {
			if holdsBottom(e, budget) {
				return true
			}
		}
	case *Tag:
		return holdsBottom(x.Payload, budget)
	}
	return v.Kind() == KindBottom
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
// A key proves a cochain. When every element is a record holding an atom
// at one label, pairwise distinct there (keyLabel), no two are comparable:
// x ⊑ y would need y to hold an atom ⊒ x's there, and atoms are ordered
// only by equality. Such input is returned as it is, after one probe.
//
// Otherwise, for record-only inputs of more than 32 elements, the quadratic
// scan is pruned by two facts. r ⊑ r' requires labels(r) ⊆ labels(r'), so
// only the records of a label-superset group can dominate r. And two
// records whose common atomic field differs are incomparable, so each group
// is bucketed on its discriminator: of the labels atomic in every member,
// the one with the most distinct atoms, the first in label order on a tie.
// r is then compared only with the bucket holding its own atom there.
// maximalNaive is the reference implementation (property-tested and fuzzed
// equal).
func Maximal(vs []Value) []Value {
	keep, key := MaximalIndex(vs)
	if key != "" {
		return slices.Clone(vs)
	}
	var out []Value
	for _, i := range keep {
		out = append(out, vs[i])
	}
	return out
}

// MaximalIndex is Maximal by position: keep lists the positions in vs of
// the survivors, ascending. When keyLabel proves vs a cochain, key is its
// label, every element survives and keep is nil; otherwise key is "".
func MaximalIndex(vs []Value) (keep []int, key string) {
	if key, ok := keyLabel(vs); ok {
		return nil, key
	}
	if len(vs) <= 32 {
		return maximalNaive(vs), ""
	}
	for _, v := range vs {
		if _, ok := v.(*Record); !ok {
			return maximalNaive(vs), "" // mixed kinds: rare, keep it simple
		}
	}
	return maximalRecords(vs), ""
}

// keySample is how many elements, spread evenly from the first to the
// last, keyLabel reads to rule out labels before probing one in full.
const keySample = 9

// keyLabel reports a label proving vs a cochain, if it finds one: every
// element of vs is a record holding an atom there, and no two hold equal
// atoms (equal AtomKeys), so no element is below another (see Maximal).
//
// The candidates are the labels atomic in vs[0] whose atoms are pairwise
// distinct across a sample of keySample elements, in label order; each is
// probed over all of vs until one holds. The probes stop once they have
// read 2·len(vs) elements, so the search costs O(len(vs)) whether or not
// it succeeds.
func keyLabel(vs []Value) (string, bool) {
	if len(vs) == 0 {
		return "", false
	}
	first, ok := vs[0].(*Record)
	if !ok {
		return "", false
	}
	var sample [keySample]*Record
	n := min(len(vs), keySample)
	for k := range n {
		r, ok := vs[k*(len(vs)-1)/max(n-1, 1)].(*Record)
		if !ok {
			return "", false
		}
		sample[k] = r
	}
	budget := 2 * len(vs)
	// Sized for success: only a label the sample could not rule out is
	// probed.
	seen := atomSet{size: len(vs)}
	for _, l := range first.Shape().labels {
		if !distinctAtoms(sample[:n], l) {
			continue
		}
		seen.clear()
		if probeKey(vs, l, &seen, &budget) {
			return l, true
		}
		if budget <= 0 {
			break
		}
	}
	return "", false
}

// atomSet is a set of atoms made on first use with room for size. Ints,
// the usual key, are hashed by their bits alone, at a fraction of the cost
// of hashing a whole AtomKey.
type atomSet struct {
	size  int
	ints  map[uint64]struct{}
	other map[AtomKey]struct{}
}

// add adds k, reporting whether it was absent.
func (s *atomSet) add(k AtomKey) bool {
	if k.kind == KindInt {
		if s.ints == nil {
			s.ints = make(map[uint64]struct{}, s.size)
		}
		n := len(s.ints)
		s.ints[k.bits] = struct{}{}
		return len(s.ints) > n
	}
	if s.other == nil {
		s.other = make(map[AtomKey]struct{}, s.size)
	}
	n := len(s.other)
	s.other[k] = struct{}{}
	return len(s.other) > n
}

func (s *atomSet) clear() {
	clear(s.ints)
	clear(s.other)
}

// distinctAtoms reports whether every record of rs holds an atom at l, no
// two of them equal.
func distinctAtoms(rs []*Record, l string) bool {
	var keys [keySample]AtomKey
	for i, r := range rs {
		v, ok := r.Get(l)
		if !ok {
			return false
		}
		if keys[i], ok = AtomKeyOf(v); !ok {
			return false
		}
		for j := range i {
			if keys[j] == keys[i] {
				return false
			}
		}
	}
	return true
}

// probeKey reports whether every element of vs is a record holding an atom
// at l, no two equal, reading at most *budget elements and charging what
// it reads. seen is empty scratch.
func probeKey(vs []Value, l string, seen *atomSet, budget *int) bool {
	for _, v := range vs {
		if *budget--; *budget < 0 {
			return false
		}
		r, ok := v.(*Record)
		if !ok {
			return false
		}
		a, ok := r.Get(l)
		if !ok {
			return false
		}
		k, ok := AtomKeyOf(a)
		if !ok {
			return false
		}
		if !seen.add(k) {
			return false
		}
	}
	return true
}

// maximalNaive is the direct O(n²) definition, by position.
func maximalNaive(vs []Value) []int {
	var out []int
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
			out = append(out, i)
		}
	}
	return out
}

// shapeGroup collects the records of one shape.
type shapeGroup struct {
	shape *Shape
	// members in input order, with their input positions, which tell a
	// member from its duplicates and decide the first-occurrence rule.
	recs []*Record
	idx  []int
	// above lists the groups whose shapes hold every label of this one, the
	// only ones whose members can be above its members.
	above []*shapeGroup
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
func (g *shapeGroup) bucket(seen map[AtomKey]struct{}) {
	if len(g.recs) < 2 {
		return // a lone member is its own bucket
	}
	best, most := -1, 0
	for i := range g.shape.labels {
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
	g.disc = g.shape.labels[best]
	g.heads = make(map[AtomKey]int, most)
	g.next = make([]int, len(g.recs))
	for j := len(g.recs) - 1; j >= 0; j-- {
		k, _ := AtomKeyOf(g.recs[j].values[best])
		g.next[j] = g.heads[k] - 1
		g.heads[k] = j + 1
	}
}

// dominates reports whether a member of g other than r, at position rIdx,
// is above r: strictly, or as the first of mutually-⊑ records, duplicates
// included.
func (g *shapeGroup) dominates(r *Record, rIdx int) bool {
	check := func(j int) bool {
		w := g.recs[j]
		return g.idx[j] != rIdx && Leq(r, w) && (!Leq(w, r) || g.idx[j] < rIdx)
	}
	if g.disc != "" {
		// A dominator agrees with r on the discriminator, so when r holds
		// an atom there only that atom's bucket is searched. When r lacks
		// the label, or holds ⊥ or a container there, any member may still
		// be above it.
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

// subsetOf reports whether every label of s is one of t's.
func (s *Shape) subsetOf(t *Shape) bool {
	if len(s.labels) > len(t.labels) || s.bits&^t.bits != 0 {
		return false
	}
	j := 0
	for _, l := range s.labels {
		for j < len(t.labels) && t.labels[j] < l {
			j++
		}
		if j == len(t.labels) || t.labels[j] != l {
			return false
		}
	}
	return true
}

// maximalRecords is the pruned scan over records, by position.
func maximalRecords(vs []Value) []int {
	groups := map[*Shape]*shapeGroup{}
	for i, v := range vs {
		r := v.(*Record)
		g := groups[r.Shape()]
		if g == nil {
			g = &shapeGroup{shape: r.Shape()}
			groups[g.shape] = g
		}
		g.recs = append(g.recs, r)
		g.idx = append(g.idx, i)
	}
	seen := map[AtomKey]struct{}{}
	for _, g := range groups {
		g.bucket(seen)
		for _, h := range groups {
			if g.shape.subsetOf(h.shape) {
				g.above = append(g.above, h)
			}
		}
	}
	var out []int
	for i, v := range vs {
		r := v.(*Record)
		if !slices.ContainsFunc(groups[r.Shape()].above, func(h *shapeGroup) bool { return h.dominates(r, i) }) {
			out = append(out, i)
		}
	}
	return out
}

// Meet returns the greatest object whose information is contained in both a
// and b — what the two objects agree on. Unlike Join it is total: objects
// with nothing in common meet at ⊥ (or, for records, at the empty record).
// Meet terminates on cyclic values: a pair of records, lists or tags met
// again on its own path meets to the container being built for it, as in
// Join (see orderPath).
func Meet(a, b Value) Value {
	var p orderPath
	return meet(a, b, &p)
}

func meet(a, b Value, p *orderPath) Value {
	if a.Kind() == KindBottom || b.Kind() == KindBottom {
		return Bottom
	}
	switch a.(type) {
	case *Record, *List, *Tag:
		if out, _, ok := p.find(a, b); ok {
			return out
		}
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
		out := &Record{}
		p.push(av, bv, out)
		var key []byte
		av.Each(func(l string, v Value) {
			if w, ok := bv.Get(l); ok {
				if m := meet(v, w, p); m.Kind() != KindBottom {
					key = appendLabelKey(key, l)
					out.values = append(out.values, m)
				}
			}
		})
		p.pop()
		out.shape = shapeOf(key)
		return out
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return Bottom
		}
		out := &List{Elems: make([]Value, len(av.Elems))}
		p.push(av, bv, out)
		for i := range av.Elems {
			out.Elems[i] = meet(av.Elems[i], bv.Elems[i], p)
		}
		p.pop()
		return out
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return Bottom
		}
		out := &Tag{Label: av.Label}
		p.push(av, bv, out)
		out.Payload = meet(av.Payload, bv.Payload, p)
		p.pop()
		return out
	default:
		if a == b {
			return a
		}
		return Bottom
	}
}
