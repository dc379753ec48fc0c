package value

import (
	"cmp"
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
// Leq is coinductive, as recursive subtyping is: a pair of containers met
// again on a cycle is assumed to hold, so Leq terminates on cyclic values,
// and it does not walk a shared value as its unfolding (see walk).
func Leq(o, op Value) bool {
	var w leqWalk
	holds := leq(o, op, &w)
	if w.again() {
		holds = leq(o, op, &w)
	}
	return holds
}

// leqWalk is Leq's walk. Its memo holds each pair's verdict, or true for
// a pair assumed to hold; log holds the pairs the second pass assumed, in
// order, so that those assumed under a failed set candidate can be taken
// back.
type leqWalk struct {
	walk[pair, bool]
	log []pair
}

func leq(o, op Value, w *leqWalk) bool {
	switch o.(type) {
	case Int, Float, String, Bool, unitValue, *TypeVal:
		return Equal(o, op)
	case *Record, *List, *Tag, *Set:
	default:
		return o.Kind() == KindBottom || o == op
	}
	k := pair{o, op}
	if holds, ok := w.seen(k); ok {
		return holds
	}
	start := w.enter(k, true)
	if w.path {
		w.log = append(w.log, k)
	}
	holds := leqContainer(o, op, w)
	w.leave(k, holds, start)
	return holds
}

// leqContainer is leq for the record, list, tag or set o.
func leqContainer(o, op Value, w *leqWalk) bool {
	switch a := o.(type) {
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
		// Both label slices are sorted, so one merge finds each of a's
		// labels in b; over one shape the fields pair by position.
		j := 0
		for i, l := range sa.labels {
			if sa != sb {
				for j < len(sb.labels) && sb.labels[j] < l {
					j++
				}
				if j == len(sb.labels) || sb.labels[j] != l {
					return false
				}
			}
			if !leq(a.values[i], b.values[j], w) {
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
			if !leq(a.Elems[i], b.Elems[i], w) {
				return false
			}
		}
		return true
	case *Tag:
		b, ok := op.(*Tag)
		return ok && a.Label == b.Label && leq(a.Payload, b.Payload, w)
	}
	a := o.(*Set)
	b, ok := op.(*Set)
	if !ok {
		return false
	}
	// A candidate that fails may leave false assumptions behind; they are
	// taken back before the next is tried.
next:
	for _, y := range b.elems {
		for _, x := range a.elems {
			mark := len(w.log)
			if leq(x, y, w) {
				continue next
			}
			for _, k := range w.log[mark:] {
				delete(w.memo, k)
			}
			w.log = w.log[:mark]
		}
		return false
	}
	return true
}

// SetLeq is the paper's ordering on relations: R ⊑ R' iff for every object
// o' in R' there is an object o in R with o ⊑ o' — every member of R' is
// more informative than some member of R. It is Leq on sets.
func SetLeq(r, rp *Set) bool { return Leq(r, rp) }

// walk is one walk of Leq, Join, Meet or the conformance check over a
// value, or a pair of values. K identifies a step: a pair of containers,
// or a container against a type node. E is what the memo holds for a
// step: Leq's verdict, the container Join or Meet builds, a conformance
// verdict.
//
// A walk takes at most two passes. The first memoizes a step only once it
// is done, and only if it took more than walkBudget steps: a tree, the
// usual value, is walked with no map at all, and a part shared along many
// paths is walked again only while it is cheap, so a DAG costs at most
// walkBudget steps an edge. A first pass that goes more than pathFrom
// containers deep is spent — the value is cyclic, or that deep — and what
// it returns is void: it sees every step from then on, so it winds up at
// once, and the walk starts again from the top, memoizing each step as it
// enters it. A cycle then ends at the step met again, which Leq assumes to
// hold and Join and Meet answer with the container they are building.
type walk[K comparable, E any] struct {
	memo  map[K]E
	steps int  // steps reached
	depth int  // steps the walk is inside
	path  bool // the second pass
	spent bool // a first pass that went more than pathFrom deep
}

// pair is a step of Leq, Join or Meet: the containers a and b.
type pair struct{ a, b Value }

const (
	// walkBudget is how many steps a step may take in a first pass
	// before what it found is memoized: a shared part that cheap is
	// walked once a path to it, a dearer one once.
	walkBudget = 64
	// pathFrom is the depth past which a walk, or a key, starts again with
	// a path. No acyclic value nests containers that deep in practice.
	pathFrom = 32
)

// seen is the walk reaching the step k. It returns the memo's entry for k,
// if there is one; a spent walk sees every step, with the zero E.
func (w *walk[K, E]) seen(k K) (e E, ok bool) {
	if w.spent {
		return e, true
	}
	w.steps++
	if w.memo == nil {
		return e, false
	}
	e, ok = w.memo[k]
	return e, ok
}

// enter is the walk entering the step k, for which it builds e, and
// returns the step count to give leave. The second pass memoizes k at
// once; a first pass that goes more than pathFrom deep is spent.
func (w *walk[K, E]) enter(k K, e E) (start int) {
	w.depth++
	if w.path {
		w.put(k, e)
	} else if w.depth > pathFrom {
		w.spent = true
	}
	return w.steps
}

// leave is the walk leaving the step k, entered at start, having found e.
// It memoizes e always on the second pass, and on the first when the step
// took more than walkBudget steps and the walk has more to do.
func (w *walk[K, E]) leave(k K, e E, start int) {
	w.depth--
	if w.path || !w.spent && w.depth > 0 && w.steps-start > walkBudget {
		w.put(k, e)
	}
}

func (w *walk[K, E]) put(k K, e E) {
	if w.memo == nil {
		w.memo = map[K]E{}
	}
	w.memo[k] = e
}

// again reports whether w is a spent first pass, and if so readies it for
// the second.
func (w *walk[K, E]) again() bool {
	if !w.spent {
		return false
	}
	w.spent, w.path, w.depth = false, true, 0
	return true
}

// Join returns the least object containing the information of both a and b,
// or an error wrapping ErrConflict when they disagree on a common component.
// Joining records merges their fields; this is the paper's mechanism for
// turning a Person into an Employee by "adding information":
//
//	{Name = 'J Doe'} ⊔ {Emp_no = 1234} = {Name = 'J Doe', Emp_no = 1234}
//
// Join terminates on cyclic values, a cycle through a set included: a pair
// of containers met again on a cycle joins to the container built for it,
// so the result closes the cycle too (see walk).
func Join(a, b Value) (Value, error) {
	var w joinWalk
	j, err := join(a, b, &w)
	if w.again() {
		j, err = join(a, b, &w)
	}
	w.fill()
	return j, err
}

// joinWalk is Join's walk. A set the second pass builds may hold a
// container still under construction, which a set cannot key yet; sets
// holds each such set with its joined elements, in the order the walk
// left them, to be filled once the walk is done. A set drops the pairs of
// elements that conflict, so log holds the pairs the second pass entered,
// in order, for those entered under a failed pair to be taken back, as
// Leq takes back a failed candidate's.
type joinWalk struct {
	walk[pair, Value]
	log  []pair
	sets []joinedSet
}

// enter is walk's enter, logging the pairs the second pass memoizes.
func (w *joinWalk) enter(k pair, out Value) (start int) {
	if w.path {
		w.log = append(w.log, k)
	}
	return w.walk.enter(k, out)
}

// joinedSet is a set of a join and the joins of its element pairs.
type joinedSet struct {
	s     *Set
	elems []Value
}

// fill fills the sets the walk left to fill, each with the maximal
// elements of its joins.
func (w *joinWalk) fill() {
	for _, js := range w.sets {
		for _, e := range Maximal(js.elems) {
			js.s.Add(e)
		}
	}
	w.sets = nil
}

func join(a, b Value, w *joinWalk) (Value, error) {
	if a.Kind() == KindBottom {
		return b, nil
	}
	if b.Kind() == KindBottom {
		return a, nil
	}
	switch a.(type) {
	case *Record, *List, *Tag, *Set:
		if out, ok := w.seen(pair{a, b}); ok {
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
		return joinRecords(av, bv, w)
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return nil, conflict(a, b)
		}
		k := pair{a, b}
		out := &List{Elems: make([]Value, len(av.Elems))}
		start := w.enter(k, out)
		for i := range av.Elems {
			j, err := join(av.Elems[i], bv.Elems[i], w)
			if err != nil {
				return nil, &joinError{elem: i, inner: err}
			}
			out.Elems[i] = j
		}
		w.leave(k, out, start)
		return out, nil
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return nil, conflict(a, b)
		}
		k := pair{a, b}
		out := &Tag{Label: av.Label}
		start := w.enter(k, out)
		pl, err := join(av.Payload, bv.Payload, w)
		if err != nil {
			return nil, err
		}
		out.Payload = pl
		w.leave(k, out, start)
		return out, nil
	case *Set:
		bv, ok := b.(*Set)
		if !ok {
			return nil, conflict(a, b)
		}
		return joinSets(av, bv, w), nil
	default:
		if a == b {
			return a, nil
		}
		return nil, conflict(a, b)
	}
}

// joinRecords merges a's and b's sorted labels in one pass: a label of one
// side keeps its value, and a common label joins a's value with b's.
func joinRecords(a, b *Record, w *joinWalk) (*Record, error) {
	la, lb := a.Shape().labels, b.Shape().labels
	k := pair{a, b}
	out := newJoined(len(la) + len(lb))
	start := w.enter(k, out)
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
			if v, err = join(a.values[i], b.values[j], w); err != nil {
				return nil, &joinError{field: true, label: l, inner: err}
			}
			i++
			j++
		}
		key = appendLabelKey(key, l)
		out.values = append(out.values, v)
	}
	out.shape = shapeOf(key)
	w.leave(k, out, start)
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
	j, _ := Join(a, b) // sets never conflict
	return j.(*Set)
}

// joinSets is SetJoin on w: each pair of elements joins on the walk, so a
// cycle through the sets ends at the pair met again.
func joinSets(a, b *Set, w *joinWalk) *Set {
	k := pair{a, b}
	out := &Set{}
	start := w.enter(k, out)
	var joined []Value
	for _, x := range a.elems {
		for _, y := range b.elems {
			depth, log, sets := w.depth, len(w.log), len(w.sets)
			j, err := join(x, y, w)
			if err == nil {
				joined = append(joined, j)
				continue
			}
			// The failed pair left the containers it was building in the
			// memo, and the walk inside them.
			for _, k := range w.log[log:] {
				delete(w.memo, k)
			}
			w.depth, w.log, w.sets = depth, w.log[:log], w.sets[:sets]
		}
	}
	switch {
	case w.spent: // the pass is void, and the joins may be nil
	case w.path:
		w.sets = append(w.sets, joinedSet{out, joined})
	default:
		for _, e := range Maximal(joined) {
			out.Add(e)
		}
	}
	w.leave(k, out, start)
	return out
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
// again on a cycle meets to the container built for it, as in Join.
func Meet(a, b Value) Value {
	var w walk[pair, Value]
	m := meet(a, b, &w)
	if w.again() {
		m = meet(a, b, &w)
	}
	return m
}

func meet(a, b Value, w *walk[pair, Value]) Value {
	if a.Kind() == KindBottom || b.Kind() == KindBottom {
		return Bottom
	}
	switch a.(type) {
	case *Record, *List, *Tag:
		if out, ok := w.seen(pair{a, b}); ok {
			return cmp.Or(out, Bottom) // nil on a spent walk
		}
	}
	k := pair{a, b}
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
		start := w.enter(k, out)
		var key []byte
		for i, l := range av.Shape().labels {
			if y, ok := bv.Get(l); ok {
				if m := meet(av.values[i], y, w); m.Kind() != KindBottom {
					key = appendLabelKey(key, l)
					out.values = append(out.values, m)
				}
			}
		}
		out.shape = shapeOf(key)
		w.leave(k, out, start)
		return out
	case *List:
		bv, ok := b.(*List)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return Bottom
		}
		out := &List{Elems: make([]Value, len(av.Elems))}
		start := w.enter(k, out)
		for i := range av.Elems {
			out.Elems[i] = meet(av.Elems[i], bv.Elems[i], w)
		}
		w.leave(k, out, start)
		return out
	case *Tag:
		bv, ok := b.(*Tag)
		if !ok || av.Label != bv.Label {
			return Bottom
		}
		out := &Tag{Label: av.Label}
		start := w.enter(k, out)
		out.Payload = meet(av.Payload, bv.Payload, w)
		w.leave(k, out, start)
		return out
	default:
		if a == b {
			return a
		}
		return Bottom
	}
}
