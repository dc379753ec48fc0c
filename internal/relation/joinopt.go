package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"dbpl/internal/value"
)

// This file implements the generalized natural join as a hash join. The
// nested loop compares every pair of members — O(|R|·|S|) value joins. On
// the common case where both relations largely *define* a shared atomic
// attribute, members with distinct atoms on that attribute can never join
// (atoms conflict unless equal), so pairing can be restricted to members
// whose atoms agree — plus the members *silent* on the attribute, which,
// like the paper's N Bug tuple, remain joinable with everything.
//
// A relation keeps what the join reads of it: its sorted label set and,
// for each label a plan reads, its members partitioned on that label,
// each built on first use (joinIndex, partition). So a relation joined
// again while unchanged is partitioned once, and the plan is chosen from
// exact counts, not estimates: for every shared label the planner counts
// the value.Join attempts a partition on it would make, and partitions on
// the cheapest only when that beats the |R|·|S| attempts of the nested
// loop. The plan never changes the result (TestQuickJoinPlannedEquals);
// BenchmarkJoin measures the effect (the E1 ablation).

// JoinPlan is the planner's verdict for one join: the partition attribute
// ("" for nested-loop), which side to build the hash table from (the probe
// side streams), and the exact counts behind the choice, for EXPLAIN. The
// zero value means nested-loop.
type JoinPlan struct {
	Attr       string // partition attribute; "" for nested-loop
	BuildRight bool   // build from s (the smaller side), probe with r

	Left, Right int // |R| and |S|
	Pairs       int // value.Join attempts the plan makes
}

// String renders the plan in the EXPLAIN format.
func (p JoinPlan) String() string {
	s := fmt.Sprintf("join left=%d right=%d pairs=%d", p.Left, p.Right, p.Pairs)
	if p.Attr == "" {
		return s
	}
	side := "left"
	if p.BuildRight {
		side = "right"
	}
	return fmt.Sprintf("%s attr=%s build=%s", s, p.Attr, side)
}

// joinIndex is what the join reads of a relation: the labels some record
// member carries, sorted, and parts[i] the partition on labels[i], built
// on first use.
type joinIndex struct {
	labels []string
	parts  []atomic.Pointer[partition]
}

// partition is a relation's members partitioned on one label, as the hash
// join partitions its build side: the members holding each distinct atom
// there, and the wildcards, silent, not atomic there or not records.
type partition struct {
	ids     map[value.AtomKey]int // atom → its bucket
	atoms   []value.AtomKey       // bucket → its atom
	buckets [][]int               // members, ascending, by bucket
	wild    []int                 // wildcard members, ascending
	of      []int                 // member → its bucket, -1 for a wildcard
}

// joinIndex returns r's join index, building its label set on first use;
// a concurrent first use may build it twice, and one copy wins. Each
// shape's labels are read once, so an extent of a few label sets costs a
// few reads.
func (r *Relation) joinIndex() *joinIndex {
	if x := r.join.Load(); x != nil {
		return x
	}
	shapes, n := map[*value.Shape]*value.Record{}, 0
	for _, m := range r.elems {
		if rec, ok := m.(*value.Record); ok && shapes[rec.Shape()] == nil {
			shapes[rec.Shape()], n = rec, n+rec.Len()
		}
	}
	x := &joinIndex{labels: make([]string, 0, n)}
	for _, rec := range shapes {
		rec.Each(func(l string, _ value.Value) { x.labels = append(x.labels, l) })
	}
	slices.Sort(x.labels)
	x.labels = slices.Compact(x.labels)
	x.parts = make([]atomic.Pointer[partition], len(x.labels))
	if !r.join.CompareAndSwap(nil, x) {
		return r.join.Load()
	}
	return x
}

// partOn returns r's partition on label, kept when some member carries
// the label; on any other label every member is a wildcard.
func (r *Relation) partOn(label string) *partition {
	x := r.joinIndex()
	if i, ok := slices.BinarySearch(x.labels, label); ok {
		return x.part(r.elems, i)
	}
	return partitionOn(r.elems, label)
}

// part returns the partition of members, the relation's, on labels[i],
// building it on first use; a concurrent first use may build it twice,
// and one copy wins.
func (x *joinIndex) part(members []value.Value, i int) *partition {
	if p := x.parts[i].Load(); p != nil {
		return p
	}
	p := partitionOn(members, x.labels[i])
	if !x.parts[i].CompareAndSwap(nil, p) {
		return x.parts[i].Load()
	}
	return p
}

// partitionOn partitions members on label. The buckets and the wildcards
// are cut from one array.
func partitionOn(members []value.Value, label string) *partition {
	p := &partition{ids: map[value.AtomKey]int{}, of: make([]int, len(members))}
	for m, v := range members {
		k, ok := atomOn(v, label)
		if !ok {
			p.of[m] = -1
			continue
		}
		b, seen := p.ids[k]
		if !seen {
			b = len(p.ids)
			p.ids[k] = b
		}
		p.of[m] = b
	}
	p.atoms = make([]value.AtomKey, len(p.ids))
	for k, b := range p.ids {
		p.atoms[b] = k
	}
	sizes := make([]int, len(p.atoms))
	for _, b := range p.of {
		if b >= 0 {
			sizes[b]++
		}
	}
	all, at := make([]int, len(members)), 0
	p.buckets = make([][]int, len(sizes))
	for b, n := range sizes {
		p.buckets[b], at = all[at:at:at+n], at+n
	}
	p.wild = all[at:at]
	for m, b := range p.of {
		if b < 0 {
			p.wild = append(p.wild, m)
		} else {
			p.buckets[b] = append(p.buckets[b], m)
		}
	}
	return p
}

// atomOn returns the AtomKey of m's label field when m is a record
// defining it atomically.
func atomOn(m value.Value, label string) (value.AtomKey, bool) {
	if rec, ok := m.(*value.Record); ok {
		if v, ok := rec.Get(label); ok {
			return value.AtomKeyOf(v)
		}
	}
	return value.AtomKey{}, false
}

// PlanJoin chooses the join strategy. Among the labels that members of
// both sides carry, it picks the one whose partition makes the fewest
// value.Join attempts — the smallest label on a tie — and partitions on it
// only when that is fewer than the nested loop's |R|·|S|, building from
// the smaller side. The plan depends on the members only, not on their
// insertion order. It reads the partitions each side keeps, so planning a
// join of relations joined before builds nothing.
func PlanJoin(r, s *Relation) JoinPlan {
	p := JoinPlan{Left: r.Len(), Right: s.Len()}
	p.Pairs = p.Left * p.Right
	rx, sx := r.joinIndex(), s.joinIndex()
	for i, j := 0, 0; i < len(rx.labels) && j < len(sx.labels); {
		switch c := strings.Compare(rx.labels[i], sx.labels[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if n := pairsOn(rx.part(r.elems, i), sx.part(s.elems, j), p.Left, p.Right); n < p.Pairs {
				p.Attr, p.Pairs = rx.labels[i], n
			}
			i, j = i+1, j+1
		}
	}
	p.BuildRight = p.Attr != "" && p.Right <= p.Left
	return p
}

// pairsOn counts the value.Join attempts a hash join on one label makes
// between sides of na and nb members partitioned as a and b, with either
// build side: each member atomic there meets the other side's members
// with an equal atom and its wildcards, and each wildcard meets the whole
// other side.
func pairsOn(a, b *partition, na, nb int) int {
	n := (na-len(a.wild))*len(b.wild) + len(a.wild)*nb
	if len(a.atoms) > len(b.atoms) {
		a, b = b, a
	}
	for i, k := range a.atoms {
		if j, ok := b.ids[k]; ok {
			n += len(a.buckets[i]) * len(b.buckets[j])
		}
	}
	return n
}

// JoinPlanned executes a join under an explicit plan: nested-loop (the
// zero plan), or a build/probe hash join — the build side's partition on
// the plan's attribute gives each probe member its bucket. The result is
// identical under every plan (TestQuickJoinPlannedEquals).
func JoinPlanned(r, s *Relation, p JoinPlan) *Relation {
	out, _ := JoinPairs(r, s, p)
	return out
}

// JoinPairs is JoinPlanned that also reports which members each result
// member joins: Members()[i] is the join of r's member pairs[i][0] and s's
// member pairs[i][1]. When both sides are Keyed the joins are a cochain
// as EachPair makes them, and the maxima pass is skipped.
func JoinPairs(r, s *Relation, p JoinPlan) (*Relation, [][2]int) {
	var joined []value.Value
	var pairs [][2]int
	EachPair(r, s, p, func(i, j int) {
		if m, err := value.Join(r.elems[i], s.elems[j]); err == nil {
			joined, pairs = append(joined, m), append(pairs, [2]int{i, j})
		}
	})
	if r.Keyed() && s.Keyed() {
		return &Relation{elems: joined}, pairs
	}
	out, keep := newFrom(joined)
	if keep == nil {
		return out, pairs
	}
	kept := make([][2]int, len(keep))
	for i, k := range keep {
		kept[i] = pairs[k]
	}
	return out, kept
}

// EachPair calls try(i, j) for every pair of r's member i and s's member
// j that the plan pairs, in plan order: the join of the pair is attempted
// by try. The plan order is JoinPairs' member order: the probe side in
// member order, each probe member atomic on the plan's attribute with the
// build side's members holding its atom and then the build side's
// wildcards, and each probe wildcard with the whole build side.
//
// When New proved both sides Keyed, on k_R and k_S, the joins of the
// pairs are a cochain as made, so each one that succeeds is a member of
// the join. A joined object holds its r member's atom at k_R and its s
// member's atom at k_S, since an atom joins only with an equal atom or ⊥.
// So j₁ ⊑ j₂ forces equal atoms at both labels, hence the same pair of
// members, and each pair is tried once.
func EachPair(r, s *Relation, p JoinPlan, try func(i, j int)) {
	if p.Attr == "" {
		for i := range r.elems {
			for j := range s.elems {
				try(i, j)
			}
		}
		return
	}
	build, probe := r, s
	if p.BuildRight {
		build, probe = s, r
	}
	// tryPair keeps the (r, s) orientation regardless of build side.
	tryPair := func(pi, bi int) {
		if p.BuildRight {
			try(pi, bi)
		} else {
			try(bi, pi)
		}
	}
	bp, pp := build.partOn(p.Attr), probe.partOn(p.Attr)
	for pi, b := range pp.of {
		if b < 0 {
			// A probe wildcard pairs with the whole build side.
			for bi := range build.elems {
				tryPair(pi, bi)
			}
			continue
		}
		// Equal atoms join; the build side's wildcards join everything.
		if j, ok := bp.ids[pp.atoms[b]]; ok {
			for _, bi := range bp.buckets[j] {
				tryPair(pi, bi)
			}
		}
		for _, bi := range bp.wild {
			tryPair(pi, bi)
		}
	}
}
