package server

import (
	"slices"
	"strings"
	"sync/atomic"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/relation"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// operand is what JOIN and EXPLAIN read of one side: the relation of the
// members matching its query type, GET's answer as values, with what the
// planner and the pairing read of them. It is derived once per version of
// the matching extents and kept in the index set's type generation
// (index.Set.Keep), so concurrent requests share it: nothing writes it
// but the lazy, idempotent build of a partition.
type operand struct {
	// rel is the relation relation.NewIndexed builds of the members;
	// JOIN reads it only (relation.JoinPairs) when a side proves no key.
	rel *relation.Relation
	// members are rel's members, and ws[i] member i's dynamic and ⊥ flag.
	members []value.Value
	ws      []witnessed
	// labels are the labels some record member carries, sorted, and
	// parts[i] the partition on labels[i], built on first use.
	labels []string
	parts  []atomic.Pointer[partition]
}

// witnessed is what JOIN needs of a relation member: its dynamic, whose
// type is the member's declared witness and whose image its value bytes.
type witnessed struct {
	dyn    *dynamic.Dynamic
	bottom bool // value.HoldsBottom of the member
}

// partition is an operand's members partitioned on one label, as the hash
// join partitions its build side: the members holding each distinct atom
// there, and the wildcards, silent or not atomic there.
type partition struct {
	ids     map[value.AtomKey]int // atom → its bucket
	atoms   []value.AtomKey       // bucket → its atom
	buckets [][]int               // members, ascending, by bucket
	wild    []int                 // wildcard members, ascending
	of      []int                 // member → its bucket, -1 for a wildcard
}

// operandOf is the operand of the members of st matching want, kept while
// their extents are unchanged.
func operandOf(st *state, want *types.Interned) *operand {
	return st.idx.Keep(want, newOperand).(*operand)
}

// newOperand derives the operand of entries, the members GET returns.
func newOperand(entries []index.Entry) any {
	vals := make([]value.Value, len(entries))
	for i, e := range entries {
		vals[i] = e.Dyn.Value()
	}
	rel, pos := relation.NewIndexed(vals)
	o := &operand{rel: rel, members: rel.Members(), ws: make([]witnessed, len(pos))}
	for i, p := range pos {
		o.ws[i] = witnessed{dyn: entries[p].Dyn, bottom: value.HoldsBottom(vals[p])}
	}
	seen := map[*value.Shape]bool{}
	for _, m := range o.members {
		if rec, ok := m.(*value.Record); ok && !seen[rec.Shape()] {
			seen[rec.Shape()] = true
			o.labels = append(o.labels, rec.Labels()...)
		}
	}
	slices.Sort(o.labels)
	o.labels = slices.Compact(o.labels)
	o.parts = make([]atomic.Pointer[partition], len(o.labels))
	return o
}

// part returns the partition on labels[i], building it on first use; a
// concurrent first use may build it twice, and one copy wins. The buckets
// and the wildcards are cut from one array.
func (o *operand) part(i int) *partition {
	if p := o.parts[i].Load(); p != nil {
		return p
	}
	p := &partition{ids: map[value.AtomKey]int{}, of: make([]int, len(o.members))}
	var sizes []int
	for m, v := range o.members {
		k, ok := atomOn(v, o.labels[i])
		if !ok {
			p.of[m] = -1
			continue
		}
		b, seen := p.ids[k]
		if !seen {
			b = len(p.atoms)
			p.ids[k], p.atoms, sizes = b, append(p.atoms, k), append(sizes, 0)
		}
		p.of[m] = b
		sizes[b]++
	}
	all, at := make([]int, len(o.members)), 0
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
	if !o.parts[i].CompareAndSwap(nil, p) {
		return o.parts[i].Load()
	}
	return p
}

// atomOn returns the AtomKey of m's label field when m is a record
// defining it atomically, as the hash join partitions members.
func atomOn(m value.Value, label string) (value.AtomKey, bool) {
	if rec, ok := m.(*value.Record); ok {
		if v, ok := rec.Get(label); ok {
			return value.AtomKeyOf(v)
		}
	}
	return value.AtomKey{}, false
}

// planJoin is relation.PlanJoin of the operands' relations, read from
// their partitions: among the labels both sides carry, the one whose
// partition pairs the fewest members, the smallest on a tie, when that is
// fewer than the nested loop's, built from the smaller side.
func planJoin(l, r *operand) relation.JoinPlan {
	p := relation.JoinPlan{Left: len(l.members), Right: len(r.members)}
	p.Pairs = p.Left * p.Right
	for i, j := 0, 0; i < len(l.labels) && j < len(r.labels); {
		switch c := strings.Compare(l.labels[i], r.labels[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			if n := pairsOn(l.part(i), r.part(j), p.Left, p.Right); n < p.Pairs {
				p.Attr, p.Pairs = l.labels[i], n
			}
			i, j = i+1, j+1
		}
	}
	p.BuildRight = p.Attr != "" && p.Right <= p.Left
	return p
}

// pairsOn counts the pairs a hash join on one label tries between sides
// of na and nb members partitioned as a and b: each member atomic there
// meets the other side's members with an equal atom and its wildcards,
// and each wildcard meets the whole other side.
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

// eachPair is relation.EachPair over the operands under plan p: try(i, j)
// for each pair of l's member i and r's member j the plan pairs, in the
// same order — the probe side in member order, each probe member with the
// build side's members holding its atom and then its wildcards, or, a
// wildcard itself, with the whole build side.
func eachPair(l, r *operand, p relation.JoinPlan, try func(i, j int)) {
	if p.Attr == "" {
		for i := range l.members {
			for j := range r.members {
				try(i, j)
			}
		}
		return
	}
	build, probe := l, r
	if p.BuildRight {
		build, probe = r, l
	}
	tryPair := func(pi, bi int) {
		if p.BuildRight {
			try(pi, bi)
		} else {
			try(bi, pi)
		}
	}
	bp, pp := build.part(build.label(p.Attr)), probe.part(probe.label(p.Attr))
	for pi, b := range pp.of {
		if b < 0 {
			for bi := range build.members {
				tryPair(pi, bi)
			}
			continue
		}
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

// label returns the position of l, one of o's labels, in o.labels.
func (o *operand) label(l string) int {
	i, _ := slices.BinarySearch(o.labels, l)
	return i
}
