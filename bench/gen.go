package main

import (
	"fmt"
	"math/rand"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// The store lattice. Every store the benchmark builds holds the same 41
// declared record types; only the member counts of the bulk and filler
// classes scale with the store size n. All but joinR refine
// {Id: Int, Name: String}, so the types form one subtype lattice with
// diamonds (A12 ≤ A1, A2 ≤ A).
//
//	rare     16 types {Id, Name, R<j>: Int}, 1,1,1,1,2,2,4,8 members ×2   40 roots
//	badge    {Id, Name, Badge} ×5, {Id, Name, Badge, Level} ×3         8 roots (the indexed rare field)
//	joinL    {Id, Name, Dept, L} ×128, {…, L2: String} ×8            136 roots
//	joinR    {Dept, DName, R} ×8                                       8 roots
//	bulkA/B  4 types each (X, X+X1, X+X2, X+X1+X2), n/8 members per family
//	order    {Id, Name, F0, Items: List[{Sku, Qty}]} with 16 sub-records, n/8 roots
//	filler   11 types {Id, Name, F<i>} / {…, G: String}, the remaining roots
const (
	rareTypes  = 16
	fillTypes  = 11
	subRecords = 16
	indexField = "Badge"
	fixedRoots = 40 + 8 + 136 + 8
)

// rareCounts are the extent sizes of the rare types, cycled: most rare
// GETs return one or two records, so on read-selective the reply — and
// with it the codec — stays a minor share of the call.
var rareCounts = [8]int{1, 1, 1, 1, 2, 2, 4, 8}

// class is one declared type and how many roots a store of a given size
// binds at it.
type class struct {
	typ   types.Type
	count int
}

func rec(fields string) types.Type { return types.MustParse("{" + fields + "}") }

const base = "Id: Int, Name: String"

// lattice is the type structure shared by every store, with the query
// types the workloads use.
type lattice struct {
	classes []class
	// Queries, each with its expected result count in want (filled by
	// newModel from the generated roots, not from the class table).
	miss, badge, badgeLevel, bulkA, bulkB, joinL, joinR int // indexes into queries
	rare                                                [rareTypes]int
	queries                                             []query
}

// query is one GET type and the number of records the oracle expects.
type query struct {
	t    types.Type
	want int
}

func newLattice(n int) *lattice {
	l := &lattice{}
	add := func(fields string, count int) types.Type {
		t := rec(fields)
		l.classes = append(l.classes, class{typ: t, count: count})
		return t
	}
	q := func(t types.Type) int {
		l.queries = append(l.queries, query{t: t})
		return len(l.queries) - 1
	}
	l.miss = q(rec("Nonesuch: Int"))
	for j := 0; j < rareTypes; j++ {
		l.rare[j] = q(add(fmt.Sprintf("%s, R%d: Int", base, j), rareCounts[j%8]))
	}
	add(base+", Badge: Int", 5)
	l.badgeLevel = q(add(base+", Badge: Int, Level: Int", 3))
	l.badge = q(rec("Badge: Int"))
	l.joinL = q(add(base+", Dept: Int, L: Int", 128))
	add(base+", Dept: Int, L: Int, L2: String", 8)
	l.joinR = q(add("Dept: Int, DName: String, R: Int", 8))
	fam := n / 8
	for _, x := range []string{"A", "B"} {
		top := add(fmt.Sprintf("%s, %s: Int", base, x), fam/4)
		add(fmt.Sprintf("%s, %s: Int, %s1: String", base, x, x), fam/4)
		add(fmt.Sprintf("%s, %s: Int, %s2: Float", base, x, x), fam/4)
		add(fmt.Sprintf("%s, %s: Int, %s1: String, %s2: Float", base, x, x, x), fam-3*(fam/4))
		if x == "A" {
			l.bulkA = q(top)
		} else {
			l.bulkB = q(top)
		}
	}
	add(base+", F0: Int, Items: List[{Sku: Int, Qty: Int}]", n/8)
	rest := n - fixedRoots - 2*fam - n/8
	for i := 0; i < fillTypes; i++ {
		fields := fmt.Sprintf("%s, F%d: Int", base, i/2)
		if i%2 == 1 {
			fields += ", G: String"
		}
		c := rest / fillTypes
		if i < rest%fillTypes {
			c++
		}
		add(fields, c)
	}
	return l
}

// rootState is the shadow model's view of one root: its name, the class
// it was declared at (never changed by any write) and the last value the
// server acknowledged.
type rootState struct {
	name  string
	class int
	ord   int // position among the roots of its class
	val   value.Value
}

// model is the correctness oracle: name → declared type and last acked
// value. Writers own disjoint root ids, so they update it without a lock.
type model struct {
	lat   *lattice
	roots []rootState
}

// newModel generates a store of n roots: classes are dealt to root ids in
// a seeded shuffle so extents interleave in insertion (name) order.
func newModel(n int, rng *rand.Rand) *model {
	m := &model{lat: newLattice(n), roots: make([]rootState, 0, n)}
	var deal []int
	for ci, c := range m.lat.classes {
		for k := 0; k < c.count; k++ {
			deal = append(deal, ci)
		}
	}
	if len(deal) != n {
		panic(fmt.Sprintf("bench: lattice deals %d roots, want %d", len(deal), n))
	}
	rng.Shuffle(n, func(i, j int) { deal[i], deal[j] = deal[j], deal[i] })
	seen := make([]int, len(m.lat.classes))
	for id, ci := range deal {
		m.roots = append(m.roots, rootState{name: fmt.Sprintf("r%05d", id), class: ci, ord: seen[ci]})
		seen[ci]++
		m.roots[id].val = m.newValue(id, rng)
	}
	for qi := range m.lat.queries {
		for _, r := range m.roots {
			if types.Subtype(m.lat.classes[r.class].typ, m.lat.queries[qi].t) {
				m.lat.queries[qi].want++
			}
		}
	}
	return m
}

// newValue generates a fresh value for root id at its declared type. Id is
// the root id (so members are pairwise incomparable), Dept is the root's
// position in its class mod 8 (so every joinL member meets exactly one of
// the eight joinR members, whatever the seed), everything else is seeded
// noise of fixed encoded width, which keeps log_mb independent of the seed.
func (m *model) newValue(id int, rng *rand.Rand) value.Value {
	r := &m.roots[id]
	return genRecord(m.lat.classes[r.class].typ.(*types.Record), id, r.ord%8, rng)
}

func genRecord(t *types.Record, id, dept int, rng *rand.Rand) value.Value {
	r := value.NewRecord()
	for _, f := range t.Fields() {
		switch {
		case f.Label == "Id":
			r.Set(f.Label, value.Int(id))
		case f.Label == "Dept":
			r.Set(f.Label, value.Int(dept))
		default:
			r.Set(f.Label, genField(f.Type, rng))
		}
	}
	return r
}

func genField(t types.Type, rng *rand.Rand) value.Value {
	switch t := t.(type) {
	case *types.Record:
		return genRecord(t, 0, 0, rng)
	case *types.List:
		l := value.NewList()
		for k := 0; k < subRecords; k++ {
			l.Append(genField(t.Elem, rng))
		}
		return l
	}
	switch t.Kind() {
	case types.KindInt:
		return value.Int(1<<24 + rng.Int63n(1<<24))
	case types.KindFloat:
		return value.Float(rng.Float64())
	case types.KindString:
		b := make([]byte, 12)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		return value.String(b)
	}
	panic("bench: no generator for " + t.String())
}

// joinWant is the oracle's JOIN answer: every joinL-conforming root meets
// exactly the joinR-conforming roots with its Dept, and the joined records
// keep distinct Ids, so the result is one record per matching pair.
func (m *model) joinWant() int {
	lt, rt := m.lat.queries[m.lat.joinL].t, m.lat.queries[m.lat.joinR].t
	depts := map[value.Value]int{}
	for _, r := range m.roots {
		if types.Subtype(m.lat.classes[r.class].typ, rt) {
			depts[r.val.(*value.Record).MustGet("Dept")]++
		}
	}
	n := 0
	for _, r := range m.roots {
		if types.Subtype(m.lat.classes[r.class].typ, lt) {
			n += depts[r.val.(*value.Record).MustGet("Dept")]
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

type opKind uint8

const (
	opGet    opKind = iota // GET of queries[q]
	opGetIdx               // GET answered through the declared field index; timed apart as op2 on read-selective
	opJoin                 // JOIN joinL × joinR
	opPut                  // autocommit PUT re-binding roots[0] at its declared type
	opDelPut               // autocommit DELETE of roots[0], then PUT it back
	opTxn                  // BEGIN, 8 PUTs, COMMIT
	numKinds
)

var kindNames = [numKinds]string{"get", "get-indexed", "join", "put", "delete+put", "txn"}

// op is one pre-generated operation. Writes carry the root ids they touch
// and the values they bind, so no generation work lands inside a measured
// call.
type op struct {
	kind  opKind
	q     int
	roots []int
	vals  []value.Value
}

// selectiveOps is the read-selective mix: 1/4 miss type, 1/2 the 16 rare
// extents in equal parts (1–8 records, mostly 1 or 2), 1/4 the indexed
// field (8 or 3 records). The proportions are exact and only the order is
// seeded, so every seed issues the same work. n is a multiple of 32.
func (m *model) selectiveOps(n int, rng *rand.Rand) []op {
	l := m.lat
	ops := make([]op, 0, n)
	for i := 0; i < n/32; i++ {
		for k := 0; k < 8; k++ {
			ops = append(ops, op{kind: opGet, q: l.miss})
		}
		for j := 0; j < rareTypes; j++ {
			ops = append(ops, op{kind: opGet, q: l.rare[j]})
		}
		for k := 0; k < 4; k++ {
			ops = append(ops, op{kind: opGetIdx, q: l.badge}, op{kind: opGetIdx, q: l.badgeLevel})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// bulkOps is the read-bulk mix: 15 of 16 ops GET one of the two disjoint
// bulk extents (alternating), 1 of 16 is the JOIN.
func (m *model) bulkOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch {
		case i%16 == 15:
			ops[i] = op{kind: opJoin}
		case i%2 == 0:
			ops[i] = op{kind: opGet, q: m.lat.bulkA}
		default:
			ops[i] = op{kind: opGet, q: m.lat.bulkB}
		}
	}
	return ops
}

// commitOps is the write-commit mix over the root ids one writer owns:
// 80 % autocommit PUT, 10 % DELETE + re-PUT, 10 % an 8-PUT transaction.
// The deal is a fixed pattern of ten, so every segment holds the same
// number of each kind and log_mb repeats.
func (m *model) commitOps(n int, owned []int, rng *rand.Rand) []op {
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: opPut}
		k := 1
		switch i % 10 {
		case 4:
			o.kind = opDelPut
		case 9:
			o.kind, k = opTxn, 8
		}
		for _, j := range rng.Perm(len(owned))[:k] {
			id := owned[j]
			o.roots = append(o.roots, id)
			o.vals = append(o.vals, m.newValue(id, rng))
		}
		ops[i] = o
	}
	return ops
}

// putOps is the mixed-replicated writer: autocommit PUTs only.
func (m *model) putOps(n int, rng *rand.Rand) []op {
	ops := make([]op, n)
	for i := range ops {
		id := rng.Intn(len(m.roots))
		ops[i] = op{kind: opPut, roots: []int{id}, vals: []value.Value{m.newValue(id, rng)}}
	}
	return ops
}
