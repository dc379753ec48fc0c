// Package index makes the paper's maintained extents first-class,
// immutable values that the server publishes behind the same atomic
// pointer as the committed state. "A type is a very large relation"
// (experiment E10) becomes the one executable access path: a Set holds one
// maintained extent per distinct member type, and answers every
// GET-by-subtype query — Get : ∀t. Database → List[∃t' ≤ t] — as the
// union of the extents whose type is ≤ t.
//
// # Copy-on-write discipline
//
// A Set is immutable once published. Apply returns the successor Set with
// a commit group's membership delta applied, sharing every untouched
// structure with its parent. The type → extent table is a persistent map
// (internal/pmap): a successor copies the O(log n) path to each entry it
// changes, never the whole table. Within a changed extent, an append may
// reuse spare capacity of the parent's backing array — safe under the
// *single-successor* rule: a Set may be Apply'd at most once, and only the
// newest Set in a lineage may be advanced. The server guarantees this by
// serializing writers through its committer. Readers never take a lock. A
// removal copies the one extent it leaves, so that is the one commit cost
// that still grows with the store: O(extent).
//
// The one exception is Fork: it clips every extent's spare capacity, so
// the forked Set may be advanced by any number of owners, each first
// append to an extent copying it, while the Set it was forked from keeps
// advancing. core.Database forks to give two databases the same members,
// and the server forks a transaction's pinned Set to build the state its
// COMMIT would publish. Fork costs O(member types); Apply pays nothing
// for it.
//
// Each extent is one flat, insertion-ordered slice, so a high-selectivity
// read costs exactly the result walk. Walk reads the matching extents in
// insertion order with a k-way merge over a cursor per extent, which sits
// on the stack for up to 8 extents, and copies nothing; GetEntries, All
// and Candidates collect from the same merge.
//
// # Type generations
//
// Successor Sets share a type generation until a member type first
// appears or an extent empties, and the generation memoizes, per interned
// query type, the matching member types, and per pair of member types a
// JOIN meets, their meet. A memo hit costs O(matching
// extents · log T + result) for T member types; a miss, one cached subtype
// check per member type, once per generation.
//
// A generation also keeps, per query type, a value its caller derives
// from the matching members (Keep) — the server's JOIN keeps each side's
// relation there — for as long as the matching extents hold the members
// it was derived from. Since an extent never changes below its length,
// an extent that starts at the same entry with the same length is that
// version: the same *Extent, or a fork's clipped copy of it. What a
// generation keeps is derived from no more members than the Set holds,
// and a fork reads it but stores nothing.
//
// # Field indexes
//
// A Def declares an index on a record field label, fixed when the Set is
// built (NewSet, Rebuild) and inherited by every successor. A field index
// is derived from the extents, never maintained beside them: its
// candidates are the union, in insertion order, of the extents whose type
// can possibly conform to a record type requiring the field — a record
// type carrying the label (the 64-bit label signatures from the interning
// layer, types.LabelBit, make most rejections one mask check), or,
// conservatively, not a record type at all. So committing costs nothing
// per field. No GET reads a field index, and the server's Sets declare
// none — its index definitions live in the store's log alone:
// Candidates and CandidateCount are kept for E16 and the bench replay
// until ROADMAP 5 deletes the replay. The index is a sound prefilter,
// never a verdict — every candidate must still be checked against the
// requested type.
package index

import (
	"slices"
	"sort"
	"sync"

	"dbpl/internal/dynamic"
	"dbpl/internal/pmap"
	"dbpl/internal/types"
)

// Entry is one indexed member: the dynamic plus the Set-wide sequence
// number that restores insertion order when extents are unioned.
type Entry struct {
	Dyn *dynamic.Dynamic
	Seq uint64
}

// Def declares one field-value index.
type Def struct {
	// Field is the record label the index covers.
	Field string
}

// Op is one membership change of a commit group, in application order:
// Remove (when non-nil) leaves the database, then Add (when non-nil)
// enters it. A root rebind is one Op carrying both.
type Op struct {
	Remove *dynamic.Dynamic
	Add    *dynamic.Dynamic
}

// ApplyStats reports what one Apply touched, for the maintenance-cost
// telemetry.
type ApplyStats struct {
	// EntriesTouched counts extent entry insertions and removals.
	EntriesTouched int
}

// Extent is the maintained extent of one interned type: the members whose
// declared type *is* (not merely conforms to) the type, as one flat
// seq-ascending slice. A subtype query unions the extents whose types pass
// the cached subtype check.
type Extent struct {
	in    *types.Interned
	items []Entry
	// owner is the Apply that built this Extent, which edits it in place
	// (nil for any other); mine reports that items is an array that Apply
	// made, not one a published extent shares. See Apply.
	owner *pmap.Owner
	mine  bool
}

// Type returns the extent's interned type handle.
func (e *Extent) Type() *types.Interned { return e.in }

// Len reports the member count.
func (e *Extent) Len() int { return len(e.items) }

// Set is an immutable collection of maintained extents over one committed
// membership, with the field-index labels it was built with; see the
// package comment for the copy-on-write discipline and field indexes.
type Set struct {
	seq    uint64            // next sequence number to assign
	total  int               // members across all extents
	byType pmap.Map[*Extent] // by the interned type's canonical key
	fields []string          // declared field-index labels, sorted; never mutated
	gen    *typeGen          // shared with every Set of the same member types
	forked bool              // a Fork or its successor: reads what gen keeps, stores nothing
}

// typeGen is one type generation (see the package comment). Its memo grows
// with the distinct query types asked, like the subtype verdict cache, and
// its meets with the distinct pairs of member types a JOIN pairs, at most
// the square of the generation's member types. What it keeps (Set.Keep)
// is bounded by the members it was derived from.
type typeGen struct {
	memo  sync.Map // *types.Interned → []*types.Interned
	meets sync.Map // [2]*types.Interned → *types.Interned, nil when uninhabited
	kept  sync.Map // *types.Interned → *kept

	keepMu sync.Mutex // serializes stores into kept
	keptN  int        // the members the values in kept were derived from, in all
}

// kept is one value Set.Keep keeps: derived from the n members of exts,
// the extents matching its query type when it was derived.
type kept struct {
	exts []*Extent
	n    int
	val  any
}

// NewSet returns an empty Set with the given field indexes declared.
func NewSet(defs ...Def) *Set {
	return &Set{fields: labels(defs), gen: new(typeGen)}
}

// labels returns the defs' labels, sorted and without duplicates.
func labels(defs []Def) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Field)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Len reports the total member count.
func (s *Set) Len() int { return s.total }

// Types reports the number of distinct member types (= maintained extents).
func (s *Set) Types() int { return s.byType.Len() }

// Extent returns the maintained extent for the interned type, nil when no
// member has it.
func (s *Set) Extent(in *types.Interned) *Extent {
	e, _ := s.byType.Get(in.Key())
	return e
}

// removeAt returns a copy of items without items[i], with room for the
// append a rebind makes next.
func removeAt(items []Entry, i int) []Entry {
	next := make([]Entry, 0, len(items))
	next = append(next, items[:i]...)
	return append(next, items[i+1:]...)
}

// Apply returns the successor Set with the commit group's ops applied in
// order, together with maintenance statistics. The successor keeps its
// parent's type generation unless an op added a member type or emptied an
// extent. Apply must only be called on the newest Set of a lineage, at
// most once (the single-successor rule); the caller serializes writers.
//
// Apply builds the successor under one pmap.Owner, as a commit builds its
// root table: the first change to an extent copies the extent, and the
// path to it in the type → extent table, and every later change of the
// same Apply edits those copies in place, which nobody else can see yet.
// It never edits a node or an extent it did not build: those are its
// parent's, and published. A rebind within one extent is one copy of the
// extent, the new member appended in the room the copy leaves.
func (s *Set) Apply(ops []Op) (*Set, ApplyStats) {
	next := *s
	o := new(pmap.Owner)
	var stats ApplyStats
	for _, op := range ops {
		rebind := op.Remove != nil && op.Add != nil && op.Remove.Interned() == op.Add.Interned()
		if op.Remove != nil && next.remove(op.Remove, o, rebind) {
			stats.EntriesTouched++
		}
		if op.Add != nil {
			next.add(op.Add, o)
			stats.EntriesTouched++
		}
	}
	if next.gen == nil { // add or remove changed the member types
		next.gen = new(typeGen)
	}
	return &next, stats
}

// add appends d to its extent under o. Called on a successor under
// construction only.
func (next *Set) add(d *dynamic.Dynamic, o *pmap.Owner) {
	e := Entry{Dyn: d, Seq: next.seq}
	next.seq++
	next.total++
	in := d.Interned()
	key := in.Key()
	ext, had := next.byType.Get(key)
	switch {
	case had && ext.owner == o:
		ext.items = append(ext.items, e)
	case had:
		// append may reuse the parent's spare capacity: safe, because older
		// published Sets hold shorter slice headers and the single-successor
		// rule means no sibling Set appends to the same array.
		next.byType = next.byType.SetOwned(key, &Extent{in: in, items: append(ext.items, e), owner: o}, o)
	default:
		next.gen = nil // a new member type: Apply starts a generation
		next.byType = next.byType.SetOwned(key, &Extent{in: in, items: []Entry{e}, owner: o, mine: true}, o)
	}
}

// remove deletes d from its extent under o, reporting whether it was a
// member. Called on a successor under construction only. An extent that
// d empties is deleted, and Apply starts a generation, unless refill is
// set: then the Op goes on to add a member of the same type, and the
// extent stays, empty for that moment.
func (next *Set) remove(d *dynamic.Dynamic, o *pmap.Owner, refill bool) bool {
	in := d.Interned()
	key := in.Key()
	ext, ok := next.byType.Get(key)
	if !ok {
		return false
	}
	i := 0
	for i < len(ext.items) && ext.items[i].Dyn != d {
		i++
	}
	if i == len(ext.items) {
		return false
	}
	next.total--
	switch {
	case len(ext.items) == 1 && !refill:
		next.byType = next.byType.DeleteOwned(key, o)
		next.gen = nil // an emptied extent: Apply starts a generation
	case ext.owner == o && ext.mine:
		ext.items = slices.Delete(ext.items, i, i+1)
	case ext.owner == o:
		ext.items, ext.mine = removeAt(ext.items, i), true
	default:
		next.byType = next.byType.SetOwned(key, &Extent{in: in, items: removeAt(ext.items, i), owner: o, mine: true}, o)
	}
	return true
}

// Fork returns a copy of s whose every extent is clipped to its length,
// so that no append through the copy can write into an array another Set
// still extends. That makes the fork the one exception to the
// single-successor rule: it may be Apply'd any number of times, by any
// number of owners, each append copying its extent first. Fork shares
// every member and costs O(member types); s itself is left as it was.
func (s *Set) Fork() *Set {
	next := *s
	next.forked = true
	keys := make([]string, 0, s.byType.Len())
	exts := make([]*Extent, 0, s.byType.Len())
	s.byType.Range(func(key string, e *Extent) bool {
		keys = append(keys, key)
		exts = append(exts, &Extent{in: e.in, items: e.items[:len(e.items):len(e.items)]})
		return true
	})
	next.byType = pmap.Build(keys, exts)
	return &next
}

// walkStack is the number of extents a walk merges with its cursors on
// the stack; a walk over more allocates them.
const walkStack = 8

// walkBySeq calls yield with the entries of the seq-ascending parts in
// seq order until yield returns false, and reports whether it ran to the
// end. It is a k-way merge over a cursor per part, kept in a min-heap on
// the seq of the cursor's next entry: the least cursor yields its whole
// run up to the next least, so each run costs one sift, not one
// comparison per part for each entry. It allocates nothing for up to
// walkStack parts.
func walkBySeq(parts [][]Entry, yield func(Entry) bool) bool {
	var buf [walkStack]cursor
	h := buf[:0]
	if len(parts) > walkStack {
		h = make([]cursor, 0, len(parts))
	}
	for i, p := range parts {
		if len(p) > 0 {
			h = append(h, cursor{seq: p[0].Seq, part: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 1 {
		c := &h[0]
		next := h[1].seq
		if len(h) > 2 {
			next = min(next, h[2].seq)
		}
		p, at := parts[c.part], c.at
		for {
			if !yield(p[at]) {
				return false
			}
			if at++; at == len(p) || p[at].Seq > next {
				break
			}
		}
		if at < len(p) {
			c.seq, c.at = p[at].Seq, at
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	for _, c := range h { // the last cursor yields the rest of its part
		for _, e := range parts[c.part][c.at:] {
			if !yield(e) {
				return false
			}
		}
	}
	return true
}

// cursor is walkBySeq's place in one part: the entry at, whose seq is seq.
type cursor struct {
	seq      uint64
	part, at int
}

// siftDown restores walkBySeq's heap below cursor i.
func siftDown(h []cursor, i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].seq < h[least].seq {
			least = l
		}
		if r < len(h) && h[r].seq < h[least].seq {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// collect returns the entries of the parts, total in all, in seq order:
// the one non-empty part itself when there is one, else what walkBySeq
// yields, copied.
func collect(parts [][]Entry, total int) []Entry {
	if total == 0 {
		return nil
	}
	for _, p := range parts {
		if len(p) == total {
			return p
		}
	}
	out := make([]Entry, 0, total)
	walkBySeq(parts, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// All returns every member in insertion order.
func (s *Set) All() []Entry {
	parts := make([][]Entry, 0, s.byType.Len())
	s.byType.Range(func(_ string, e *Extent) bool {
		parts = append(parts, e.items)
		return true
	})
	return collect(parts, s.total)
}

// matches returns the member types conforming to want, memoized per
// generation, so each has an extent in s. The slice must not be mutated.
func (s *Set) matches(want *types.Interned) []*types.Interned {
	if m, ok := s.gen.memo.Load(want); ok {
		return m.([]*types.Interned)
	}
	var m []*types.Interned
	s.byType.Range(func(_ string, e *Extent) bool {
		if types.SubtypeInterned(e.in, want) {
			m = append(m, e.in)
		}
		return true
	})
	s.gen.memo.Store(want, m)
	return m
}

// Meet returns the interned meet a ⊓ b of two member types (types.Meet),
// or nil when the meet is uninhabited, memoized per generation.
func (s *Set) Meet(a, b *types.Interned) *types.Interned {
	k := [2]*types.Interned{a, b}
	if m, ok := s.gen.meets.Load(k); ok {
		return m.(*types.Interned)
	}
	var m *types.Interned
	if t, ok := types.Meet(a.Type(), b.Type()); ok {
		m = types.Intern(t)
	}
	s.gen.meets.Store(k, m)
	return m
}

// extents appends the items of the extents of the member types ts to
// parts, and returns them with their member count.
func (s *Set) extents(parts [][]Entry, ts []*types.Interned) ([][]Entry, int) {
	if cap(parts)-len(parts) < len(ts) {
		parts = slices.Grow(parts, len(ts))
	}
	total := 0
	for _, in := range ts {
		items := s.Extent(in).items
		parts, total = append(parts, items), total+len(items)
	}
	return parts, total
}

// Walk calls yield with every member whose declared type conforms to
// want, in insertion order, until yield returns false: GetEntries' answer,
// read from the matching extents as it is yielded. It allocates nothing
// for up to 8 matching extents.
func (s *Set) Walk(want *types.Interned, yield func(Entry) bool) {
	var buf [walkStack][]Entry
	parts, _ := s.extents(buf[:0], s.matches(want))
	walkBySeq(parts, yield)
}

// GetEntries answers the subtype query: every member whose declared type
// conforms to want, in insertion order, collected from Walk's merge of the
// matching extents. matched reports how many extents that is. The result
// may alias an extent and must not be mutated.
func (s *Set) GetEntries(want *types.Interned) (entries []Entry, matched int) {
	ts := s.matches(want)
	var buf [walkStack][]Entry
	parts, total := s.extents(buf[:0], ts)
	return collect(parts, total), len(ts)
}

// Keep returns the value derive makes of the members matching want,
// GetEntries' answer, keeping it in the type generation for as long as
// they are the same: while the matching extents are those it was derived
// from. An extent never changes below its length (the single-successor
// rule), so one that starts at the same entry and has the same length
// holds the same members, a fork's clipped copy included. A kept value is
// shared by every Set of the generation and every goroutine reading one:
// derive's result must be safe to read concurrently and must never be
// written after derive returns.
//
// The values a generation keeps together are derived from no more members
// than the Set that keeps the newest holds; one past that drops all it
// kept. A value of no members is not kept. A forked Set and its
// successors read what their generation keeps but store nothing, so a
// transaction's view never evicts what the published Sets keep.
func (s *Set) Keep(want *types.Interned, derive func([]Entry) any) any {
	ts := s.matches(want)
	if k, ok := s.gen.kept.Load(want); ok && s.holds(k.(*kept).exts, ts) {
		return k.(*kept).val
	}
	exts := make([]*Extent, len(ts))
	for i, in := range ts {
		exts[i] = s.Extent(in)
	}
	parts, n := s.extents(nil, ts)
	val := derive(collect(parts, n))
	if !s.forked && n > 0 {
		s.gen.keep(want, &kept{exts: exts, n: n, val: val}, s.total)
	}
	return val
}

// holds reports whether the extents of the member types ts in s hold what
// exts, the extents of ts in a Set of the same generation, held.
func (s *Set) holds(exts []*Extent, ts []*types.Interned) bool {
	for i, in := range ts {
		e, was := s.Extent(in), exts[i]
		if e != was && (e == nil || e.Len() != was.Len() || &e.items[0] != &was.items[0]) {
			return false
		}
	}
	return true
}

// keep stores k as the value kept for want, dropping everything kept
// first when k would take the members kept past bound.
func (g *typeGen) keep(want *types.Interned, k *kept, bound int) {
	g.keepMu.Lock()
	defer g.keepMu.Unlock()
	if old, ok := g.kept.LoadAndDelete(want); ok {
		g.keptN -= old.(*kept).n
	}
	if g.keptN+k.n > bound {
		g.kept.Range(func(key, _ any) bool {
			g.kept.Delete(key)
			return true
		})
		g.keptN = 0
	}
	g.kept.Store(want, k)
	g.keptN += k.n
}

// MatchStats sizes the subtype query without materializing it: the result
// cardinality and the number of matching extents, exactly what
// GetEntries returns.
func (s *Set) MatchStats(want *types.Interned) (result, matched int) {
	ts := s.matches(want)
	for _, in := range ts {
		result += s.Extent(in).Len()
	}
	return result, len(ts)
}

// Candidates returns a field index's candidate set for a record query
// requiring the indexed field: the members whose type defines it plus the
// conservatively kept non-record-typed members, in insertion order. The
// caller must still check every candidate against the requested type. ok
// is false when the field is not indexed.
func (s *Set) Candidates(field string) (entries []Entry, ok bool) {
	parts, total, ok := s.covering(field)
	return collect(parts, total), ok
}

// CandidateCount sizes a field index's candidate set without materializing
// it; ok is false when the field is not indexed.
func (s *Set) CandidateCount(field string) (n int, ok bool) {
	_, n, ok = s.covering(field)
	return n, ok
}

// covering returns the extents a declared field index derives its
// candidates from (see the package comment) and their member count; ok is
// false when the field is not indexed.
func (s *Set) covering(field string) (parts [][]Entry, total int, ok bool) {
	if _, ok := slices.BinarySearch(s.fields, field); !ok {
		return nil, 0, false
	}
	bit := types.LabelBit(field)
	s.byType.Range(func(_ string, e *Extent) bool {
		if rt, isRec := e.in.Type().(*types.Record); isRec {
			if rt.LabelBits()&bit == 0 {
				return true // signature: the field cannot be present
			}
			if _, has := rt.Lookup(field); !has {
				return true
			}
		}
		parts = append(parts, e.items)
		total += len(e.items)
		return true
	})
	return parts, total, true
}

// Rebuild constructs a Set from scratch in one pass: members added in the
// given order (their insertion order), with the given field indexes
// declared. This is the recovery fallback — a store reopened after a
// crash, a salvaged log, or a follower catching up rebuilds its Set from
// the committed roots, so an index can never be ahead of the durable
// state.
func Rebuild(members []*dynamic.Dynamic, defs ...Def) *Set {
	s := &Set{seq: uint64(len(members)), total: len(members), fields: labels(defs), gen: new(typeGen)}
	byType := map[*types.Interned]*Extent{}
	for i, d := range members {
		in := d.Interned()
		ext := byType[in]
		if ext == nil {
			ext = &Extent{in: in}
			byType[in] = ext
		}
		ext.items = append(ext.items, Entry{Dyn: d, Seq: uint64(i)})
	}
	exts := make([]*Extent, 0, len(byType))
	for _, ext := range byType {
		exts = append(exts, ext)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].in.Key() < exts[j].in.Key() })
	keys := make([]string, len(exts))
	for i, ext := range exts {
		keys[i] = ext.in.Key()
	}
	s.byType = pmap.Build(keys, exts)
	return s
}
