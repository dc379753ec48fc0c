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
// read costs exactly the result walk.
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
}

// Type returns the extent's interned type handle.
func (e *Extent) Type() *types.Interned { return e.in }

// Items returns the extent's members in insertion order. The slice is
// shared and must not be mutated.
func (e *Extent) Items() []Entry { return e.items }

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
}

// typeGen is one type generation (see the package comment). Its memo grows
// with the distinct query types asked, like the subtype verdict cache, and
// its meets with the distinct pairs of member types a JOIN pairs, at most
// the square of the generation's member types.
type typeGen struct {
	memo  sync.Map // *types.Interned → []*types.Interned
	meets sync.Map // [2]*types.Interned → *types.Interned, nil when uninhabited
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
func (s *Set) Apply(ops []Op) (*Set, ApplyStats) {
	next := *s
	var stats ApplyStats
	for _, op := range ops {
		if op.Remove != nil && next.remove(op.Remove) {
			stats.EntriesTouched++
		}
		if op.Add != nil {
			next.add(op.Add)
			stats.EntriesTouched++
		}
	}
	if next.gen == nil { // add or remove changed the member types
		next.gen = new(typeGen)
	}
	return &next, stats
}

// add appends d to its extent. Called on a successor under construction
// only.
func (next *Set) add(d *dynamic.Dynamic) {
	e := Entry{Dyn: d, Seq: next.seq}
	next.seq++
	next.total++
	in := d.Interned()
	key := in.Key()
	ext, had := next.byType.Get(key)
	items := []Entry{e}
	if had {
		// append may reuse the parent's spare capacity: safe, because older
		// published Sets hold shorter slice headers and the single-successor
		// rule means no sibling Set appends to the same array.
		items = append(ext.items, e)
	} else {
		next.gen = nil // a new member type: Apply starts a generation
	}
	next.byType = next.byType.Set(key, &Extent{in: in, items: items})
}

// remove deletes d from its extent, reporting whether it was a member.
// Called on a successor under construction only.
func (next *Set) remove(d *dynamic.Dynamic) bool {
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
	items := removeAt(ext.items, i)
	next.total--
	if len(items) == 0 {
		next.byType = next.byType.Delete(key)
		next.gen = nil // an emptied extent: Apply starts a generation
	} else {
		next.byType = next.byType.Set(key, &Extent{in: in, items: items})
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

// mergeBySeq restores global insertion order across seq-ascending parts
// with a tree of two-way merges (no comparison sort). The result may
// alias an input when only one part is non-empty.
func mergeBySeq(parts [][]Entry, total int) []Entry {
	live, last := 0, -1
	for i := range parts {
		if len(parts[i]) > 0 {
			live, last = live+1, i
		}
	}
	if live == 0 {
		return nil
	}
	if live == 1 {
		return parts[last]
	}
	cur := make([][]Entry, len(parts), len(parts)+1)
	copy(cur, parts)
	buf, alt := make([]Entry, 0, total), make([]Entry, 0, total)
	for len(cur) > 1 {
		if len(cur)%2 == 1 {
			cur = append(cur, nil)
		}
		dst := buf[:0]
		next := cur[:0]
		for i := 0; i+1 < len(cur); i += 2 {
			start := len(dst)
			dst = merge2(dst, cur[i], cur[i+1])
			next = append(next, dst[start:len(dst):len(dst)])
		}
		cur = next
		buf, alt = alt, dst
	}
	return cur[0]
}

func merge2(dst, a, b []Entry) []Entry {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// All returns every member in insertion order.
func (s *Set) All() []Entry {
	parts := make([][]Entry, 0, s.byType.Len())
	s.byType.Range(func(_ string, e *Extent) bool {
		parts = append(parts, e.items)
		return true
	})
	return mergeBySeq(parts, s.total)
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

// GetEntries answers the subtype query: every member whose declared type
// conforms to want, in insertion order, by unioning the matching extents.
// matched reports how many extents that is. The result may alias an
// extent and must not be mutated.
func (s *Set) GetEntries(want *types.Interned) (entries []Entry, matched int) {
	ts := s.matches(want)
	parts := make([][]Entry, 0, 8)
	total := 0
	for _, in := range ts {
		parts = append(parts, s.Extent(in).items)
		total += len(parts[len(parts)-1])
	}
	return mergeBySeq(parts, total), len(ts)
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
	return mergeBySeq(parts, total), ok
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
