// Package pmap is a persistent ordered map from string keys to values: a
// B+tree whose Set and Delete copy only the nodes on the path to the key
// (path copying) and share every other node with the map they were called
// on. A map is therefore a value — every earlier version keeps reading
// exactly its own contents after later edits, with no lock — and an edit
// costs O(log n) node copies, never a copy of the table.
//
// The server's published state keeps its tables in this form (the root
// table, index.Set's type → extent table and each field index's bucket
// table), so a commit publishes a successor that costs what it changed.
package pmap

import "slices"

// width is the most items a node holds. A node left with fewer than
// minItems by a Delete is merged with a sibling, or the two share their
// items evenly; the gap between the two bounds keeps a key that flips
// between present and absent from splitting and merging on every edit.
const (
	width    = 32
	minItems = width / 4
)

// Map is an immutable ordered map. The zero Map is empty and ready to
// use; Set and Delete return successors and never modify their receiver,
// so a Map may be read from any number of goroutines while another
// derives successors from it.
type Map[V any] struct {
	root *node[V]
	n    int
}

// An Owner marks the nodes one writer's SetOwned built, which its later
// SetOwned calls edit in place instead of copying. The writer must take a
// new Owner before any other holder (a snapshot it keeps included) sees
// the map. A nil *Owner owns nothing.
type Owner struct{ _ byte }

// node holds items in ascending key order. In a leaf each item carries a
// value; in an inner node each carries a child and the least key under it.
// Nodes are never modified once built, except by their Owner, and only
// the root may be empty.
type node[V any] struct {
	items []item[V]
	owner *Owner
}

type item[V any] struct {
	key string
	val V
	kid *node[V]
}

func (n *node[V]) leaf() bool { return n.items[0].kid == nil }

// find returns the index of the last item whose key is ≤ k, or -1.
func (n *node[V]) find(k string) int {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.items[mid].key <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// splice returns a new node holding n's items with items[lo:hi] replaced
// by its.
func (n *node[V]) splice(lo, hi int, its ...item[V]) *node[V] {
	items := make([]item[V], 0, len(n.items)-(hi-lo)+len(its))
	items = append(items, n.items[:lo]...)
	items = append(items, its...)
	return &node[V]{items: append(items, n.items[hi:]...)}
}

// edit is splice under o: n changed in place when o owns it, else a copy
// o owns.
func (n *node[V]) edit(o *Owner, lo, hi int, its ...item[V]) *node[V] {
	if o == nil || n.owner != o {
		c := n.splice(lo, hi, its...)
		c.owner = o
		return c
	}
	n.items = slices.Replace(n.items, lo, hi, its...)
	return n
}

// split halves a node that outgrew width; b is nil when n fits. The halves
// keep n's owner; a is capped, so neither grows into the other.
func (n *node[V]) split() (a, b *node[V]) {
	if len(n.items) <= width {
		return n, nil
	}
	h := len(n.items) / 2
	return &node[V]{items: n.items[:h:h], owner: n.owner}, &node[V]{items: n.items[h:], owner: n.owner}
}

// ref is the inner-node item pointing at n.
func ref[V any](n *node[V]) item[V] { return item[V]{key: n.items[0].key, kid: n} }

// Len reports the number of keys.
func (m Map[V]) Len() int { return m.n }

// Get returns the value bound to k.
func (m Map[V]) Get(k string) (v V, ok bool) {
	for n := m.root; n != nil; {
		i := n.find(k)
		if i < 0 {
			break
		}
		it := &n.items[i]
		if it.kid == nil {
			if it.key == k {
				return it.val, true
			}
			break
		}
		n = it.kid
	}
	return v, false
}

// Set returns the successor map with k bound to v.
func (m Map[V]) Set(k string, v V) Map[V] { return m.SetOwned(k, v, nil) }

// SetOwned is Set that edits in place the nodes o owns; see Owner.
func (m Map[V]) SetOwned(k string, v V, o *Owner) Map[V] {
	if m.root == nil {
		return Map[V]{root: &node[V]{items: []item[V]{{key: k, val: v}}, owner: o}, n: 1}
	}
	a, b, added := m.root.set(k, v, o)
	if b != nil {
		a = &node[V]{items: []item[V]{ref(a), ref(b)}, owner: o}
	}
	if added {
		m.n++
	}
	m.root = a
	return m
}

// set returns n with k bound to v, edited under o — split in two when it
// outgrew width — and whether k is a new key.
func (n *node[V]) set(k string, v V, o *Owner) (a, b *node[V], added bool) {
	i := n.find(k)
	if n.leaf() {
		if i >= 0 && n.items[i].key == k {
			return n.edit(o, i, i+1, item[V]{key: k, val: v}), nil, false
		}
		a, b = n.edit(o, i+1, i+1, item[V]{key: k, val: v}).split()
		return a, b, true
	}
	i = max(i, 0) // a key below every key goes to the first child
	ka, kb, added := n.items[i].kid.set(k, v, o)
	var c *node[V]
	if kb == nil {
		c = n.edit(o, i, i+1, ref(ka))
	} else {
		c = n.edit(o, i, i+1, ref(ka), ref(kb))
	}
	a, b = c.split()
	return a, b, added
}

// Delete returns the successor map without k, or m itself when k is
// absent.
func (m Map[V]) Delete(k string) Map[V] { return m.DeleteOwned(k, nil) }

// DeleteOwned is Delete that edits in place the nodes o owns; see Owner.
func (m Map[V]) DeleteOwned(k string, o *Owner) Map[V] {
	if m.root == nil {
		return m
	}
	r, ok := m.root.del(k, o)
	if !ok {
		return m
	}
	for len(r.items) == 1 && !r.leaf() {
		r = r.items[0].kid
	}
	if len(r.items) == 0 {
		r = nil
	}
	m.root, m.n = r, m.n-1
	return m
}

// del returns n without k, edited under o — possibly under-full, possibly
// empty — and whether k was present; n itself when it was not.
func (n *node[V]) del(k string, o *Owner) (*node[V], bool) {
	i := n.find(k)
	if i < 0 {
		return n, false
	}
	if n.leaf() {
		if n.items[i].key != k {
			return n, false
		}
		return n.edit(o, i, i+1), true
	}
	c, ok := n.items[i].kid.del(k, o)
	switch {
	case !ok:
		return n, false
	case len(c.items) == 0:
		return n.edit(o, i, i+1), true
	case len(c.items) >= minItems || len(n.items) == 1:
		return n.edit(o, i, i+1, ref(c)), true
	}
	// c is under-full: pool it with a neighbour, then keep one node when
	// the pool fits, two halves when it does not.
	var l, r *node[V]
	if i+1 < len(n.items) {
		l, r = c, n.items[i+1].kid
	} else {
		i--
		l, r = n.items[i].kid, c
	}
	pool := make([]item[V], 0, len(l.items)+len(r.items))
	a, b := (&node[V]{items: append(append(pool, l.items...), r.items...), owner: o}).split()
	if b == nil {
		return n.edit(o, i, i+2, ref(a)), true
	}
	return n.edit(o, i, i+2, ref(a), ref(b)), true
}

// Range calls f on each key and value in ascending key order until f
// returns false. It allocates nothing.
func (m Map[V]) Range(f func(k string, v V) bool) {
	if m.root != nil {
		m.root.each(f)
	}
}

func (n *node[V]) each(f func(k string, v V) bool) bool {
	for i := range n.items {
		it := &n.items[i]
		if it.kid != nil {
			if !it.kid.each(f) {
				return false
			}
		} else if !f(it.key, it.val) {
			return false
		}
	}
	return true
}

// Build returns the map binding keys[i] to vals[i] in one pass, with every
// node as full as an even share allows. keys must be strictly ascending;
// Build panics when they are not, or when the two lengths differ.
func Build[V any](keys []string, vals []V) Map[V] {
	if len(keys) != len(vals) {
		panic("pmap: Build with mismatched keys and values")
	}
	if len(keys) == 0 {
		return Map[V]{}
	}
	level := make([]item[V], len(keys))
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic("pmap: Build keys not strictly ascending")
		}
		level[i] = item[V]{key: k, val: vals[i]}
	}
	for {
		nodes := (len(level) + width - 1) / width
		built := make([]node[V], nodes)
		up := make([]item[V], nodes)
		for j := range built {
			lo, hi := j*len(level)/nodes, (j+1)*len(level)/nodes
			built[j].items = level[lo:hi:hi]
			up[j] = ref(&built[j])
		}
		if nodes == 1 {
			return Map[V]{root: &built[0], n: len(keys)}
		}
		level = up
	}
}
