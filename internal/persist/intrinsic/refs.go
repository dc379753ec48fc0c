package intrinsic

import (
	"hash/maphash"
	"slices"

	"dbpl/internal/dynamic"
	"dbpl/internal/pmap"
	"dbpl/internal/value"
)

// This file keeps the store's node bookkeeping at what the committed state
// reaches. A node lives while some committed root entry or committed node
// image names it; each durable boundary — a local batch (settleStaged) or
// a replicated frame (ApplyGroup) — is settled by settleDurable, which
// counts the references its groups added and removed: a node left with
// none leaves nodes, refs and shared, and its value leaves oids. load and
// Compact start from what the roots reach instead, so they also drop the
// garbage cycles that counting cannot see.
//
// Memory holds no committed image. A node is remembered by its digest
// (nodes), which is all that telling a changed image from an unchanged one
// needs, and, if its image names other nodes, by their OIDs (refs), which
// is all that releasing it needs.

// nodeSum is the 128-bit digest of a node image: two maphash sums under
// seeds drawn once per process. It never leaves the process, so no image
// can be chosen to collide with another, and at 128 bits an accidental
// collision — which would silently drop a write — is out of reach; 64
// bits would not be.
type nodeSum [2]uint64

var sumSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

func sumOf(img []byte) nodeSum {
	return nodeSum{maphash.Bytes(sumSeeds[0], img), maphash.Bytes(sumSeeds[1], img)}
}

// nodeRec is a node record a batch staged or a frame carries: its OID,
// where it lies in the bytes that hold it (see nodeAt), and its image's
// digest.
type nodeRec struct {
	oid uint64
	at  int
	sum nodeSum
}

// stagedNodes is what the open batch wrote: its groups' bytes, which the
// batch owns until it is durable, and a record for each node image in
// them. last maps each OID to its last record once a second group is
// encoded; a single group writes each node once.
type stagedNodes struct {
	buf  nodeBuf
	recs []nodeRec
	last map[uint64]int
}

// index maps the OIDs of the records from i on to their records.
func (st *stagedNodes) index(i int) {
	if st.last == nil {
		st.last = make(map[uint64]int, len(st.recs))
	}
	for ; i < len(st.recs); i++ {
		st.last[st.recs[i].oid] = i
	}
}

// latest returns each OID's last record, dropping the ones a later group
// of the batch superseded.
func (st *stagedNodes) latest() []nodeRec {
	if st.last == nil {
		return st.recs
	}
	keep := st.recs[:0]
	for i, r := range st.recs {
		if st.last[r.oid] == i {
			keep = append(keep, r)
		}
	}
	return keep
}

// reset empties st for the next batch, keeping its buffers unless they
// grew past what the scratch keeps.
func (st *stagedNodes) reset() {
	st.buf.keep()
	st.recs = keptSlice(st.recs)
	st.last = keptMap(st.last)
}

// sumBefore returns the digest oid's image had before the group being
// encoded: as the open batch last staged it, or as committed.
func (s *Store) sumBefore(oid uint64) (nodeSum, bool) {
	if i, ok := s.staging.last[oid]; ok {
		return s.staging.recs[i].sum, true
	}
	sum, ok := s.nodes[oid]
	return sum, ok
}

// settleStaged settles a local batch that just became durable: the root
// entries of the handles its groups consumed (stagedTouched), its node
// records, which are staging's, and the nodes new to it, which lie in the
// OID range its walks numbered (fresh). When one of those went unnamed,
// its value is among fresh. Callers hold s.mu.
func (s *Store) settleStaged() {
	names := s.sc.names[:0]
	for name := range s.stagedTouched {
		names = append(names, name)
	}
	s.sc.names = names
	lo := s.nextOID - uint64(len(s.fresh))
	s.settleDurable(names, *s.stagedRoots, s.staging.buf.Bytes(), s.staging.latest(), lo, s.nextOID, s.fresh)
	if len(s.oids) > len(s.nodes) {
		// A value the released ones do not reach still has its entry: a
		// child that an in-place mutation replaced. Only a pass over oids
		// finds it, and only Commit's walk of every root finds such a
		// mutation, so the pass costs what the walk before it did.
		for v, oid := range s.oids {
			if _, ok := s.nodes[oid]; !ok {
				delete(s.oids, v)
			}
		}
	}
}

// settleDurable settles a batch or a frame that just became durable, before
// next, the root table it wrote, replaces the committed one. names are the
// handles whose entries it may have changed; the OIDs of the entries that
// differ between the two tables are gained and lost through oids, which
// holds every committed container and, by then, the batch's or frame's. Its
// node records are recs, in buf, with the nodes new to the store in the
// OID range [lo, hi) (see settle). The values of the replaced entries, and
// unnamed when a new node went unnamed, are walked to drop the oids entries
// whose nodes went. Callers hold s.mu.
func (s *Store) settleDurable(names []string, next pmap.Map[*dynamic.Dynamic], buf []byte, recs []nodeRec, lo, hi uint64, unnamed []value.Value) {
	sc := &s.sc
	defer sc.resetSettle()
	prev := s.Committed()
	for _, name := range names {
		was, _ := prev.Get(name)
		is, _ := next.Get(name)
		if was == is {
			continue
		}
		sc.gained = s.appendRootOID(sc.gained, is)
		sc.lost = s.appendRootOID(sc.lost, was)
		if was != nil {
			sc.released = append(sc.released, was.Value())
		}
	}
	if s.settle(buf, recs, lo, hi) {
		sc.released = append(sc.released, unnamed...)
	}
	sc.released = s.forget(sc.released)
}

// appendRootOID appends the OID of the container d's root entry names; a
// root atom names none.
func (s *Store) appendRootOID(dst []uint64, d *dynamic.Dynamic) []uint64 {
	if d == nil || !isContainer(d.Value()) {
		return dst
	}
	if oid, ok := s.oids[d.Value()]; ok {
		dst = append(dst, oid)
	}
	return dst
}

// settle brings nodes, refs and the counts to a batch that just became
// durable. recs are the records of the node images its groups wrote, the
// last per OID, in buf; the nodes new to the store among them lie in the
// OID range [lo, hi). The scratch's gained and lost already hold the OIDs
// of the root entries it wrote and of the ones they replaced. An image
// whose digest differs joins nodes or replaces its node's, whose
// references are then lost. Every reference the batch added is counted
// before any it removed is dropped, so a node that only moved between
// parents inside the batch never reaches zero; a node the batch wrote that
// nothing names is dropped as if it lost its last reference, and settle
// reports whether there was one.
func (s *Store) settle(buf []byte, recs []nodeRec, lo, hi uint64) (unnamed bool) {
	sc := &s.sc
	// born counts, for each OID of the range, one for a node new to the
	// store and one more for each reference it gains; a bulk load's first
	// commit counts every node here without a map.
	born := slices.Grow(sc.born[:0], int(hi-lo))[:hi-lo]
	clear(born)
	if n := len(sc.gained) + len(recs); cap(sc.gained) < n {
		// About one reference an image: a bulk load's batch grows the
		// slice once.
		sc.gained = slices.Grow(sc.gained, n-len(sc.gained))
	}
	for _, r := range recs {
		old, had := s.nodes[r.oid]
		if had && old == r.sum {
			continue
		}
		if had {
			sc.lost = append(sc.lost, s.refs[r.oid]...)
		} else {
			born[r.oid-lo] = 1
		}
		s.nodes[r.oid] = r.sum
		_, img := nodeAt(buf, r.at)
		sc.gained = s.setRefs(r.oid, img, sc.gained)
	}
	for _, oid := range sc.gained {
		if i := oid - lo; i < uint64(len(born)) && born[i] > 0 {
			born[i]++
		} else if _, ok := s.nodes[oid]; ok {
			s.shared[oid]++
		}
	}
	for i, n := range born {
		switch oid := lo + uint64(i); {
		case n == 1:
			sc.lost = append(sc.lost, oid)
			unnamed = true
		case n > 2:
			s.shared[oid] = n - 2
		}
	}
	sc.born = born
	sc.lost = s.release(sc.lost)
	s.nodesA.Store(int64(len(s.nodes)))
	return unnamed
}

// setRefs makes the references img names oid's, and appends them to
// gained.
func (s *Store) setRefs(oid uint64, img []byte, gained []uint64) []uint64 {
	n := len(gained)
	gained = appendRefs(gained, img)
	refs := gained[n:]
	old, had := s.refs[oid]
	switch {
	case len(refs) == 0:
		if had {
			delete(s.refs, oid)
		}
	case cap(old) >= len(refs):
		s.refs[oid] = append(old[:0], refs...)
	default:
		s.refs[oid] = s.sc.takeRefs(refs)
	}
	return gained
}

// keepRefs keeps refs, a reference list release emptied, for takeRefs: at
// most maxSpareRefs lists, none longer than the scratch keeps, so that a
// rebind's new reference lists take the ones its old nodes gave up.
func (sc *scratch) keepRefs(refs []uint64) {
	if len(sc.spare) < maxSpareRefs && cap(refs) <= maxKeptScratch {
		sc.spare = append(sc.spare, refs[:0])
	}
}

// takeRefs returns a copy of refs in a kept list that has room for it, or
// in a new one.
func (sc *scratch) takeRefs(refs []uint64) []uint64 {
	for i := len(sc.spare) - 1; i >= 0; i-- {
		if l := sc.spare[i]; cap(l) >= len(refs) {
			last := len(sc.spare) - 1
			sc.spare[i], sc.spare[last] = sc.spare[last], nil
			sc.spare = sc.spare[:last]
			return append(l, refs...)
		}
	}
	return slices.Clone(refs)
}

// release drops one reference to each node stack names. A node left with
// none leaves nodes and refs, and its references are dropped in turn, on
// the same explicit stack, however deep the cascade goes. It returns the
// emptied stack.
func (s *Store) release(stack []uint64) []uint64 {
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := s.nodes[oid]; !ok {
			continue
		}
		if n := s.shared[oid]; n > 0 {
			if n == 1 {
				delete(s.shared, oid)
			} else {
				s.shared[oid] = n - 1
			}
			continue
		}
		delete(s.nodes, oid)
		if refs, ok := s.refs[oid]; ok {
			stack = append(stack, refs...)
			delete(s.refs, oid)
			s.sc.keepRefs(refs)
		}
	}
	return stack
}

// forget drops the oids entry of each value on stack whose node is gone,
// and walks on into its children, stopping at a value whose node lives —
// its children's do too. It returns the emptied stack.
func (s *Store) forget(stack []value.Value) []value.Value {
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		oid, ok := s.oids[v]
		if !ok {
			continue
		}
		if _, live := s.nodes[oid]; live {
			continue
		}
		delete(s.oids, v)
		stack = appendChildren(stack, v)
	}
	return stack
}

// appendChildren appends the child containers of v that its image names:
// the ones reach walks.
func appendChildren(dst []value.Value, v value.Value) []value.Value {
	push := func(c value.Value) {
		if isContainer(c) {
			dst = append(dst, c)
		}
	}
	switch vv := v.(type) {
	case *value.Record:
		vv.Each(func(l string, f value.Value) {
			if !isTransient(l, TransientPrefix) {
				push(f)
			}
		})
	case *value.List:
		for _, el := range vv.Elems {
			push(el)
		}
	case *value.Set:
		vv.Each(push)
	case *value.Tag:
		push(vv.Payload)
	case *dynamic.Dynamic:
		push(vv.Value())
	}
	return dst
}
