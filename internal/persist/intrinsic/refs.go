package intrinsic

import (
	"slices"

	"dbpl/internal/dynamic"
	"dbpl/internal/value"
)

// This file keeps the store's node bookkeeping at what the committed state
// reaches. A node lives while some committed root entry or committed node
// image names it; each durable boundary — a local batch (settleStaged), a
// replicated frame (settleFrame) — counts the references its groups added
// and removed, and a node left with none leaves nodes and shared, and its
// value leaves a primary's oids or a replica's vals. load and Compact
// start from what the roots reach instead, so they also drop the garbage
// cycles that counting cannot see.

// settleStaged settles a local batch that just became durable. The root
// entries it changed are those of the handles its groups consumed
// (stagedTouched), from the committed table to the one it staged; its node
// images are stagedNodes. A primary's oids is keyed by value, so the
// values the batch released — the replaced roots', and the ones it
// numbered when one of their nodes went unnamed — are walked to find the
// entries whose nodes went. Callers hold s.mu.
func (s *Store) settleStaged() {
	sc := &s.sc
	defer sc.resetSettle()
	prev, next := s.Committed(), *s.stagedRoots
	for name := range s.stagedTouched {
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
	if s.settle(s.stagedNodes) {
		sc.released = append(sc.released, s.fresh...)
	}
	sc.released = s.forget(sc.released)
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

// settleFrame settles a replicated frame that just became durable: its
// fold's upserts and deletes are the root entries it changed, whose OIDs
// rootOIDs tracks, and its node images are the fold's. The values of the
// nodes it drops leave vals as the nodes go. Callers hold s.mu.
func (s *Store) settleFrame(fold *groupFold) {
	sc := &s.sc
	defer sc.resetSettle()
	for name := range fold.deletes {
		sc.lost = s.unrootOID(sc.lost, name)
	}
	for name, e := range fold.upserts {
		sc.lost = s.unrootOID(sc.lost, name)
		if oid, ok := inlineRef(e.inline); ok {
			sc.gained = append(sc.gained, oid)
			s.rootOIDs[name] = oid
		}
	}
	s.settle(fold.nodes)
}

// appendRootOID appends the OID of the container d's root entry names; a
// root atom names none. Only a primary calls it: its oids holds every
// committed container.
func (s *Store) appendRootOID(dst []uint64, d *dynamic.Dynamic) []uint64 {
	if d == nil || !isContainer(d.Value()) {
		return dst
	}
	if oid, ok := s.oids[d.Value()]; ok {
		dst = append(dst, oid)
	}
	return dst
}

// unrootOID appends the OID name's committed entry names on a replica, if
// any, and forgets it.
func (s *Store) unrootOID(dst []uint64, name string) []uint64 {
	if oid, ok := s.rootOIDs[name]; ok {
		dst = append(dst, oid)
		delete(s.rootOIDs, name)
	}
	return dst
}

// settle brings nodes and the counts to a batch that just became durable.
// images are the node images its groups wrote, the last per OID, and the
// scratch's gained and lost already hold the OIDs of the root entries it
// wrote and of the ones they replaced. An image joins nodes or replaces
// its node's, whose references are then lost. Every reference the batch
// added is counted before any it removed is dropped, so a node that only
// moved between parents inside the batch never reaches zero; a node the
// batch wrote that nothing names is dropped as if it lost its last
// reference, and settle reports whether there was one.
func (s *Store) settle(images map[uint64][]byte) (unnamed bool) {
	sc := &s.sc
	if sc.born == nil {
		sc.born = make(map[uint64]int32, len(images))
	}
	if n := len(sc.gained) + len(images); cap(sc.gained) < n {
		// About one reference an image: a bulk load's batch grows the
		// slice once.
		sc.gained = slices.Grow(sc.gained, n-len(sc.gained))
	}
	for oid, img := range images {
		old, had := s.nodes[oid]
		if had && string(old) == string(img) {
			continue
		}
		if had {
			sc.lost = appendRefs(sc.lost, old)
		} else {
			sc.born[oid] = 0
		}
		s.nodes[oid] = img
		sc.gained = appendRefs(sc.gained, img)
	}
	for _, oid := range sc.gained {
		if n, ok := sc.born[oid]; ok {
			sc.born[oid] = n + 1
		} else if _, ok := s.nodes[oid]; ok {
			s.shared[oid]++
		}
	}
	for oid, n := range sc.born {
		if n == 0 {
			sc.lost = append(sc.lost, oid)
			unnamed = true
		} else if n > 1 {
			s.shared[oid] = n - 1
		}
	}
	sc.lost = s.release(sc.lost)
	s.nodesA.Store(int64(len(s.nodes)))
	return unnamed
}

// release drops one reference to each node stack names. A node left with
// none leaves nodes and vals, and the references of its image are dropped
// in turn, on the same explicit stack, however deep the cascade goes. It
// returns the emptied stack.
func (s *Store) release(stack []uint64) []uint64 {
	for len(stack) > 0 {
		oid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		img, ok := s.nodes[oid]
		if !ok {
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
		delete(s.vals, oid)
		stack = appendRefs(stack, img)
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
