// White-box property test for transaction views: a session's reads answer
// from the state its COMMIT would publish over the pinned state, while
// the published lineage the pin belongs to keeps advancing.
package server

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/pmap"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// binding is one root of a reference history, kept in insertion order.
type binding struct {
	name string
	dyn  *dynamic.Dynamic
}

// applyHistory is the reference for state.apply: a rebound name leaves its
// place and is appended, a deleted one leaves.
func applyHistory(h []binding, ops []txnOp) []binding {
	out := slices.Clone(h)
	for _, o := range ops {
		out = slices.DeleteFunc(out, func(b binding) bool { return b.name == o.name })
		if !o.del {
			out = append(out, binding{o.name, o.dyn})
		}
	}
	return out
}

// rebuilt is the state a history reaches, built from scratch: the root
// table from the bindings, the index Set by index.Rebuild in their
// insertion order.
func rebuilt(h []binding) *state {
	members := make([]*dynamic.Dynamic, len(h))
	for i, b := range h {
		members[i] = b.dyn
	}
	sorted := slices.Clone(h)
	slices.SortFunc(sorted, func(a, b binding) int { return strings.Compare(a.name, b.name) })
	names := make([]string, len(sorted))
	dyns := make([]*dynamic.Dynamic, len(sorted))
	for i, b := range sorted {
		names[i], dyns[i] = b.name, b.dyn
	}
	return &state{roots: pmap.Build(names, dyns), idx: index.Rebuild(members)}
}

// bindings lists st's root bindings in name order.
func bindings(st *state) []binding {
	var out []binding
	st.roots.Range(func(n string, d *dynamic.Dynamic) bool {
		out = append(out, binding{n, d})
		return true
	})
	return out
}

// sameState reports how got differs from want: root bindings, member and
// type counts, and each query's GET, in order.
func sameState(got, want *state, queries []*types.Interned) error {
	if g, w := bindings(got), bindings(want); !slices.Equal(g, w) {
		return fmt.Errorf("roots %v, want %v", g, w)
	}
	if got.idx.Len() != want.idx.Len() || got.idx.Types() != want.idx.Types() {
		return fmt.Errorf("%d members of %d types, want %d of %d",
			got.idx.Len(), got.idx.Types(), want.idx.Len(), want.idx.Types())
	}
	for _, q := range queries {
		g, _ := got.idx.GetEntries(q)
		w, _ := want.idx.GetEntries(q)
		if !slices.EqualFunc(g, w, func(a, b index.Entry) bool { return a.Dyn == b.Dyn }) {
			return fmt.Errorf("GET %s: %d members, want %d, or another order", q.Type(), len(g), len(w))
		}
	}
	return nil
}

// TestQuickOverlayMatchesApply: random histories interleave commits
// published on the pinned state's lineage with a session's buffered
// PUT/DELETEs, reads of its view at random points, and its own COMMITs.
// Every view read equals state.apply of the buffer over a from-scratch
// rebuild of the pinned state, and every published state still equals
// the rebuild of its own history at the end. A view applied to the
// pinned index.Set without Fork shares extent arrays with the lineage
// and fails both.
func TestQuickOverlayMatchesApply(t *testing.T) {
	queries := []*types.Interned{
		types.Intern(types.Top),
		types.Intern(types.Int),
		types.Intern(types.MustParse("{Name: String}")),
	}
	names := []string{"a", "b", "c", "d", "e"}
	randOp := func(rng *rand.Rand, i int) txnOp {
		name := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			return txnOp{name: name, del: true}
		case 1:
			return txnOp{name: name, dyn: dynamic.Make(value.Int(int64(i)))}
		default:
			return txnOp{name: name, dyn: dynamic.Make(value.Rec("Name", value.String(name), "N", value.Int(int64(i))))}
		}
	}
	type published struct {
		st      *state
		history []binding
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pub := published{st: &state{idx: index.NewSet()}}
		var log []published
		publish := func(ops []txnOp) {
			next, _ := pub.st.apply(ops)
			pub = published{next, applyHistory(pub.history, ops)}
			log = append(log, pub)
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			publish([]txnOp{randOp(rng, i)})
		}
		sess := &session{}
		var pinned []binding
		begin := func() {
			sess.inTxn, sess.base, sess.ops, sess.cur = true, pub.st, nil, nil
			pinned = pub.history
		}
		begin()
		for i, n := 0, 10+rng.Intn(30); i < n; i++ {
			switch k := rng.Intn(10); {
			case k < 3:
				publish([]txnOp{randOp(rng, 100+i)})
			case k < 6:
				sess.buffer(randOp(rng, 100+i))
			case k < 9:
				want := rebuilt(pinned)
				if len(sess.ops) > 0 {
					want, _ = want.apply(sess.ops)
				}
				if err := sameState(sess.view(nil), want, queries); err != nil {
					t.Logf("seed %d step %d: view: %v", seed, i, err)
					return false
				}
			default:
				if len(sess.ops) > 0 {
					publish(sess.ops)
				}
				begin()
			}
		}
		for i, p := range log {
			if err := sameState(p.st, rebuilt(p.history), queries); err != nil {
				t.Logf("seed %d: published state %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
