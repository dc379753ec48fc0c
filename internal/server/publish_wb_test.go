// White-box tests for publication: what a commit costs as the store grows,
// and readers iterating a pinned state while the committer publishes.
package server

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/pmap"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// rebindCost builds a state of roots roots — 8 of a probe type, the rest
// spread over ntypes record types, every one holding a distinct Id, with an
// index declared on Id — and returns the bytes and allocations one
// single-root rebind of a probe root costs in state.apply, the least of
// three measured runs.
func rebindCost(t *testing.T, roots, ntypes int) (bytes, mallocs uint64) {
	t.Helper()
	const probes, rebinds = 8, 256
	probeT := types.MustParse("{Id: Int, Probe: Int}")
	names := make([]string, 0, roots)
	members := make([]*dynamic.Dynamic, 0, roots)
	bind := func(name string, v value.Value, tt types.Type) {
		d, err := dynamic.MakeAt(v, tt)
		if err != nil {
			t.Fatal(err)
		}
		names, members = append(names, name), append(members, d)
	}
	for i := 0; i < probes; i++ { // "p…" sorts before "r…"
		bind(fmt.Sprintf("p%d", i), value.Rec("Id", value.Int(int64(i)), "Probe", value.Int(0)), probeT)
	}
	others := make([]types.Type, ntypes)
	for k := range others {
		others[k] = types.MustParse(fmt.Sprintf("{Id: Int, F%d: Int}", k))
	}
	for i := probes; i < roots; i++ {
		k := i % ntypes
		bind(fmt.Sprintf("r%06d", i), value.Rec("Id", value.Int(int64(i)), fmt.Sprintf("F%d", k), value.Int(int64(i))), others[k])
	}
	st := stateOf(pmap.Build(names, members))
	ops := make([][]txnOp, rebinds)
	for i := range ops {
		p := i % probes
		d, err := dynamic.MakeAt(value.Rec("Id", value.Int(int64(p)), "Probe", value.Int(int64(i+1))), probeT)
		if err != nil {
			t.Fatal(err)
		}
		ops[i] = []txnOp{{name: names[p], dyn: d}}
	}
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, o := range ops {
			st, _ = st.apply(o)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/rebinds)
		mallocs = min(mallocs, (after.Mallocs-before.Mallocs)/rebinds)
	}
	if ids, _ := st.idx.MatchStats(types.Intern(types.MustParse("{Id: Int}"))); st.roots.Len() != roots || st.idx.Len() != roots || ids != roots {
		t.Fatalf("after the rebinds: %d roots, %d members, %d Ids, want %d of each",
			st.roots.Len(), st.idx.Len(), ids, roots)
	}
	return bytes, mallocs
}

// TestPublishCostsTheChangeNotTheStore counts exactly what one single-root
// rebind allocates in state.apply as the store grows 64× in roots and 100×
// in types. A publish that copies the root table or the type → extent
// table grows with both; one that copies the paths to what changed stays
// within 2×.
func TestPublishCostsTheChangeNotTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64 k-root state")
	}
	b1k, m1k := rebindCost(t, 1<<10, 40)
	b8k, m8k := rebindCost(t, 8<<10, 40)
	b64k, m64k := rebindCost(t, 64<<10, 40)
	b8kT, m8kT := rebindCost(t, 8<<10, 4000)
	t.Logf("per rebind, T = 40:   %d B / %d allocs at 1 k roots, %d B / %d at 8 k, %d B / %d at 64 k",
		b1k, m1k, b8k, m8k, b64k, m64k)
	t.Logf("per rebind, 8 k roots: %d B / %d allocs at T = 4 000", b8kT, m8kT)
	if b64k > 2*b1k {
		t.Errorf("a rebind allocates %d B at 64 k roots, %d B at 1 k: more than 2× for 64× the roots", b64k, b1k)
	}
	if b8kT > 2*b8k {
		t.Errorf("a rebind allocates %d B at 4 000 types, %d B at 40: more than 2× for 100× the types", b8kT, b8k)
	}
}

// TestPinnedStateStableUnderPublish runs readers that pin the published
// state and iterate its roots and extents while a committer publishes
// random groups of binds, rebinds, deletes and index DDL — the server's
// exact sharing, checked under -race. A group is one op, or eight, and
// some groups rebind one name twice or delete a name and bind it again,
// so that an Apply edits in place the extents and table nodes it copied
// earlier in the same group. Each reader checks that the roots and the
// extents of its pin hold the same members. Now and then a transaction's
// view applies groups to a Fork of a pinned Set, twice over. At the end
// every snapshot kept, the pinned bases of the views and the views among
// them, must still read exactly what it held when it was published: its
// roots, and each extent's members in their order.
func TestPinnedStateStableUnderPublish(t *testing.T) {
	var pub atomic.Pointer[state]
	pub.Store(stateOf(pmap.Map[*dynamic.Dynamic]{}))
	top, idT := types.Intern(types.Top), types.Intern(types.MustParse("{Id: Int}"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := pub.Load()
				bound := map[*dynamic.Dynamic]bool{}
				st.roots.Range(func(_ string, d *dynamic.Dynamic) bool {
					bound[d] = true
					return true
				})
				all, _ := st.idx.GetEntries(top)
				if len(bound) != st.roots.Len() || len(all) != len(bound) {
					t.Errorf("reader %d: %d roots, %d distinct dynamics, %d extent members", r, st.roots.Len(), len(bound), len(all))
					return
				}
				for _, e := range all {
					if !bound[e.Dyn] {
						t.Errorf("reader %d: extent member %v bound to no root", r, e.Dyn)
						return
					}
				}
				ids, _ := st.idx.GetEntries(idT)
				if n, _ := st.idx.MatchStats(idT); n != len(ids) {
					t.Errorf("reader %d: MatchStats %d, GET {Id: Int} %d", r, n, len(ids))
					return
				}
			}
		}(r)
	}

	var snaps []pinned
	want := map[string]*dynamic.Dynamic{}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"A", "B", ""} // "" binds a {Name: String}, which {Id: Int} does not match
	bind := func(name string, i int) txnOp {
		v := value.Rec("Name", value.String(name))
		if l := labels[rng.Intn(len(labels))]; l != "" {
			v = value.Rec("Id", value.Int(int64(rng.Intn(50))), l, value.Int(int64(i)))
		}
		return txnOp{name: name, dyn: dynamic.Make(v)}
	}
	// group returns a random commit group and applies it to roots.
	group := func(i int, roots map[string]*dynamic.Dynamic) []txnOp {
		n := 1
		if rng.Intn(4) == 0 {
			n = 8
		}
		var ops []txnOp
		for len(ops) < n {
			name := fmt.Sprintf("n%03d", rng.Intn(200))
			switch k := rng.Intn(24); {
			case k == 0:
				ops = append(ops, txnOp{name: "Id", index: true, del: rng.Intn(2) == 0})
			case k < 6:
				ops = append(ops, txnOp{name: name, del: true})
			case k < 8: // the same name rebound twice
				ops = append(ops, bind(name, i), bind(name, i))
			case k < 10: // deleted, then bound again
				ops = append(ops, txnOp{name: name, del: true}, bind(name, i))
			default:
				ops = append(ops, bind(name, i))
			}
		}
		for _, o := range ops {
			switch {
			case o.index:
			case o.del:
				delete(roots, o.name)
			default:
				roots[o.name] = o.dyn
			}
		}
		return ops
	}
	for i := 0; i < 3000; i++ {
		next, _ := pub.Load().apply(group(i, want))
		pub.Store(next)
		if i%100 == 0 {
			snaps = append(snaps, pin(next, want))
		}
		if i%150 == 75 {
			// A transaction's view: two groups over a Fork of the pinned
			// Set, and a second view over the same Fork, each applied on
			// and read as the committer publishes.
			base := pub.Load()
			snaps = append(snaps, pin(base, want))
			fork := base.idx.Fork()
			for range 2 {
				view, roots := &state{roots: base.roots, idx: fork}, maps.Clone(want)
				for range 2 {
					view, _ = view.apply(group(i, roots))
				}
				snaps = append(snaps, pin(view, roots))
			}
		}
	}
	close(stop)
	wg.Wait()
	for i, s := range snaps {
		s.check(t, i)
	}
}

// pinned is a state with what it read when it was published: its roots,
// and each extent's members in order, keyed by the extent's type.
type pinned struct {
	st      *state
	roots   map[string]*dynamic.Dynamic
	extents map[*types.Interned][]*dynamic.Dynamic
}

// pin records what st reads, and want, the roots it must hold.
func pin(st *state, want map[string]*dynamic.Dynamic) pinned {
	return pinned{st: st, roots: maps.Clone(want), extents: extentsOf(st)}
}

// extentsOf reads each extent of st's index set, in seq order.
func extentsOf(st *state) map[*types.Interned][]*dynamic.Dynamic {
	out := map[*types.Interned][]*dynamic.Dynamic{}
	all, _ := st.idx.GetEntries(types.Intern(types.Top))
	for _, e := range all {
		in := e.Dyn.Interned()
		out[in] = append(out[in], e.Dyn)
	}
	return out
}

// check fails the test unless p's state still reads what p recorded, and
// its roots and extents hold the same members.
func (p pinned) check(t *testing.T, i int) {
	t.Helper()
	if p.st.roots.Len() != len(p.roots) || p.st.idx.Len() != len(p.roots) {
		t.Fatalf("snapshot %d: %d roots, %d members, want %d", i, p.st.roots.Len(), p.st.idx.Len(), len(p.roots))
	}
	members := map[*dynamic.Dynamic]bool{}
	for n, d := range p.roots {
		if got, ok := p.st.roots.Get(n); !ok || got != d {
			t.Fatalf("snapshot %d: root %q changed after later publishes", i, n)
		}
		members[d] = true
	}
	now := extentsOf(p.st)
	if len(now) != len(p.extents) || p.st.idx.Types() != len(p.extents) {
		t.Fatalf("snapshot %d: %d extents (%d types), %d when published", i, len(now), p.st.idx.Types(), len(p.extents))
	}
	for in, was := range p.extents {
		ext := p.st.idx.Extent(in)
		if !slices.Equal(now[in], was) || ext == nil || ext.Len() != len(was) {
			t.Fatalf("snapshot %d: the extent of %s changed after later publishes", i, in.Type())
		}
		for _, d := range was {
			if !members[d] {
				t.Fatalf("snapshot %d: extent member %v bound to no root", i, d)
			}
		}
	}
}
