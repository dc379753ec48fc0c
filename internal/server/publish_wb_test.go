// White-box tests for publication: what a commit costs as the store grows,
// and readers iterating a pinned state while the committer publishes.
package server

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dbpl/internal/dynamic"
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
	st := newState(names, members)
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
// random binds, rebinds, deletes and index DDL — the server's exact
// sharing, checked under -race. Each reader checks that the roots and the
// extents of its pin hold the same members. At the end every snapshot the
// committer kept must still read exactly what it held when published.
func TestPinnedStateStableUnderPublish(t *testing.T) {
	var pub atomic.Pointer[state]
	pub.Store(newState(nil, nil))
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

	type snapshot struct {
		st    *state
		roots map[string]*dynamic.Dynamic
	}
	var snaps []snapshot
	want := map[string]*dynamic.Dynamic{}
	rng := rand.New(rand.NewSource(1))
	labels := []string{"A", "B", ""} // "" binds a {Name: String}, which {Id: Int} does not match
	for i := 0; i < 3000; i++ {
		var op txnOp
		name := fmt.Sprintf("n%03d", rng.Intn(200))
		switch k := rng.Intn(20); {
		case k == 0:
			op = txnOp{name: "Id", index: true, del: rng.Intn(2) == 0}
		case k < 6:
			op = txnOp{name: name, del: true}
			delete(want, name)
		default:
			v := value.Rec("Name", value.String(name))
			if l := labels[rng.Intn(len(labels))]; l != "" {
				v = value.Rec("Id", value.Int(int64(rng.Intn(50))), l, value.Int(int64(i)))
			}
			d := dynamic.Make(v)
			op = txnOp{name: name, dyn: d}
			want[name] = d
		}
		next, _ := pub.Load().apply([]txnOp{op})
		pub.Store(next)
		if i%100 == 0 {
			frozen := make(map[string]*dynamic.Dynamic, len(want))
			for n, d := range want {
				frozen[n] = d
			}
			snaps = append(snaps, snapshot{next, frozen})
		}
	}
	close(stop)
	wg.Wait()
	for i, s := range snaps {
		if s.st.roots.Len() != len(s.roots) || s.st.idx.Len() != len(s.roots) {
			t.Fatalf("snapshot %d: %d roots, %d members, want %d", i, s.st.roots.Len(), s.st.idx.Len(), len(s.roots))
		}
		members := map[*dynamic.Dynamic]bool{}
		for n, d := range s.roots {
			if got, ok := s.st.roots.Get(n); !ok || got != d {
				t.Fatalf("snapshot %d: root %q changed after later publishes", i, n)
			}
			members[d] = true
		}
		all, _ := s.st.idx.GetEntries(top)
		for _, e := range all {
			if !members[e.Dyn] {
				t.Fatalf("snapshot %d: extent member %v published after the snapshot", i, e.Dyn)
			}
		}
	}
}
