// White-box property test for the transactional overlay: a session's GET
// and NAMES answer from the pinned state plus its buffer, and must agree
// with the state its COMMIT would publish (state.apply over the same ops).
package server

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// TestQuickOverlayMatchesApply: for random pinned states and random
// buffered PUT/DELETE sequences over a few names, overlayGet returns the
// same dynamics in the same order as GetEntries over the applied state,
// and viewNames returns that state's root names, sorted.
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
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := &state{idx: index.NewSet()}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			base, _ = base.apply([]txnOp{randOp(rng, i)})
		}
		sess := &session{inTxn: true, base: base, overlay: map[string]int{}}
		for i, n := 0, rng.Intn(8); i < n; i++ {
			sess.buffer(randOp(rng, 100+i))
		}
		committed := base
		if len(sess.ops) > 0 {
			committed, _ = base.apply(sess.ops)
		}
		for _, q := range queries {
			got := sess.overlayGet(q)
			want, _ := committed.idx.GetEntries(q)
			if len(got) != len(want) {
				t.Logf("seed %d GET %s: %d members in the transaction, %d after commit", seed, q.Type(), len(got), len(want))
				return false
			}
			for i := range got {
				if got[i].Dyn != want[i].Dyn {
					t.Logf("seed %d GET %s: order diverges at %d", seed, q.Type(), i)
					return false
				}
			}
		}
		var wantNames []string
		committed.roots.Range(func(n string, _ *dynamic.Dynamic) bool {
			wantNames = append(wantNames, n)
			return true
		})
		sort.Strings(wantNames)
		gotNames := sess.viewNames(nil)
		if len(gotNames) != len(wantNames) {
			t.Logf("seed %d NAMES = %v, want %v", seed, gotNames, wantNames)
			return false
		}
		for i := range gotNames {
			if gotNames[i] != wantNames[i] {
				t.Logf("seed %d NAMES = %v, want %v", seed, gotNames, wantNames)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
