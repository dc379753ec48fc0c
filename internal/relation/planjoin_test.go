package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dbpl/internal/value"
)

// genPartial builds a random partial relation: members sometimes silent on
// Dept, sometimes carrying it non-atomically — the wildcard cases the
// partition must preserve — and sometimes silent on a second shared atomic
// label, Site, so that the planner's choice of attribute varies. ID keeps
// members incomparable; it is a record, so no partition on it can help.
func genPartial(rng *rand.Rand, n int) *Relation {
	r := New()
	for i := 0; i < n; i++ {
		rec := value.NewRecord()
		rec.Set("ID", value.Rec("N", value.Int(int64(i))))
		if rng.Intn(4) != 0 {
			if rng.Intn(5) == 0 {
				rec.Set("Dept", value.Rec("Nested", value.Int(int64(rng.Intn(3)))))
			} else {
				rec.Set("Dept", value.String(fmt.Sprintf("D%d", rng.Intn(4))))
			}
		}
		if rng.Intn(3) != 0 {
			rec.Set("Site", value.Int(int64(rng.Intn(2))))
		}
		r.Insert(rec)
	}
	return r
}

// sharedLabels returns, sorted, the labels some record member of r and
// some record member of s both carry: the labels PlanJoin weighs.
func sharedLabels(r, s *Relation) []string {
	labels := func(r *Relation) map[string]bool {
		out := map[string]bool{}
		for _, m := range r.elems {
			if rec, ok := m.(*value.Record); ok {
				for _, l := range rec.Labels() {
					out[l] = true
				}
			}
		}
		return out
	}
	ls := labels(s)
	var out []string
	for l := range labels(r) {
		if ls[l] {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// everyPlan is the nested loop, a partition on a label neither side
// carries (every member a wildcard), and a partition on each label r and
// s share, building either side.
func everyPlan(r, s *Relation) []JoinPlan {
	plans := []JoinPlan{{}, {Attr: "Missing"}}
	for _, l := range sharedLabels(r, s) {
		plans = append(plans, JoinPlan{Attr: l}, JoinPlan{Attr: l, BuildRight: true})
	}
	return plans
}

// pairSequence is the (i, j) pairs EachPair tries under p, in its order.
func pairSequence(r, s *Relation, p JoinPlan) [][2]int {
	var out [][2]int
	EachPair(r, s, p, func(i, j int) { out = append(out, [2]int{i, j}) })
	return out
}

// TestQuickJoinPlannedEquals: under EVERY plan — nested, or a partition
// on any shared label building either side — JoinPlanned equals the
// nested loop. The planner can therefore only affect speed, never the
// result. The question is asked twice on the same relations, first with
// their partitions cold, so that each partition is built by the first
// join that reads it, then with the partitions kept. Then a member is
// inserted into each side and one deleted, which reorders the members:
// the plan, the pairs EachPair tries and what JoinPairs returns must be
// those of relations freshly built from the same members.
func TestQuickJoinPlannedEquals(t *testing.T) {
	chosen := map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genPartial(rng, 4+rng.Intn(24))
		b := genPartial(rng, 4+rng.Intn(24))
		want := nestedJoin(a, b)
		plans := everyPlan(a, b)
		for _, pass := range []string{"cold", "kept"} {
			// The explicit plans read the partitions before PlanJoin does,
			// so each side's first join on a label builds its partition.
			for _, p := range plans {
				if !Equal(want, JoinPlanned(a, b, p)) {
					t.Logf("seed %d, partitions %s: plan %+v diverges", seed, pass, p)
					return false
				}
			}
			if p := PlanJoin(a, b); !Equal(want, JoinPlanned(a, b, p)) {
				t.Logf("seed %d, partitions %s: the chosen plan %+v diverges", seed, pass, p)
				return false
			}
		}
		chosen[PlanJoin(a, b).Attr]++

		// asFresh reports whether a and b, their partitions kept, join as
		// relations freshly built from their members do.
		asFresh := func(change string) bool {
			fa, fb := New(a.Members()...), New(b.Members()...)
			if p, q := PlanJoin(a, b), PlanJoin(fa, fb); p != q {
				t.Logf("seed %d: after %s planned %v, fresh relations %v", seed, change, p, q)
				return false
			}
			for _, p := range append(everyPlan(a, b), PlanJoin(a, b)) {
				if got, fresh := pairSequence(a, b, p), pairSequence(fa, fb, p); !slices.Equal(got, fresh) {
					t.Logf("seed %d, plan %+v: after %s EachPair tried %v, on fresh relations %v", seed, p, change, got, fresh)
					return false
				}
				got, gp := JoinPairs(a, b, p)
				fresh, fp := JoinPairs(fa, fb, p)
				if !slices.EqualFunc(got.elems, fresh.elems, value.Equal) || !slices.Equal(gp, fp) {
					t.Logf("seed %d, plan %+v: after %s JoinPairs differs from fresh relations'", seed, p, change)
					return false
				}
			}
			return true
		}
		for k, r := range []*Relation{a, b} {
			extra := genPartial(rng, 1).elems[0].(*value.Record)
			extra.Set("ID", value.Rec("N", value.Int(int64(1000+k))))
			if out, err := r.Insert(extra); out != Added || err != nil {
				t.Fatalf("seed %d: inserting %s: %v, %v", seed, extra, out, err)
			}
			if !asFresh("Insert") {
				return false
			}
			if !r.Delete(r.elems[0]) {
				t.Fatalf("seed %d: deleting a member failed", seed)
			}
			if !asFresh("Delete") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if len(chosen) < 2 {
		t.Errorf("the planner chose %v on every input: the plans checked do not vary", chosen)
	}
}

// TestQuickPlanJoinCountsPairs: Pairs is exactly the number of member
// pairs that unequal atoms on Attr do not separate — the pairs JoinPlanned
// tries — and |R|·|S| for the nested loop, whether PlanJoin builds the
// partitions or reads them kept by the previous call.
func TestQuickPlanJoinCountsPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genPartial(rng, rng.Intn(24))
		b := genPartial(rng, rng.Intn(24))
		for _, pass := range []string{"cold", "kept"} {
			p := PlanJoin(a, b)
			atom := func(m value.Value) (value.Value, bool) {
				if rec, ok := m.(*value.Record); ok {
					v, ok := rec.Get(p.Attr)
					return v, ok && isAtom(v)
				}
				return nil, false
			}
			want := 0
			for _, m := range a.Members() {
				for _, n := range b.Members() {
					x, xok := atom(m)
					y, yok := atom(n)
					if p.Attr == "" || !xok || !yok || value.Equal(x, y) {
						want++
					}
				}
			}
			if p.Pairs != want || p.Left != a.Len() || p.Right != b.Len() || len(pairSequence(a, b, p)) != want {
				t.Logf("seed %d, partitions %s: plan %+v, brute force %d pairs over %d×%d", seed, pass, p, want, a.Len(), b.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestJoinPartitionsConcurrentFirstUse: goroutines that plan and pair a
// join at once on relations whose label sets and partitions are not built
// yet each build them or read another's, and all see the plan and the pair
// sequence of relations joined alone. Run under -race (make race).
func TestJoinPartitionsConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := genPartial(rng, 40), genPartial(rng, 40)
	fa, fb := New(a.Members()...), New(b.Members()...)
	want := PlanJoin(fa, fb)
	if want.Attr == "" {
		t.Fatalf("plan %v reads no partition", want)
	}
	wantPairs := pairSequence(fa, fb, want)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p := PlanJoin(a, b); p != want {
				errs <- fmt.Sprintf("planned %v, want %v", p, want)
			} else if got := pairSequence(a, b, p); !slices.Equal(got, wantPairs) {
				errs <- "EachPair's pairs differ from a join run alone"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestQuickPlanJoinIgnoresInsertionOrder: the plan is a function of the
// members, not of the order they were inserted in.
func TestQuickPlanJoinIgnoresInsertionOrder(t *testing.T) {
	shuffled := func(rng *rand.Rand, r *Relation) *Relation {
		ms := r.Members()
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		return New(ms...)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genPartial(rng, 4+rng.Intn(24))
		b := genPartial(rng, 4+rng.Intn(24))
		p, q := PlanJoin(a, b), PlanJoin(shuffled(rng, a), shuffled(rng, b))
		if p != q {
			t.Logf("seed %d: %v, shuffled %v", seed, p, q)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPlanJoinTieIsDeterministic: two labels that would cost the same
// number of pairs — the smaller label wins, on every call.
func TestPlanJoinTieIsDeterministic(t *testing.T) {
	r, s := New(), New()
	for i := 0; i < 8; i++ {
		r.Insert(value.Rec("A", value.Int(int64(i)), "B", value.Int(int64(i)), "L", value.Int(int64(i))))
		s.Insert(value.Rec("A", value.Int(int64(i)), "B", value.Int(int64(i)), "R", value.Int(int64(i))))
	}
	first := PlanJoin(r, s)
	if first.Attr != "A" || first.Pairs != 8 {
		t.Fatalf("tied labels A and B: plan %v, want attr=A pairs=8", first)
	}
	for i := 0; i < 200; i++ {
		if p := PlanJoin(r, s); p != first {
			t.Fatalf("call %d planned %v, the first call %v", i, p, first)
		}
	}
}

func TestPlanJoinBuildSideAndThreshold(t *testing.T) {
	big, small := New(), New()
	for i := 0; i < 60; i++ {
		big.Insert(value.Rec("Name", value.String(fmt.Sprintf("E%d", i)),
			"Dept", value.String(fmt.Sprintf("D%d", i%6))))
	}
	for i := 0; i < 8; i++ {
		small.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i%6)),
			"Floor", value.Int(int64(i))))
	}
	p := PlanJoin(big, small)
	if p.Attr != "Dept" {
		t.Fatalf("60×8 with a shared selective attribute should partition: %+v", p)
	}
	if !p.BuildRight {
		t.Errorf("build side should be the smaller (right) relation: %+v", p)
	}
	if q := PlanJoin(small, big); q.BuildRight {
		t.Errorf("swapped inputs: build side should be the smaller (left) relation: %+v", q)
	}

	// 1×1: the partition would try the one pair the nested loop tries.
	tiny := New()
	tiny.Insert(value.Rec("Dept", value.String("D1")))
	if p := PlanJoin(tiny, tiny); p.Attr != "" || p.Pairs != 1 {
		t.Errorf("1×1 join should be nested-loop: %+v", p)
	}

	// No shared atomic attribute: partitioning is impossible.
	left, right := New(), New()
	for i := 0; i < 40; i++ {
		left.Insert(value.Rec("A", value.Int(int64(i))))
		right.Insert(value.Rec("B", value.Int(int64(i))))
	}
	if p := PlanJoin(left, right); p.Attr != "" || p.Pairs != 1600 {
		t.Errorf("disjoint attributes should plan nested-loop: %+v", p)
	}
}

func TestJoinPlanExplainRendering(t *testing.T) {
	r, s := New(), New()
	for i := 0; i < 40; i++ {
		r.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i%4)), "N", value.Int(int64(i))))
		s.Insert(value.Rec("Dept", value.String(fmt.Sprintf("D%d", i%4)), "M", value.Int(int64(i))))
	}
	if got, want := PlanJoin(r, s).String(), "join left=40 right=40 pairs=400 attr=Dept build=right"; got != want {
		t.Errorf("EXPLAIN rendering %q, want %q", got, want)
	}
	zero := JoinPlan{Left: 3, Right: 2, Pairs: 6}
	if got, want := zero.String(), "join left=3 right=2 pairs=6"; got != want || strings.Contains(got, "attr=") {
		t.Errorf("nested-loop rendering %q, want %q", got, want)
	}
}
