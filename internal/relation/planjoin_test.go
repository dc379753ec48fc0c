package relation

import (
	"fmt"
	"math/rand"
	"strings"
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

// TestQuickJoinPlannedEquals: under EVERY plan — nested, or a partition
// on any shared label building either side — JoinPlanned equals the
// reference Join. The planner can therefore only affect speed, never the
// result.
func TestQuickJoinPlannedEquals(t *testing.T) {
	chosen := map[string]int{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genPartial(rng, 4+rng.Intn(24))
		b := genPartial(rng, 4+rng.Intn(24))
		want := Join(a, b)
		plan := PlanJoin(a, b)
		chosen[plan.Attr]++
		plans := []JoinPlan{{}, plan}
		for _, l := range sharedLabels(a, b) {
			plans = append(plans, JoinPlan{Attr: l}, JoinPlan{Attr: l, BuildRight: true})
		}
		for _, p := range plans {
			if !Equal(want, JoinPlanned(a, b, p)) {
				t.Logf("seed %d: plan %+v diverges", seed, p)
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
// tries — and |R|·|S| for the nested loop.
func TestQuickPlanJoinCountsPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genPartial(rng, rng.Intn(24))
		b := genPartial(rng, rng.Intn(24))
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
		if p.Pairs != want || p.Left != a.Len() || p.Right != b.Len() {
			t.Logf("seed %d: plan %+v, brute force %d pairs over %d×%d", seed, p, want, a.Len(), b.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
