package relation

import (
	"fmt"
	"slices"

	"dbpl/internal/value"
)

// This file implements a hash-accelerated generalized natural join. The
// naive join compares every pair of members — O(|R|·|S|) value joins. On
// the common case where both relations largely *define* a shared atomic
// attribute, members with distinct atoms on that attribute can never join
// (atoms conflict unless equal), so pairing can be restricted to members
// whose atoms agree — plus the members *silent* on the attribute, which,
// like the paper's N Bug tuple, remain joinable with everything.
//
// The plan is chosen from exact counts, not estimates: for every shared
// label the planner counts the value.Join attempts a partition on it would
// make, and partitions on the cheapest only when that beats the |R|·|S|
// attempts of the nested loop. The optimization never changes the result
// (TestQuickJoinPlannedEquals); BenchmarkJoin measures the effect (the E1
// ablation).

// JoinPlan is the planner's verdict for one join: the partition attribute
// ("" for nested-loop), which side to build the hash table from (the probe
// side streams), and the exact counts behind the choice, for EXPLAIN. The
// zero value means nested-loop.
type JoinPlan struct {
	Attr       string // partition attribute; "" for nested-loop
	BuildRight bool   // build from s (the smaller side), probe with r

	Left, Right int // |R| and |S|
	Pairs       int // value.Join attempts the plan makes
}

// String renders the plan in the EXPLAIN format.
func (p JoinPlan) String() string {
	s := fmt.Sprintf("join left=%d right=%d pairs=%d", p.Left, p.Right, p.Pairs)
	if p.Attr == "" {
		return s
	}
	side := "left"
	if p.BuildRight {
		side = "right"
	}
	return fmt.Sprintf("%s attr=%s build=%s", s, p.Attr, side)
}

// PlanJoin chooses the join strategy. Among the labels that members of
// both sides carry, it picks the one whose partition makes the fewest
// value.Join attempts — the smallest label on a tie — and partitions on it
// only when that is fewer than the nested loop's |R|·|S|, building from
// the smaller side. The plan depends on the members only, not on their
// insertion order.
func PlanJoin(r, s *Relation) JoinPlan {
	p := JoinPlan{Left: r.Len(), Right: s.Len(), Pairs: r.Len() * s.Len()}
	for _, l := range sharedLabels(r, s) {
		if n := pairsOn(r, s, l); n < p.Pairs {
			p.Attr, p.Pairs = l, n
		}
	}
	p.BuildRight = p.Attr != "" && p.Right <= p.Left
	return p
}

// sharedLabels returns, sorted, the labels some member of r and some
// member of s both carry.
func sharedLabels(r, s *Relation) []string {
	sides := map[string]int{} // bit 0: r carries the label, bit 1: s does
	for side, rel := range []*Relation{r, s} {
		for _, m := range rel.elems {
			if rec, ok := m.(*value.Record); ok {
				rec.Each(func(l string, _ value.Value) { sides[l] |= 1 << side })
			}
		}
	}
	var out []string
	for l, in := range sides {
		if in == 3 {
			out = append(out, l)
		}
	}
	slices.Sort(out)
	return out
}

// pairsOn counts the value.Join attempts JoinPlanned makes partitioning
// on attr, with either build side: each member of r atomic on attr meets
// the members of s with an equal atom and s's wildcards (members silent,
// non-atomic or not records on attr); each wildcard of r meets all of s.
func pairsOn(r, s *Relation, attr string) int {
	if s.Len() > r.Len() {
		r, s = s, r // the count is symmetric; tally the smaller side
	}
	atoms, wild := map[string]int{}, 0
	var buf [keyScratch]byte
	for _, m := range s.elems {
		if v, ok := atomOn(m, attr); ok {
			atoms[string(value.AppendKey(buf[:0], v))]++
		} else {
			wild++
		}
	}
	n := 0
	for _, m := range r.elems {
		if v, ok := atomOn(m, attr); ok {
			n += atoms[string(value.AppendKey(buf[:0], v))] + wild
		} else {
			n += s.Len()
		}
	}
	return n
}

// atomOn returns m's attr field when m is a record defining it atomically.
func atomOn(m value.Value, attr string) (value.Value, bool) {
	rec, ok := m.(*value.Record)
	if !ok {
		return nil, false
	}
	v, ok := rec.Get(attr)
	if !ok || !isAtom(v) {
		return nil, false
	}
	return v, true
}

// JoinFast computes the same generalized natural join as Join under the
// plan PlanJoin chooses. Members silent (or non-atomic) on the chosen
// attribute are wildcards paired with everything, exactly preserving the
// partial-tuple semantics.
func JoinFast(r, s *Relation) *Relation {
	return JoinPlanned(r, s, PlanJoin(r, s))
}

// JoinPlanned executes a join under an explicit plan: nested-loop, or a
// build/probe hash join — the build side is partitioned into buckets once,
// the probe side streams through them. The result is identical under
// every plan (TestQuickJoinPlannedEquals).
func JoinPlanned(r, s *Relation, p JoinPlan) *Relation {
	if p.Attr == "" {
		return Join(r, s)
	}
	build, probe := r, s
	if p.BuildRight {
		build, probe = s, r
	}
	buckets := map[string][]value.Value{}
	var buildWild []value.Value
	var buf [keyScratch]byte
	for _, m := range build.elems {
		if v, ok := atomOn(m, p.Attr); ok {
			k := value.AppendKey(buf[:0], v)
			buckets[string(k)] = append(buckets[string(k)], m)
		} else {
			buildWild = append(buildWild, m)
		}
	}

	var joined []value.Value
	// tryJoin keeps the (r, s) orientation regardless of build side.
	tryJoin := func(pm, bm value.Value) {
		a, b := bm, pm
		if p.BuildRight {
			a, b = pm, bm
		}
		if j, err := value.Join(a, b); err == nil {
			joined = append(joined, j)
		}
	}
	for _, m := range probe.elems {
		if v, ok := atomOn(m, p.Attr); ok {
			// Equal atoms join; the build side's wildcards join everything.
			for _, bm := range buckets[string(value.AppendKey(buf[:0], v))] {
				tryJoin(m, bm)
			}
			for _, bm := range buildWild {
				tryJoin(m, bm)
			}
		} else {
			// A probe wildcard pairs with the whole build side.
			for _, bm := range build.elems {
				tryJoin(m, bm)
			}
		}
	}
	return newFromCochain(value.Maximal(joined))
}
