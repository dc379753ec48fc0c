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
// member of s both carry. Each side's labels are read once a shape, so an
// extent of a few label sets costs a few reads.
func sharedLabels(r, s *Relation) []string {
	sides := map[string]int{} // bit 0: r carries the label, bit 1: s does
	for side, rel := range []*Relation{r, s} {
		seen := map[*value.Shape]bool{}
		for _, m := range rel.elems {
			if rec, ok := m.(*value.Record); ok && !seen[rec.Shape()] {
				seen[rec.Shape()] = true
				for _, l := range rec.Labels() {
					sides[l] |= 1 << side
				}
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
	atoms, wild := map[value.AtomKey]int{}, 0
	for _, m := range s.elems {
		if k, ok := atomOn(m, attr); ok {
			atoms[k]++
		} else {
			wild++
		}
	}
	n := 0
	for _, m := range r.elems {
		if k, ok := atomOn(m, attr); ok {
			n += atoms[k] + wild
		} else {
			n += s.Len()
		}
	}
	return n
}

// atomOn returns the AtomKey of m's attr field when m is a record defining
// it atomically.
func atomOn(m value.Value, attr string) (value.AtomKey, bool) {
	if rec, ok := m.(*value.Record); ok {
		if v, ok := rec.Get(attr); ok {
			return value.AtomKeyOf(v)
		}
	}
	return value.AtomKey{}, false
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
	out, _ := JoinPairs(r, s, p)
	return out
}

// JoinPairs is JoinPlanned that also reports which members each result
// member joins: Members()[i] is the join of r's member pairs[i][0] and s's
// member pairs[i][1]. When both sides are Keyed the joins are a cochain
// as EachPair makes them, and the maxima pass is skipped.
func JoinPairs(r, s *Relation, p JoinPlan) (*Relation, [][2]int) {
	var joined []value.Value
	var pairs [][2]int
	EachPair(r, s, p, func(i, j int) {
		if m, err := value.Join(r.elems[i], s.elems[j]); err == nil {
			joined, pairs = append(joined, m), append(pairs, [2]int{i, j})
		}
	})
	if r.Keyed() && s.Keyed() {
		return &Relation{elems: joined}, pairs
	}
	out, keep := newFrom(joined)
	if keep == nil {
		return out, pairs
	}
	kept := make([][2]int, len(keep))
	for i, k := range keep {
		kept[i] = pairs[k]
	}
	return out, kept
}

// EachPair calls try(i, j) for every pair of r's member i and s's member
// j that the plan pairs, in plan order: the join of the pair is attempted
// by try. The plan order is JoinPairs' member order.
//
// When New proved both sides Keyed, on k_R and k_S, the joins of the
// pairs are a cochain as made, so each one that succeeds is a member of
// the join. A joined object holds its r member's atom at k_R and its s
// member's atom at k_S, since an atom joins only with an equal atom or ⊥.
// So j₁ ⊑ j₂ forces equal atoms at both labels, hence the same pair of
// members, and each pair is tried once.
func EachPair(r, s *Relation, p JoinPlan, try func(i, j int)) {
	if p.Attr == "" {
		for i := range r.elems {
			for j := range s.elems {
				try(i, j)
			}
		}
		return
	}
	build, probe := r, s
	if p.BuildRight {
		build, probe = s, r
	}
	buckets := map[value.AtomKey][]int{}
	var buildWild []int
	for i, m := range build.elems {
		if k, ok := atomOn(m, p.Attr); ok {
			buckets[k] = append(buckets[k], i)
		} else {
			buildWild = append(buildWild, i)
		}
	}
	// tryPair keeps the (r, s) orientation regardless of build side.
	tryPair := func(pi, bi int) {
		if p.BuildRight {
			try(pi, bi)
		} else {
			try(bi, pi)
		}
	}
	for pi, m := range probe.elems {
		if k, ok := atomOn(m, p.Attr); ok {
			// Equal atoms join; the build side's wildcards join everything.
			for _, bi := range buckets[k] {
				tryPair(pi, bi)
			}
			for _, bi := range buildWild {
				tryPair(pi, bi)
			}
		} else {
			// A probe wildcard pairs with the whole build side.
			for bi := range build.elems {
				tryPair(pi, bi)
			}
		}
	}
}
