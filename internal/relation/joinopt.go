package relation

import (
	"fmt"
	"time"

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
// The optimization never changes the result; TestQuickJoinFastEquals
// checks equivalence on random partial relations, and BenchmarkJoin
// measures the effect (the E1 ablation).

// joinAttrStats describes how useful an attribute is as a hash key.
type joinAttrStats struct {
	label    string
	distinct int
	silent   int // members not defining the attribute, or non-atomically
}

// pickJoinAttr selects the attribute with the best selectivity: maximal
// distinct atom count, minimal silent members. Returns false when no
// attribute is shared usefully.
func pickJoinAttr(r, s *Relation) (string, bool) {
	stats := func(rel *Relation) map[string]*joinAttrStats {
		out := map[string]*joinAttrStats{}
		for _, m := range rel.elems {
			rec, ok := m.(*value.Record)
			if !ok {
				continue
			}
			rec.Each(func(l string, v value.Value) {
				st, ok := out[l]
				if !ok {
					st = &joinAttrStats{label: l}
					out[l] = st
				}
				if isAtom(v) {
					st.distinct++ // counts occurrences; good enough as a proxy
				} else {
					st.silent++
				}
			})
		}
		return out
	}
	rs, ss := stats(r), stats(s)
	best := ""
	bestScore := -1
	for l, a := range rs {
		b, ok := ss[l]
		if !ok {
			continue
		}
		// Score: members that actually define the attribute atomically on
		// both sides; penalize non-atomic occurrences (those members fall
		// into the wildcard bucket anyway).
		score := a.distinct + b.distinct - 2*(a.silent+b.silent)
		if score > bestScore {
			bestScore = score
			best = l
		}
	}
	if bestScore <= 0 {
		return "", false
	}
	return best, true
}

// JoinCosts are the cost-model coefficients for the join planner, in
// nanoseconds. PlanJoinWith takes them explicitly; everything else,
// including the server's JOIN and EXPLAIN, plans with DefaultJoinCosts.
type JoinCosts struct {
	PairNs  float64 // one value.Join attempt
	HashNs  float64 // hashing one member into a bucket
	SetupNs float64 // fixed partition overhead (map allocation)
}

// DefaultJoinCosts are fixed priors, measured on the E1/E16
// microbenchmarks. Nothing learns or replaces them at run time; only their
// ordering needs to be roughly right, since they decide nested-loop against
// partition and nothing finer.
var DefaultJoinCosts = JoinCosts{PairNs: 150, HashNs: 120, SetupNs: 2000}

// JoinPlan is the planner's verdict for one join: whether to hash-
// partition at all, on which attribute, and which side to build the hash
// table from (the probe side streams). The zero value means nested-loop.
type JoinPlan struct {
	Attr       string // partition attribute; "" for nested-loop
	Partition  bool
	BuildRight bool // build from s (the smaller side), probe with r

	// Cost estimates behind the choice, for EXPLAIN.
	CostNested    float64
	CostPartition float64
}

// String renders the plan in the EXPLAIN format.
func (p JoinPlan) String() string {
	if !p.Partition {
		return fmt.Sprintf("join path=nested cost{nested=%s partition=%s}",
			ns(p.CostNested), ns(p.CostPartition))
	}
	side := "left"
	if p.BuildRight {
		side = "right"
	}
	return fmt.Sprintf("join path=partition attr=%s build=%s cost{nested=%s partition=%s}",
		p.Attr, side, ns(p.CostNested), ns(p.CostPartition))
}

func ns(c float64) string {
	if c <= 0 {
		return "-"
	}
	return time.Duration(c).String()
}

// PlanJoin chooses the join strategy with the default cost priors —
// replacing the old fixed "both sides ≥ 16 rows" threshold.
func PlanJoin(r, s *Relation) JoinPlan {
	return PlanJoinWith(r, s, DefaultJoinCosts)
}

// PlanJoinWith chooses the join strategy under explicit cost
// coefficients. The nested-loop cost is |R|·|S| pair attempts; the
// partition cost is hashing both sides plus the pairs that survive the
// partition — same-bucket pairs (estimated through the attribute's
// distinct-count) and wildcard cross-pairs, which the partition cannot
// avoid.
func PlanJoinWith(r, s *Relation, c JoinCosts) JoinPlan {
	nr, nsz := r.Len(), s.Len()
	p := JoinPlan{CostNested: float64(nr) * float64(nsz) * c.PairNs}
	attr, ok := pickJoinAttr(r, s)
	if !ok {
		return p // no shared atomic attribute: partitioning cannot help
	}
	ra, rw := attrCounts(r, attr)
	sa, sw := attrCounts(s, attr)
	distinct := distinctAtoms(r, s, attr)
	if distinct < 1 {
		distinct = 1
	}
	survivors := float64(ra)*float64(sa)/float64(distinct) +
		float64(rw)*float64(nsz) + float64(sw)*float64(ra)
	p.CostPartition = c.SetupNs + float64(nr+nsz)*c.HashNs + survivors*c.PairNs
	if p.CostPartition < p.CostNested {
		p.Attr = attr
		p.Partition = true
		p.BuildRight = nsz <= nr // build the hash table over the smaller side
	}
	return p
}

// attrCounts returns how many members of rel define attr atomically, and
// how many are wildcards on it (silent, non-atomic, or non-records).
func attrCounts(rel *Relation, attr string) (atoms, wild int) {
	for _, m := range rel.elems {
		if _, ok := atomOn(m, attr); ok {
			atoms++
		} else {
			wild++
		}
	}
	return atoms, wild
}

// distinctAtoms counts the distinct atom values attr takes across both
// relations — the denominator of the same-bucket pair estimate.
func distinctAtoms(r, s *Relation, attr string) int {
	seen := map[string]bool{}
	var buf [keyScratch]byte
	for _, rel := range []*Relation{r, s} {
		for _, m := range rel.elems {
			if v, ok := atomOn(m, attr); ok {
				if k := value.AppendKey(buf[:0], v); !seen[string(k)] {
					seen[string(k)] = true
				}
			}
		}
	}
	return len(seen)
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

// JoinFast computes the same generalized natural join as Join, planning
// the strategy with the default cost model. Members silent (or
// non-atomic) on the chosen attribute are wildcards paired with
// everything, exactly preserving the partial-tuple semantics.
func JoinFast(r, s *Relation) *Relation {
	return JoinPlanned(r, s, PlanJoin(r, s))
}

// JoinPlanned executes a join under an explicit plan: nested-loop, or a
// build/probe hash join — the build side is partitioned into buckets once,
// the probe side streams through them. The result is identical under
// every plan (TestQuickJoinPlannedEquals).
func JoinPlanned(r, s *Relation, p JoinPlan) *Relation {
	if !p.Partition {
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
