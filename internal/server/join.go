package server

import (
	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/relation"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// operand is what JOIN and EXPLAIN read of one side: the relation of the
// members matching its query type, GET's answer as values, and what the
// reply reads of each member. It is derived once per version of the
// matching extents and kept in the index set's type generation
// (index.Set.Keep), so concurrent requests share it, and with it the label
// set and partitions the relation builds on first use (relation.PlanJoin).
type operand struct {
	rel *relation.Relation
	ws  []witnessed // ws[i] is the dynamic and ⊥ flag of rel's member i
}

// witnessed is what JOIN needs of a relation member: its dynamic, whose
// type is the member's declared witness and whose image its value bytes.
type witnessed struct {
	dyn    *dynamic.Dynamic
	bottom bool // value.HoldsBottom of the member
}

// operandOf is the operand of the members of st matching want, kept while
// their extents are unchanged.
func operandOf(st *state, want *types.Interned) *operand {
	return st.idx.Keep(want, newOperand).(*operand)
}

// newOperand derives the operand of entries, the members GET returns.
func newOperand(entries []index.Entry) any {
	vals := make([]value.Value, len(entries))
	for i, e := range entries {
		vals[i] = e.Dyn.Value()
	}
	rel, pos := relation.NewIndexed(vals)
	o := &operand{rel: rel, ws: make([]witnessed, len(pos))}
	for i, p := range pos {
		o.ws[i] = witnessed{dyn: entries[p].Dyn, bottom: value.HoldsBottom(vals[p])}
	}
	return o
}
