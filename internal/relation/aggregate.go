package relation

import (
	"fmt"
	"sort"

	"dbpl/internal/value"
)

// This file rounds out the relational algebra with grouping and
// aggregation, in the spirit of the paper's Merrett reference (relational
// algebra as a general computational tool). Aggregates work on both flat
// and generalized relations; on generalized relations a member that is
// silent on the aggregated attribute simply contributes nothing — the
// null-as-missing-field reading again.

// Aggregate is a function folded over the values of one attribute within a
// group.
type Aggregate struct {
	// Name labels the output field, e.g. "Total".
	Name string
	// Attr is the aggregated attribute ("" for CountAll).
	Attr string
	// fold updates the accumulator with one value; zero produces the
	// initial accumulator and finish maps it to the output value.
	fold   func(acc value.Value, v value.Value) (value.Value, error)
	zero   func() value.Value
	finish func(acc value.Value) value.Value
}

// Count counts the group members that define attr.
func Count(name, attr string) Aggregate {
	return Aggregate{
		Name: name, Attr: attr,
		zero: func() value.Value { return value.Int(0) },
		fold: func(acc, _ value.Value) (value.Value, error) {
			return acc.(value.Int) + 1, nil
		},
		finish: func(acc value.Value) value.Value { return acc },
	}
}

// CountAll counts every group member.
func CountAll(name string) Aggregate {
	a := Count(name, "")
	return a
}

// numeric returns the float reading of an Int or Float.
func numeric(v value.Value) (float64, bool) {
	switch n := v.(type) {
	case value.Int:
		return float64(n), true
	case value.Float:
		return float64(n), true
	}
	return 0, false
}

// Sum totals a numeric attribute over the group.
func Sum(name, attr string) Aggregate {
	return Aggregate{
		Name: name, Attr: attr,
		zero: func() value.Value { return value.Float(0) },
		fold: func(acc, v value.Value) (value.Value, error) {
			f, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("relation: sum of non-numeric %s", v)
			}
			return acc.(value.Float) + value.Float(f), nil
		},
		finish: func(acc value.Value) value.Value { return acc },
	}
}

// Min keeps the least value of the attribute under the information
// ordering-compatible primitive orderings (numbers and strings).
func Min(name, attr string) Aggregate { return extremum(name, attr, true) }

// Max keeps the greatest value of the attribute.
func Max(name, attr string) Aggregate { return extremum(name, attr, false) }

func extremum(name, attr string, min bool) Aggregate {
	return Aggregate{
		Name: name, Attr: attr,
		zero: func() value.Value { return value.Bottom },
		fold: func(acc, v value.Value) (value.Value, error) {
			if acc.Kind() == value.KindBottom {
				return v, nil
			}
			less, err := primLess(v, acc)
			if err != nil {
				return nil, err
			}
			if less == min {
				return v, nil
			}
			return acc, nil
		},
		finish: func(acc value.Value) value.Value { return acc },
	}
}

func primLess(a, b value.Value) (bool, error) {
	if as, ok := a.(value.String); ok {
		bs, ok := b.(value.String)
		if !ok {
			return false, fmt.Errorf("relation: cannot compare %s with %s", a, b)
		}
		return as < bs, nil
	}
	af, ok1 := numeric(a)
	bf, ok2 := numeric(b)
	if !ok1 || !ok2 {
		return false, fmt.Errorf("relation: cannot compare %s with %s", a, b)
	}
	return af < bf, nil
}

// GroupBy groups the relation's record members by the given attributes and
// applies each aggregate within a group, producing one record per group
// carrying the grouping attributes plus one field per aggregate. Members
// silent on a grouping attribute form their own "unknown" groups keyed by
// the attributes they do define; members silent on an aggregated attribute
// are skipped by that aggregate (CountAll counts them regardless).
//
// The result is itself a generalized relation (a cochain), so a group
// record that is strictly less informative than another — an unknown-key
// group whose aggregates happen to equal a known group's — is subsumed,
// consistent with the information ordering. Flat inputs can never trigger
// this (every group defines all grouping attributes).
func GroupBy(r *Relation, by []string, aggs ...Aggregate) (*Relation, error) {
	type group struct {
		key  *value.Record
		accs []value.Value
	}
	sortedBy := append([]string(nil), by...)
	sort.Strings(sortedBy)
	groups := map[string]*group{}
	var order []string
	var kb []byte // the member's group key, reused across members

	for _, m := range r.Members() {
		rec, ok := m.(*value.Record)
		if !ok {
			continue
		}
		keyRec := value.NewRecord()
		kb = kb[:0]
		for _, a := range sortedBy {
			kb = append(append(kb, a...), '=')
			if v, ok := rec.Get(a); ok {
				keyRec.Set(a, v)
				kb = value.AppendKey(kb, v)
			} else {
				kb = append(kb, "⊥"...)
			}
			kb = append(kb, '|')
		}
		g, ok := groups[string(kb)]
		if !ok {
			g = &group{key: keyRec, accs: make([]value.Value, len(aggs))}
			for i, agg := range aggs {
				g.accs[i] = agg.zero()
			}
			k := string(kb)
			groups[k] = g
			order = append(order, k)
		}
		for i, agg := range aggs {
			if agg.Attr == "" { // CountAll
				acc, err := agg.fold(g.accs[i], value.Unit)
				if err != nil {
					return nil, err
				}
				g.accs[i] = acc
				continue
			}
			v, ok := rec.Get(agg.Attr)
			if !ok {
				continue
			}
			acc, err := agg.fold(g.accs[i], v)
			if err != nil {
				return nil, err
			}
			g.accs[i] = acc
		}
	}

	out := New()
	for _, k := range order {
		g := groups[k]
		res := g.key
		for i, agg := range aggs {
			res.Set(agg.Name, aggs[i].finish(g.accs[i]))
		}
		out.Insert(res)
	}
	return out, nil
}

// GroupByFlat is GroupBy for flat relations, returning a flat relation over
// the grouping attributes plus the aggregate names. Aggregates over flat
// relations never meet missing attributes.
func GroupByFlat(f *Flat, by []string, aggs ...Aggregate) (*Flat, error) {
	gen, err := GroupBy(f.Generalize(), by, aggs...)
	if err != nil {
		return nil, err
	}
	attrs := append([]string(nil), by...)
	for _, a := range aggs {
		attrs = append(attrs, a.Name)
	}
	out := NewFlat(attrs...)
	for _, m := range gen.Members() {
		if err := out.Insert(m.(*value.Record)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
