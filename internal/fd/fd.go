// Package fd implements the classical theory of functional dependencies —
// attribute-set closure under Armstrong's axioms, implication, equivalence,
// minimal covers and candidate keys — together with dependency satisfaction
// on both flat (1NF) relations and the paper's generalized relations. The
// paper notes that the interaction of the information ordering with a
// projection ordering "allows us [to] derive the basic results of the
// theory of functional dependencies" [Bune86]; this package provides those
// results so the claim can be exercised (experiment E8).
package fd

import (
	"sort"
	"strings"

	"dbpl/internal/relation"
	"dbpl/internal/value"
)

// AttrSet is a set of attribute names.
type AttrSet map[string]bool

// NewAttrSet builds an attribute set.
func NewAttrSet(attrs ...string) AttrSet {
	s := AttrSet{}
	for _, a := range attrs {
		s[a] = true
	}
	return s
}

// Sorted returns the attributes in sorted order.
func (s AttrSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for a := range s {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Contains reports whether every attribute of t is in s.
func (s AttrSet) Contains(t AttrSet) bool {
	for a := range t {
		if !s[a] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t as a new set.
func (s AttrSet) Union(t AttrSet) AttrSet {
	out := AttrSet{}
	for a := range s {
		out[a] = true
	}
	for a := range t {
		out[a] = true
	}
	return out
}

// Equal reports set equality.
func (s AttrSet) Equal(t AttrSet) bool { return s.Contains(t) && t.Contains(s) }

// String renders the set as {A, B, C}.
func (s AttrSet) String() string { return "{" + strings.Join(s.Sorted(), ", ") + "}" }

// FD is a functional dependency From → To.
type FD struct {
	From AttrSet
	To   AttrSet
}

// Dep builds the dependency from → to, with "," separating attribute names:
// Dep("Name", "Dept,Floor").
func Dep(from, to string) FD {
	split := func(s string) AttrSet {
		out := AttrSet{}
		for _, a := range strings.Split(s, ",") {
			if a = strings.TrimSpace(a); a != "" {
				out[a] = true
			}
		}
		return out
	}
	return FD{From: split(from), To: split(to)}
}

// String renders the dependency as A, B -> C.
func (f FD) String() string {
	return strings.Join(f.From.Sorted(), ", ") + " -> " + strings.Join(f.To.Sorted(), ", ")
}

// Trivial reports whether the dependency is implied by reflexivity alone
// (To ⊆ From).
func (f FD) Trivial() bool { return f.From.Contains(f.To) }

// Closure computes the closure X⁺ of the attribute set under the given
// dependencies: the largest set Y with X → Y derivable by Armstrong's
// axioms. It runs in O(|fds| · |attrs|) rounds.
func Closure(x AttrSet, fds []FD) AttrSet {
	out := AttrSet{}
	for a := range x {
		out[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range fds {
			if out.Contains(f.From) && !out.Contains(f.To) {
				for a := range f.To {
					out[a] = true
				}
				changed = true
			}
		}
	}
	return out
}

// Implies reports whether the set of dependencies logically implies f,
// using the closure test: fds ⊨ X → Y iff Y ⊆ X⁺.
func Implies(fds []FD, f FD) bool {
	return Closure(f.From, fds).Contains(f.To)
}

// Equivalent reports whether two dependency sets imply each other.
func Equivalent(a, b []FD) bool {
	for _, f := range a {
		if !Implies(b, f) {
			return false
		}
	}
	for _, f := range b {
		if !Implies(a, f) {
			return false
		}
	}
	return true
}

// MinimalCover returns a minimal cover of fds: singleton right-hand sides,
// no redundant dependencies, and no extraneous left-hand attributes. The
// result is equivalent to the input.
func MinimalCover(fds []FD) []FD {
	// 1. Split right-hand sides.
	var work []FD
	for _, f := range fds {
		for a := range f.To {
			if f.From[a] {
				continue // trivial component
			}
			work = append(work, FD{From: f.From.Union(nil), To: NewAttrSet(a)})
		}
	}
	// 2. Remove extraneous left-hand attributes.
	for i := range work {
		for {
			removed := false
			for a := range work[i].From {
				if len(work[i].From) == 1 {
					break
				}
				smaller := AttrSet{}
				for b := range work[i].From {
					if b != a {
						smaller[b] = true
					}
				}
				if Closure(smaller, work).Contains(work[i].To) {
					work[i].From = smaller
					removed = true
					break
				}
			}
			if !removed {
				break
			}
		}
	}
	// 3. Remove redundant dependencies.
	var out []FD
	for i := range work {
		rest := make([]FD, 0, len(work)-1)
		rest = append(rest, out...)
		rest = append(rest, work[i+1:]...)
		if !Implies(rest, work[i]) {
			out = append(out, work[i])
		}
	}
	// Deduplicate identical dependencies (possible after step 2).
	seen := map[string]bool{}
	var dedup []FD
	for _, f := range out {
		k := f.String()
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// CandidateKeys returns all minimal attribute sets whose closure covers the
// whole schema. Exponential in the worst case, as the problem demands; fine
// for schema-sized inputs.
func CandidateKeys(schema AttrSet, fds []FD) []AttrSet {
	attrs := schema.Sorted()
	n := len(attrs)
	var keys []AttrSet
	// Enumerate subsets in order of increasing size so minimality is a
	// superset check against already-found keys.
	for size := 0; size <= n; size++ {
		var walk func(start int, cur []string)
		walk = func(start int, cur []string) {
			if len(cur) == size {
				cand := NewAttrSet(cur...)
				for _, k := range keys {
					if cand.Contains(k) {
						return // superset of a smaller key: not minimal
					}
				}
				if Closure(cand, fds).Contains(schema) {
					keys = append(keys, cand)
				}
				return
			}
			for i := start; i < n; i++ {
				walk(i+1, append(cur, attrs[i]))
			}
		}
		walk(0, nil)
	}
	return keys
}

// SatisfiedFlat reports whether the flat relation satisfies f classically:
// no two tuples agree on From but disagree somewhere in To.
func SatisfiedFlat(r *relation.Flat, f FD) bool {
	groups := map[string]*value.Record{}
	for _, t := range r.Tuples() {
		k, ok := projKey(t, f.From)
		if !ok {
			continue // attribute not in schema: vacuous for this tuple
		}
		if prev, seen := groups[k]; seen {
			if !agree(prev, t, f.To) {
				return false
			}
		} else {
			groups[k] = t
		}
	}
	return true
}

// SatisfiedGen reports whether the generalized relation satisfies f under
// the domain-theoretic reading: whenever two members both define all of
// From and agree on it, their To-projections must be *joinable* — they may
// differ only where one is silent. On flat data this coincides with
// SatisfiedFlat, since atoms are joinable exactly when equal.
func SatisfiedGen(r *relation.Relation, f FD) bool {
	groups := map[string][]*value.Record{}
	for _, m := range r.Members() {
		rec, ok := m.(*value.Record)
		if !ok {
			continue
		}
		k, ok := projKey(rec, f.From)
		if !ok {
			continue // member silent on part of From: no claim made
		}
		groups[k] = append(groups[k], rec)
	}
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if !joinableOn(g[i], g[j], f.To) {
					return false
				}
			}
		}
	}
	return true
}

// projKey builds a canonical key of rec's values on attrs; ok is false when
// any attribute is absent.
func projKey(rec *value.Record, attrs AttrSet) (string, bool) {
	var b []byte
	for _, a := range attrs.Sorted() {
		v, ok := rec.Get(a)
		if !ok {
			return "", false
		}
		b = append(value.AppendKey(b, v), '|')
	}
	return string(b), true
}

// agree reports whether both records have equal values on every attribute
// of attrs that either defines (flat data always defines all).
func agree(a, b *value.Record, attrs AttrSet) bool {
	for x := range attrs {
		av, aok := a.Get(x)
		bv, bok := b.Get(x)
		if aok != bok {
			return false
		}
		if aok && !value.Equal(av, bv) {
			return false
		}
	}
	return true
}

// joinableOn reports whether the two records' projections onto attrs join
// without conflict.
func joinableOn(a, b *value.Record, attrs AttrSet) bool {
	for x := range attrs {
		av, aok := a.Get(x)
		bv, bok := b.Get(x)
		if aok && bok {
			if _, err := value.Join(av, bv); err != nil {
				return false
			}
		}
	}
	return true
}
