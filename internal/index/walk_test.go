package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// idT is the query every member of walkSet conforms to.
var idT = types.MustParse("{Id: Int}")

// walkSet returns a Set of n members over k member types {Id: Int, T<j>:
// Int}, each conforming to idT, interleaved at random, with about one in
// eight of them removed again so that seqs have gaps.
func walkSet(rng *rand.Rand, k, n int) *Set {
	s := NewSet()
	if k == 0 {
		return s
	}
	ts := make([]types.Type, k)
	for j := range ts {
		ts[j] = types.MustParse(fmt.Sprintf("{Id: Int, T%d: Int}", j))
	}
	var live []*dynamic.Dynamic
	for i := 0; i < n; i++ {
		j := i % k // every type gets a member first
		if i >= k {
			j = rng.Intn(k)
		}
		d, err := dynamic.MakeAt(value.Rec("Id", value.Int(int64(i)), fmt.Sprintf("T%d", j), value.Int(0)), ts[j])
		if err != nil {
			panic(err)
		}
		op := Op{Add: d}
		if len(live) > k && rng.Intn(8) == 0 {
			at := rng.Intn(len(live))
			op.Remove, live[at] = live[at], d
		} else {
			live = append(live, d)
		}
		s, _ = s.Apply([]Op{op})
	}
	return s
}

// walked collects what Walk yields.
func walked(s *Set, want *types.Interned) []Entry {
	var out []Entry
	s.Walk(want, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// bySeq is the reference answer: every entry of a matching extent, sorted
// by seq.
func bySeq(s *Set, want *types.Interned) []Entry {
	var out []Entry
	s.byType.Range(func(_ string, e *Extent) bool {
		if types.SubtypeInterned(e.in, want) {
			out = append(out, e.items...)
		}
		return true
	})
	slices.SortFunc(out, func(a, b Entry) int { return int(a.Seq) - int(b.Seq) })
	return out
}

// TestQuickWalkMatchesGetEntries: over seeded Sets of 0 to 40 member
// types, Walk yields GetEntries' answer, and both are the matching
// extents' entries sorted by seq; a walk stopped early yields a prefix.
func TestQuickWalkMatchesGetEntries(t *testing.T) {
	want := types.Intern(idT)
	f := func(seed int64, k8 uint8, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(k8) % 41
		s := walkSet(rng, k, k+int(n16)%400) // removals may empty an extent
		ref := bySeq(s, want)
		got, matched := s.GetEntries(want)
		if matched != s.Types() || !slices.Equal(got, ref) || !slices.Equal(walked(s, want), ref) {
			t.Logf("seed %d, %d types: GetEntries %d of %d extents, walk %d, reference %d",
				seed, k, len(got), matched, len(walked(s, want)), len(ref))
			return false
		}
		if len(ref) == 0 {
			return true
		}
		stop := rng.Intn(len(ref))
		var prefix []Entry
		s.Walk(want, func(e Entry) bool {
			prefix = append(prefix, e)
			return len(prefix) <= stop
		})
		return slices.Equal(prefix, ref[:stop+1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestWalkAllocatesNothing: a walk over up to 8 extents keeps its cursors
// on the stack.
func TestWalkAllocatesNothing(t *testing.T) {
	want := types.Intern(idT)
	for k := 1; k <= walkStack; k++ {
		s := walkSet(rand.New(rand.NewSource(int64(k))), k, 64*k)
		n := 0
		yield := func(Entry) bool { n++; return true }
		s.Walk(want, yield) // the generation's memo answers from here on
		if allocs := testing.AllocsPerRun(100, func() { s.Walk(want, yield) }); allocs != 0 {
			t.Errorf("a walk over %d extents allocates %.1f times, want 0", k, allocs)
		}
	}
}

// TestKeepFollowsExtents: a kept value is served while the matching
// extents are unchanged — across commits that touch other extents and to
// a fork — and derived afresh after one changes. A fork derives its own
// when its extents differ, and leaves the one its generation keeps.
func TestKeepFollowsExtents(t *testing.T) {
	want := types.Intern(employeeT)
	derived := 0
	derive := func(es []Entry) any {
		derived++
		return len(es)
	}
	s := addAll(NewSet(), mixed()...)
	keep := func(s *Set, wantN, wantDerived int) {
		t.Helper()
		if got := s.Keep(want, derive); got != wantN || derived != wantDerived {
			t.Fatalf("Keep = %v after %d derivations, want %d after %d", got, derived, wantN, wantDerived)
		}
	}
	keep(s, 3, 1)
	keep(s, 3, 1)
	s = addAll(s, dynamic.Make(person("P3", "Oslo")))
	keep(s, 3, 1) // another extent changed
	fork := s.Fork()
	keep(fork, 3, 1) // a fork's clipped extents hold the same members
	fork = addAll(fork, dynamic.Make(employee("E9", "Oslo", 9, "Sales")))
	keep(fork, 4, 2)
	keep(fork, 4, 3) // the fork stored nothing ...
	keep(s, 3, 3)    // ... and left what s keeps
	s = addAll(s, dynamic.Make(employee("E4", "Oslo", 4, "Sales")))
	keep(s, 4, 4)
	keep(s, 4, 4)
	s.gen.keepMu.Lock()
	n := s.gen.keptN // the members the generation's kept values were derived from
	s.gen.keepMu.Unlock()
	if n != 4 || n > s.Len() {
		t.Errorf("the generation keeps values of %d members, want 4 of the Set's %d", n, s.Len())
	}
}

// TestKeepIsBounded: Keep at many distinct query types whose matching
// members add up to several times the Set's. After each call the
// generation's kept values are derived from no more members than the Set
// holds, kept values are dropped on the way, and every call still answers
// its own type's members.
func TestKeepIsBounded(t *testing.T) {
	const k = 6
	s := walkSet(rand.New(rand.NewSource(7)), k, 96)
	// The queries are {}, {Id: Int}, {T<j>: Int} and {Id: Int, T<j>: Int}:
	// the first two match every member, the others one extent each.
	id := types.Field{Label: "Id", Type: types.Int}
	queries := []*types.Interned{types.Intern(types.NewRecord()), types.Intern(types.NewRecord(id))}
	for j := 0; j < k; j++ {
		tj := types.Field{Label: fmt.Sprintf("T%d", j), Type: types.Int}
		queries = append(queries, types.Intern(types.NewRecord(tj)), types.Intern(types.NewRecord(id, tj)))
	}
	derive := func(es []Entry) any { return len(es) }
	keptN := func() int {
		s.gen.keepMu.Lock()
		defer s.gen.keepMu.Unlock()
		return s.gen.keptN
	}
	sum, drops := 0, 0
	for round := 0; round < 2; round++ {
		for i, q := range queries {
			before := keptN()
			if got, want := s.Keep(q, derive), len(bySeq(s, q)); got != want {
				t.Fatalf("round %d, query %d: Keep = %v, want %d members", round, i, got, want)
			}
			n := keptN()
			if n > s.Len() {
				t.Fatalf("round %d, query %d: the generation keeps values of %d members, more than the Set's %d", round, i, n, s.Len())
			}
			if n < before {
				drops++
			}
			if round == 0 {
				sum += len(bySeq(s, q))
			}
		}
	}
	if sum <= s.Len() || drops == 0 {
		t.Errorf("the queries match %d members in all and dropped kept values %d times; want more than the Set's %d and some drops", sum, drops, s.Len())
	}
}
