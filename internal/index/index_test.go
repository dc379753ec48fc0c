package index

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

var (
	personT   = types.MustParse("{Name: String, Address: {City: String}}")
	employeeT = types.MustParse("{Name: String, Address: {City: String}, Empno: Int, Dept: String}")
	studentT  = types.MustParse("{Name: String, Address: {City: String}, StudentID: Int}")
)

func person(name, city string) *value.Record {
	return value.Rec("Name", value.String(name),
		"Address", value.Rec("City", value.String(city)))
}

func employee(name, city string, empno int, dept string) *value.Record {
	r := person(name, city)
	r.Set("Empno", value.Int(int64(empno)))
	r.Set("Dept", value.String(dept))
	return r
}

func student(name, city string, id int) *value.Record {
	r := person(name, city)
	r.Set("StudentID", value.Int(int64(id)))
	return r
}

func addAll(s *Set, ds ...*dynamic.Dynamic) *Set {
	ops := make([]Op, len(ds))
	for i, d := range ds {
		ops[i] = Op{Add: d}
	}
	s, _ = s.Apply(ops)
	return s
}

// mixed returns a population with records of several types plus non-record
// members, in a fixed insertion order.
func mixed() []*dynamic.Dynamic {
	return []*dynamic.Dynamic{
		dynamic.Make(person("P1", "Austin")),
		dynamic.Make(employee("E1", "Austin", 1, "Sales")),
		dynamic.Make(person("P2", "Moose")),
		dynamic.Make(student("S1", "Austin", 100)),
		dynamic.Make(employee("E2", "Glasgow", 2, "Manuf")),
		dynamic.Make(value.Int(42)),
		dynamic.Make(value.String("anything")),
		dynamic.Make(employee("E3", "Philadelphia", 3, "Sales")),
	}
}

// refGet is the reference answer: a full scan filtering by the subtype
// check, in insertion order.
func refGet(members []*dynamic.Dynamic, want *types.Interned) []*dynamic.Dynamic {
	var out []*dynamic.Dynamic
	for _, d := range members {
		if types.SubtypeInterned(d.Interned(), want) {
			out = append(out, d)
		}
	}
	return out
}

// refCandidates is the covering rule by scan: the members whose declared
// type is a record type with the field, or not a record type at all.
func refCandidates(members []*dynamic.Dynamic, field string) []*dynamic.Dynamic {
	var out []*dynamic.Dynamic
	for _, d := range members {
		rt, ok := d.Interned().Type().(*types.Record)
		if !ok {
			out = append(out, d)
		} else if _, ok := rt.Lookup(field); ok {
			out = append(out, d)
		}
	}
	return out
}

func sameDyns(got []Entry, want []*dynamic.Dynamic) error {
	if len(got) != len(want) {
		return fmt.Errorf("len: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Dyn != want[i] {
			return fmt.Errorf("entry %d: got %v want %v", i, got[i].Dyn, want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Seq >= got[i].Seq {
			return fmt.Errorf("seq order violated at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
	return nil
}

func TestGetEntriesMatchesReferenceScan(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(), members...)
	for _, q := range []types.Type{personT, employeeT, studentT, types.Int, types.Top} {
		want := types.Intern(q)
		got, _ := s.GetEntries(want)
		if err := sameDyns(got, refGet(members, want)); err != nil {
			t.Errorf("Get[%s]: %v", q, err)
		}
	}
}

func TestMatchStatsAgreesWithGetEntries(t *testing.T) {
	s := addAll(NewSet(), mixed()...)
	for _, q := range []types.Type{personT, employeeT, types.Int, types.Top} {
		want := types.Intern(q)
		entries, m1 := s.GetEntries(want)
		n, m2 := s.MatchStats(want)
		if n != len(entries) || m1 != m2 {
			t.Errorf("MatchStats[%s] = (%d,%d), GetEntries = (%d,%d)", q, n, m2, len(entries), m1)
		}
	}
}

func TestRemoveMaintainsExtentsAndIndexes(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(Def{Field: "Empno"}), members...)
	victim := members[4] // E2
	s2, stats := s.Apply([]Op{{Remove: victim}})
	if stats.EntriesTouched == 0 {
		t.Fatalf("remove touched nothing")
	}
	var left []*dynamic.Dynamic
	for _, d := range members {
		if d != victim {
			left = append(left, d)
		}
	}
	got, _ := s2.GetEntries(types.Intern(employeeT))
	if err := sameDyns(got, refGet(left, types.Intern(employeeT))); err != nil {
		t.Errorf("after remove: %v", err)
	}
	cand, ok := s2.Candidates("Empno")
	if !ok {
		t.Fatalf("Empno index gone")
	}
	for _, e := range cand {
		if e.Dyn == victim {
			t.Errorf("removed member still an index candidate")
		}
	}
	// The parent Set is untouched (COW): the victim is still there.
	before, _ := s.GetEntries(types.Intern(employeeT))
	if err := sameDyns(before, refGet(members, types.Intern(employeeT))); err != nil {
		t.Errorf("parent mutated by Apply: %v", err)
	}
}

// TestFieldIndexSoundAndComplete: the candidate set must contain every
// member that conforms to a record type requiring the field (complete),
// and the counts must reflect the member types.
func TestFieldIndexSoundAndComplete(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(Def{Field: "Dept"}), members...)
	cand, ok := s.Candidates("Dept")
	if !ok {
		t.Fatal("Dept not indexed")
	}
	in := map[*dynamic.Dynamic]bool{}
	for _, e := range cand {
		in[e.Dyn] = true
	}
	deptT := types.Intern(types.MustParse("{Dept: String}"))
	for _, d := range refGet(members, deptT) {
		if !in[d] {
			t.Errorf("member %v conforms to {Dept:String} but is not a candidate", d)
		}
	}
	if len(cand) != 5 { // E1, E2, E3 and the two non-record members
		t.Errorf("candidates = %d, want 5", len(cand))
	}
}

func TestRebuildEqualsIncremental(t *testing.T) {
	members := mixed()
	inc := addAll(NewSet(Def{Field: "Empno"}), members...)
	reb := Rebuild(members, Def{Field: "Empno"})
	for _, q := range []types.Type{personT, employeeT, types.Top} {
		a, _ := inc.GetEntries(types.Intern(q))
		b, _ := reb.GetEntries(types.Intern(q))
		if len(a) != len(b) {
			t.Fatalf("Get[%s]: incremental %d, rebuild %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].Dyn != b[i].Dyn {
				t.Errorf("Get[%s] entry %d differs", q, i)
			}
		}
	}
}

// TestForkTakesTwoSuccessors: a forked Set may be advanced by two owners,
// each appending to the extents it shares with the other (which have spare
// capacity in the parent), and neither sees the other's members; the Set it
// was forked from is left as it was.
func TestForkTakesTwoSuccessors(t *testing.T) {
	members := mixed()
	parent := addAll(NewSet(Def{Field: "Empno"}), members...)
	f := parent.Fork()
	a, b := dynamic.Make(employee("A", "Austin", 9, "Sales")), dynamic.Make(employee("B", "Moose", 8, "Manuf"))
	sa := addAll(f, a)
	sb, _ := f.Apply([]Op{{Add: b}, {Remove: members[1]}})
	wantB := append(append(append([]*dynamic.Dynamic(nil), members[:1]...), members[2:]...), b)
	for _, q := range []types.Type{personT, employeeT, types.Top} {
		want := types.Intern(q)
		for _, c := range []struct {
			name    string
			s       *Set
			members []*dynamic.Dynamic
		}{
			{"parent", parent, members},
			{"fork", f, members},
			{"side a", sa, append(members[:len(members):len(members)], a)},
			{"side b", sb, wantB},
		} {
			got, _ := c.s.GetEntries(want)
			if err := sameDyns(got, refGet(c.members, want)); err != nil {
				t.Errorf("%s Get[%s]: %v", c.name, q, err)
			}
		}
	}
	if n, _ := sb.CandidateCount("Empno"); n != 5 {
		t.Errorf("side b Empno candidates = %d, want 5", n)
	}
}

// randomMember draws a member from a small universe of shapes so random
// databases exercise multi-extent merges, the field indexes, and the odd
// (non-record) path.
func randomMember(rng *rand.Rand) *dynamic.Dynamic {
	switch rng.Intn(6) {
	case 0:
		return dynamic.Make(person(fmt.Sprintf("P%d", rng.Intn(50)), "Austin"))
	case 1:
		return dynamic.Make(employee(fmt.Sprintf("E%d", rng.Intn(50)), "Moose", rng.Intn(10), "Sales"))
	case 2:
		return dynamic.Make(employee(fmt.Sprintf("E%d", rng.Intn(50)), "Glasgow", rng.Intn(10), "Manuf"))
	case 3:
		return dynamic.Make(student(fmt.Sprintf("S%d", rng.Intn(50)), "Austin", rng.Intn(10)))
	case 4:
		return dynamic.Make(value.Int(int64(rng.Intn(100))))
	default:
		return dynamic.Make(value.String(fmt.Sprintf("s%d", rng.Intn(100))))
	}
}

// refMatched is the reference extent count: the distinct member types
// conforming to want.
func refMatched(members []*dynamic.Dynamic, want *types.Interned) int {
	seen := map[*types.Interned]bool{}
	for _, d := range members {
		if in := d.Interned(); !seen[in] && types.SubtypeInterned(in, want) {
			seen[in] = true
		}
	}
	return len(seen)
}

// TestQuickSetEquivalentToScan is the quick-check property: after every
// step of a random interleaving of adds and removes — ending with one
// member type drained until its extent empties and then brought back —
// every query path of the Set agrees with the reference full scan over
// the surviving members. Querying after every step is what exercises the
// type-generation memo: a query answered before a member type appears or
// an extent empties must not be answered from that generation afterwards.
func TestQuickSetEquivalentToScan(t *testing.T) {
	queries := []*types.Interned{
		types.Intern(personT),
		types.Intern(employeeT),
		types.Intern(studentT),
		types.Intern(types.Int),
		types.Intern(types.Top),
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Declared out of order, twice over: the Set sorts and dedups.
		s := NewSet(Def{Field: "StudentID"}, Def{Field: "Empno"}, Def{Field: "StudentID"})
		var alive []*dynamic.Dynamic
		step := func(what string, ops ...Op) bool {
			s, _ = s.Apply(ops)
			for _, op := range ops {
				if op.Remove != nil {
					k := 0
					for alive[k] != op.Remove {
						k++
					}
					alive = append(alive[:k:k], alive[k+1:]...)
				}
				if op.Add != nil {
					alive = append(alive, op.Add)
				}
			}
			return checkStep(t, seed, what, s, alive, queries)
		}
		nops := 20 + rng.Intn(60)
		for i := 0; i < nops; i++ {
			switch r := rng.Intn(8); {
			case r < 2 && len(alive) > 0:
				if !step("remove", Op{Remove: alive[rng.Intn(len(alive))]}) {
					return false
				}
			default:
				if !step("add", Op{Add: randomMember(rng)}) {
					return false
				}
			}
		}
		// Drain one member type until its extent empties, then let the type
		// appear again.
		d := randomMember(rng)
		if !step("add", Op{Add: d}) {
			return false
		}
		for k := len(alive) - 1; k >= 0; k-- {
			if alive[k].Interned() == d.Interned() {
				if !step("drain", Op{Remove: alive[k]}) {
					return false
				}
			}
		}
		if s.Extent(d.Interned()) != nil {
			t.Logf("seed %d: drained extent of %s still present", seed, d.Interned())
			return false
		}
		if !step("re-add", Op{Add: d}) {
			return false
		}
		// Index completeness: every member conforming to a record type
		// requiring the field is a candidate.
		for _, field := range []string{"Empno", "StudentID"} {
			cand, _ := s.Candidates(field)
			in := map[*dynamic.Dynamic]bool{}
			for _, e := range cand {
				in[e.Dyn] = true
			}
			ft := types.Intern(types.NewRecord(types.Field{Label: field, Type: types.Int}))
			for _, d := range refGet(alive, ft) {
				if !in[d] {
					t.Logf("seed %d: %v missing from %s candidates", seed, d, field)
					return false
				}
			}
		}
		// The one-pass Rebuild over the survivors agrees with the
		// incrementally maintained Set, and both index exactly the
		// members the covering rule admits, in insertion order.
		reb := Rebuild(alive, Def{Field: "StudentID"}, Def{Field: "Empno"})
		if !checkStep(t, seed, "rebuild", reb, alive, queries) {
			return false
		}
		for _, field := range []string{"Empno", "StudentID"} {
			want := refCandidates(alive, field)
			for _, set := range []*Set{s, reb} {
				cand, _ := set.Candidates(field)
				n, _ := set.CandidateCount(field)
				if err := sameDyns(cand, want); err != nil || n != len(want) {
					t.Logf("seed %d %s candidates: %v, count %d of %d", seed, field, err, n, len(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkStep holds every query of s against the reference scan over alive:
// the members and their order, the matched extent count, and MatchStats.
func checkStep(t *testing.T, seed int64, what string, s *Set, alive []*dynamic.Dynamic, queries []*types.Interned) bool {
	if s.Len() != len(alive) {
		t.Logf("seed %d after %s: Len = %d, want %d", seed, what, s.Len(), len(alive))
		return false
	}
	for _, q := range queries {
		got, matched := s.GetEntries(q)
		if err := sameDyns(got, refGet(alive, q)); err != nil {
			t.Logf("seed %d after %s: Get[%s]: %v", seed, what, q.Type(), err)
			return false
		}
		n, m := s.MatchStats(q)
		if want := refMatched(alive, q); matched != want || m != want || n != len(got) {
			t.Logf("seed %d after %s: Get[%s] matched %d, MatchStats (%d, %d), want %d extents and %d members",
				seed, what, q.Type(), matched, n, m, want, len(got))
			return false
		}
	}
	return true
}

// TestMemoHitAllocatesNothing: once a generation has answered a query
// type, looking its matching types up again allocates nothing, in the
// Set that filled the memo and in a successor of the same generation.
func TestMemoHitAllocatesNothing(t *testing.T) {
	members := mixed()
	s := addAll(NewSet(), members...)
	want := types.Intern(personT)
	s.matches(want)
	next, _ := s.Apply([]Op{{Add: dynamic.Make(person("P3", "Austin"))}})
	if next.gen != s.gen {
		t.Fatal("a member of an existing type started a new generation")
	}
	for _, set := range []*Set{s, next} {
		if n := testing.AllocsPerRun(100, func() { set.matches(want) }); n != 0 {
			t.Errorf("memo hit allocates %v times", n)
		}
	}
}

// TestConcurrentMaintenanceStress publishes successive Sets through an
// atomic pointer while readers query lock-free — the server's exact usage
// — and checks every observed snapshot is internally consistent while the
// writer keeps emptying and re-creating the employee extent, so readers
// race type generations. Run under -race (make race).
func TestConcurrentMaintenanceStress(t *testing.T) {
	var pub atomic.Pointer[Set]
	pub.Store(NewSet(Def{Field: "Empno"}))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	emp := types.Intern(employeeT)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := pub.Load()
				got, _ := s.GetEntries(emp)
				n, _ := s.MatchStats(emp)
				if n != len(got) {
					t.Errorf("reader %d: MatchStats %d != entries %d", r, n, len(got))
					return
				}
				for i := 1; i < len(got); i++ {
					if got[i-1].Seq >= got[i].Seq {
						t.Errorf("reader %d: out of order", r)
						return
					}
				}
				if cand, ok := s.Candidates("Empno"); ok {
					for i := 1; i < len(cand); i++ {
						if cand[i-1].Seq >= cand[i].Seq {
							t.Errorf("reader %d: candidates out of order", r)
							return
						}
					}
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	var alive []*dynamic.Dynamic
	for i := 0; i < 3000; i++ {
		s := pub.Load()
		if i%100 == 99 {
			// Empty the employee extent in one commit; later adds re-create it.
			var ops []Op
			kept := alive[:0:0]
			for _, d := range alive {
				if d.Interned() == emp {
					ops = append(ops, Op{Remove: d})
				} else {
					kept = append(kept, d)
				}
			}
			s, _ = s.Apply(ops)
			alive = kept
		} else if len(alive) > 64 || (len(alive) > 0 && rng.Intn(3) == 0) {
			k := rng.Intn(len(alive))
			s, _ = s.Apply([]Op{{Remove: alive[k]}})
			alive = append(alive[:k:k], alive[k+1:]...)
		} else {
			d := randomMember(rng)
			s, _ = s.Apply([]Op{{Add: d}})
			alive = append(alive, d)
		}
		pub.Store(s)
	}
	close(stop)
	wg.Wait()
	final := pub.Load()
	if final.Len() != len(alive) {
		t.Errorf("final Len = %d, want %d", final.Len(), len(alive))
	}
}
