package relation

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// genObject builds a random partial record over a small label pool so that
// subsumption and joins occur frequently.
func genObject(r *rand.Rand) value.Value {
	rec := value.NewRecord()
	for _, l := range []string{"A", "B", "C"} {
		switch r.Intn(3) {
		case 0:
			rec.Set(l, value.Int(int64(r.Intn(2))))
		case 1:
			rec.Set(l, value.Rec("X", value.Int(int64(r.Intn(2)))))
		}
	}
	return rec
}

// randRelation adapts a random generalized relation to testing/quick.
type randRelation struct{ R *Relation }

// Generate implements quick.Generator.
func (randRelation) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(6)
	rel := New()
	for i := 0; i < n; i++ {
		rel.Insert(genObject(r))
	}
	return reflect.ValueOf(randRelation{R: rel})
}

var quickCfg = &quick.Config{MaxCount: 300}

func TestQuickInsertPreservesCochain(t *testing.T) {
	f := func(a randRelation) bool { return a.R.IsCochain() }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinIsCochainAndUpperBound(t *testing.T) {
	f := func(a, b randRelation) bool {
		j := Join(a.R, b.R)
		if !j.IsCochain() {
			return false
		}
		if j.Len() == 0 {
			return true // empty join makes no bound claim
		}
		// Every member of the join is above some member of each input.
		return Leq(a.R, j) && Leq(b.R, j)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinCommutative(t *testing.T) {
	f := func(a, b randRelation) bool {
		return Equal(Join(a.R, b.R), Join(b.R, a.R))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickProjectIsCochain(t *testing.T) {
	f := func(a randRelation) bool {
		return Project(a.R, "A", "B").IsCochain()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionIsCochain(t *testing.T) {
	f := func(a, b randRelation) bool {
		return Union(a.R, b.R).IsCochain()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickInsertionOrderIrrelevant(t *testing.T) {
	// A cochain reached by inserting objects in any order is the same.
	f := func(a randRelation, seed int64) bool {
		members := a.R.Members()
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		return Equal(New(members...), a.R)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyedNeverComparable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := NewKeyed("A")
		for i := 0; i < 8; i++ {
			o := genObject(rng)
			if _, ok := o.(*value.Record).Get("A"); !ok {
				continue
			}
			rel.Insert(o) // errors allowed; invariant must hold regardless
		}
		return rel.IsCochain()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// insertFold is New's reference: the objects inserted one by one, with
// subsumption. subsumed reports whether an insert replaced a member.
func insertFold(objects []value.Value) (r *Relation, subsumed bool) {
	r = New()
	for _, o := range objects {
		if out, _ := r.Insert(o); out == Subsumed {
			subsumed = true
		}
	}
	return r, subsumed
}

// genExtent builds what a server extent may be, which is not a cochain:
// partial records with comparable pairs and both copied and
// pointer-identical duplicates. Some seeds give the records an Id, so that
// fewer are comparable; some give them a type-valued field, each built
// afresh as a decoder builds it, so that equal records hold distinct
// *TypeVals; and some mix in non-records, which send value.Maximal down its
// naive path.
func genExtent(rng *rand.Rand) []value.Value {
	ids, typed, mixed := rng.Intn(2) == 0, rng.Intn(3) == 0, rng.Intn(3) == 0
	others := []value.Value{value.Int(1), value.Bottom, value.NewSet(value.Int(0)), value.String("x")}
	var xs []value.Value
	for n := rng.Intn(70); len(xs) < n; {
		o := genObject(rng)
		if ids {
			o.(*value.Record).Set("Id", value.Int(int64(rng.Intn(24))))
		}
		if typed && rng.Intn(2) == 0 {
			o.(*value.Record).Set("T", value.NewTypeVal(types.Int))
		}
		if mixed && rng.Intn(8) == 0 {
			o = others[rng.Intn(len(others))]
		}
		xs = append(xs, o)
		switch rng.Intn(6) {
		case 0:
			xs = append(xs, value.Copy(o))
		case 1:
			xs = append(xs, o)
		}
	}
	return xs
}

// TestQuickNewEqualsInsertFold: New keeps what inserting the objects in
// order keeps — the same members, in input order when no insert subsumed
// one — and its index, built on first use, answers Contains, Insert,
// Delete and Equal as the fold's does.
func TestQuickNewEqualsInsertFold(t *testing.T) {
	keys := func(r *Relation) []string {
		ks := make([]string, r.Len())
		for i, m := range r.elems {
			ks[i] = value.Key(m)
		}
		sort.Strings(ks)
		return ks
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := genExtent(rng)
		got := New(xs...)
		want, subsumed := insertFold(xs)
		if !reflect.DeepEqual(keys(got), keys(want)) {
			t.Logf("seed %d: New has %v, the fold %v", seed, got, want)
			return false
		}
		if !subsumed {
			for i := range got.elems {
				if got.elems[i] != want.elems[i] {
					t.Logf("seed %d: member %d is %s, the fold's %s", seed, i, got.elems[i], want.elems[i])
					return false
				}
			}
		}
		probe := genObject(rng)
		if len(xs) > 0 && rng.Intn(2) == 0 {
			probe = xs[rng.Intn(len(xs))]
		}
		if New(xs...).Contains(probe) != want.Contains(probe) {
			t.Logf("seed %d: Contains(%s) differs", seed, probe)
			return false
		}
		a, b := New(xs...), New(xs...)
		fa, _ := insertFold(xs)
		fb, _ := insertFold(xs)
		ao, aerr := a.Insert(probe)
		fo, ferr := fa.Insert(probe)
		if ao != fo || aerr != nil || ferr != nil || !reflect.DeepEqual(keys(a), keys(fa)) {
			t.Logf("seed %d: Insert(%s) = %v, %v; the fold's %v, %v", seed, probe, ao, aerr, fo, ferr)
			return false
		}
		if b.Delete(probe) != fb.Delete(probe) || !reflect.DeepEqual(keys(b), keys(fb)) {
			t.Logf("seed %d: Delete(%s) differs", seed, probe)
			return false
		}
		return Equal(New(xs...), want) && Equal(want, New(xs...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// maximaNaive is the maximal elements of xs by the quadratic definition,
// in input order, the first occurrence kept of objects each ⊑ the other.
func maximaNaive(xs []value.Value) []value.Value {
	var out []value.Value
	for i, x := range xs {
		kept := true
		for j, y := range xs {
			if i != j && value.Leq(x, y) && (!value.Leq(y, x) || j < i) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, x)
		}
	}
	return out
}

// sameSequence reports whether a and b hold the same objects in the same
// order.
func sameSequence(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// genKeyed builds n records with pairwise distinct Int atoms at key, the
// rest of each drawn by genObject (so members would be comparable without
// the key), over labels from extra. With late set, the last record repeats
// the key atom of one in the middle, so no key holds and the probe fails
// at the last member.
func genKeyed(rng *rand.Rand, n int, key string, extra []string, late bool) []value.Value {
	xs := make([]value.Value, n)
	for i, k := range rng.Perm(n) {
		rec := genObject(rng).(*value.Record)
		rec.Set(key, value.Int(int64(k)))
		for _, l := range extra {
			if rng.Intn(2) == 0 {
				rec.Set(l, value.Int(int64(rng.Intn(3))))
			}
		}
		xs[i] = rec
	}
	if late && n > 2 {
		xs[n-1].(*value.Record).Set(key, xs[n/2].(*value.Record).MustGet(key))
	}
	return xs
}

// TestQuickNewEqualsMaxima: on extents with a key and without one, New
// keeps exactly the maximal objects the quadratic definition keeps, in
// the same order; the key probe changes only how they are found.
func TestQuickNewEqualsMaxima(t *testing.T) {
	keyed := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var xs []value.Value
		switch rng.Intn(3) {
		case 0:
			xs = genExtent(rng)
		default:
			xs = genKeyed(rng, rng.Intn(70), "Id", []string{"Dept"}, rng.Intn(3) == 0)
		}
		got := New(xs...)
		if got.keyedOn != "" {
			keyed++
			if !sameSequence(got.elems, xs) {
				t.Logf("seed %d: New proved a key on %s but dropped or moved members", seed, got.keyedOn)
				return false
			}
		}
		if want := maximaNaive(xs); !sameSequence(got.elems, want) {
			t.Logf("seed %d: New has %v, the quadratic maxima %v", seed, got.elems, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if keyed < 100 {
		t.Errorf("only %d of 400 extents proved keyed", keyed)
	}
}

// TestQuickKeyedJoinPairs: with both sides proved keyed (on Id and on
// Dept, each side carrying the other's key label on some members), the
// join under every plan is a cochain already: it equals New of its own
// members as a sequence, and the quadratic maxima of them. Each member is
// the join of the pair JoinPairs reports, and the members are those of
// the join over every pair.
func TestQuickKeyedJoinPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(genKeyed(rng, 1+rng.Intn(30), "Id", []string{"Dept"}, false)...)
		s := New(genKeyed(rng, 1+rng.Intn(8), "Dept", []string{"Id"}, false)...)
		if r.keyedOn == "" || s.keyedOn == "" {
			t.Logf("seed %d: sides keyed on %q and %q", seed, r.keyedOn, s.keyedOn)
			return false
		}
		var all []value.Value
		for _, a := range r.elems {
			for _, b := range s.elems {
				if j, err := value.Join(a, b); err == nil {
					all = append(all, j)
				}
			}
		}
		want := New(maximaNaive(all)...)
		plans := []JoinPlan{{}, PlanJoin(r, s)}
		for _, l := range sharedLabels(r, s) {
			plans = append(plans, JoinPlan{Attr: l}, JoinPlan{Attr: l, BuildRight: true})
		}
		for _, p := range plans {
			got, pairs := JoinPairs(r, s, p)
			planned := JoinPlanned(r, s, p).elems
			same := len(planned) == got.Len()
			for i := 0; same && i < len(planned); i++ {
				same = value.Equal(planned[i], got.elems[i])
			}
			if !same {
				t.Logf("seed %d, plan %+v: JoinPlanned and JoinPairs differ", seed, p)
				return false
			}
			if !sameSequence(New(got.elems...).elems, got.elems) || !sameSequence(maximaNaive(got.elems), got.elems) {
				t.Logf("seed %d, plan %+v: the keyed join %v is not a cochain", seed, p, got.elems)
				return false
			}
			for i, m := range got.elems {
				if j, err := value.Join(r.elems[pairs[i][0]], s.elems[pairs[i][1]]); err != nil || !value.Equal(j, m) {
					t.Logf("seed %d, plan %+v: member %s is not the join of its pair %v", seed, p, m, pairs[i])
					return false
				}
			}
			if !Equal(got, want) {
				t.Logf("seed %d, plan %+v: %v, want %v", seed, p, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
