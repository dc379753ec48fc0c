package value

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dbpl/internal/types"
)

// genInts and genFloats are the atom pools of genValue: small values that
// collide often, plus the edges where equality by value and equality by
// key could part — the most negative Int, both zeros, NaN and infinities.
var (
	genInts   = []int64{0, 1, 2, math.MinInt64}
	genFloats = []float64{0, 1, 2, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
)

// genValue builds a random value of bounded depth. Labels are drawn from a
// small pool so that random records are frequently comparable — the
// interesting regime for ⊑ and ⊔.
func genValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return Int(genInts[r.Intn(len(genInts))])
		case 1:
			return Float(genFloats[r.Intn(len(genFloats))])
		case 2:
			return String([]string{"x", "y"}[r.Intn(2)])
		case 3:
			return Bool(r.Intn(2) == 0)
		case 4:
			return Unit
		case 5:
			return Bottom
		default:
			return Rec()
		}
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		labels := []string{"A", "B", "C", "D"}
		rec := NewRecord()
		for _, l := range labels {
			if r.Intn(2) == 0 {
				rec.Set(l, genValue(r, depth-1))
			}
		}
		return rec
	case 3:
		n := r.Intn(3)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = genValue(r, depth-1)
		}
		return NewList(elems...)
	case 4:
		n := r.Intn(3)
		s := NewSet()
		for i := 0; i < n; i++ {
			s.Add(genValue(r, depth-1))
		}
		return s
	case 5:
		return NewTag([]string{"P", "Q"}[r.Intn(2)], genValue(r, depth-1))
	default:
		return genValue(r, 0)
	}
}

// randValue adapts genValue to testing/quick.
type randValue struct{ V Value }

// Generate implements quick.Generator.
func (randValue) Generate(r *rand.Rand, size int) reflect.Value {
	d := size
	if d > 3 {
		d = 3
	}
	return reflect.ValueOf(randValue{V: genValue(r, d)})
}

var quickCfg = &quick.Config{MaxCount: 500}

func TestQuickLeqReflexive(t *testing.T) {
	f := func(a randValue) bool { return Leq(a.V, a.V) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickBottomBelowAll(t *testing.T) {
	f := func(a randValue) bool { return Leq(Bottom, a.V) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLeqAntisymmetricUpToEqual(t *testing.T) {
	f := func(a, b randValue) bool {
		if Leq(a.V, b.V) && Leq(b.V, a.V) {
			// Mutually comparable records must have the same fields; for
			// non-set values this means structural equality. (Sets are
			// ordered by the relation preorder, which is not antisymmetric:
			// {⊥, x} and {⊥} are mutually below each other.)
			if a.V.Kind() == KindSet || b.V.Kind() == KindSet || containsSet(a.V) || containsSet(b.V) {
				return true
			}
			return Equal(a.V, b.V)
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func containsSet(v Value) bool {
	switch vv := v.(type) {
	case *Set:
		return true
	case *Record:
		found := false
		vv.Each(func(_ string, f Value) { found = found || containsSet(f) })
		return found
	case *List:
		for _, e := range vv.Elems {
			if containsSet(e) {
				return true
			}
		}
		return false
	case *Tag:
		return containsSet(vv.Payload)
	default:
		return false
	}
}

func TestQuickJoinUpperBound(t *testing.T) {
	f := func(a, b randValue) bool {
		j, err := Join(a.V, b.V)
		if err != nil {
			return true // partiality: a failed join claims nothing
		}
		return Leq(a.V, j) && Leq(b.V, j)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinCommutative(t *testing.T) {
	f := func(a, b randValue) bool {
		j1, e1 := Join(a.V, b.V)
		j2, e2 := Join(b.V, a.V)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		return e1 != nil || Equal(j1, j2)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinIdempotent(t *testing.T) {
	// Idempotence holds for set-free values. For sets the join is the
	// generalized *natural join*, which can merge compatible incomparable
	// members of a relation with themselves: {{A=1},{B=2}} ⋈ itself yields
	// {{A=1,B=2}} — exactly natural-join semantics, tested separately.
	f := func(a randValue) bool {
		if containsSet(a.V) {
			return true
		}
		j, err := Join(a.V, a.V)
		return err == nil && Equal(j, a.V)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestSetSelfJoinMergesCompatible(t *testing.T) {
	s := NewSet(Rec("A", Int(1)), Rec("B", Int(2)))
	j := SetJoin(s, s)
	want := NewSet(Rec("A", Int(1), "B", Int(2)))
	if !Equal(j, want) {
		t.Errorf("self-join = %s, want %s", j, want)
	}
	// On a relation whose members pairwise conflict (a keyed relation),
	// self-join is the identity, as for the classical natural join.
	keyed := NewSet(
		Rec("Name", String("J Doe"), "Dept", String("Sales")),
		Rec("Name", String("M Dee"), "Dept", String("Manuf")),
	)
	if !Equal(SetJoin(keyed, keyed), keyed) {
		t.Error("self-join of a keyed relation should be the identity")
	}
}

func TestQuickJoinDefinedIffUpperBoundForRecords(t *testing.T) {
	// For set-free values, Leq(a, b) implies Join(a, b) = b.
	f := func(a, b randValue) bool {
		if containsSet(a.V) || containsSet(b.V) {
			return true
		}
		if !Leq(a.V, b.V) {
			return true
		}
		j, err := Join(a.V, b.V)
		return err == nil && Equal(j, b.V)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinAssociative(t *testing.T) {
	// For set-free values ⊔ is associative where defined: if both
	// groupings are defined they agree; and mixed definedness implies a
	// conflict exists in the triple either way.
	f := func(a, b, c randValue) bool {
		if containsSet(a.V) || containsSet(b.V) || containsSet(c.V) {
			return true
		}
		l1, e1 := Join(a.V, b.V)
		var left Value
		var leftErr error
		if e1 == nil {
			left, leftErr = Join(l1, c.V)
		} else {
			leftErr = e1
		}
		r1, e2 := Join(b.V, c.V)
		var right Value
		var rightErr error
		if e2 == nil {
			right, rightErr = Join(a.V, r1)
		} else {
			rightErr = e2
		}
		if leftErr == nil && rightErr == nil {
			return Equal(left, right)
		}
		// One side failing while the other succeeds cannot happen for the
		// record/atom domain: both orders must detect the same conflicts.
		return (leftErr == nil) == (rightErr == nil)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLeqTransitive(t *testing.T) {
	// Build comparable chains explicitly: a ⊑ a⊔x ⊑ (a⊔x)⊔y when defined.
	f := func(a, x, y randValue) bool {
		if containsSet(a.V) || containsSet(x.V) || containsSet(y.V) {
			return true
		}
		b, err := Join(a.V, x.V)
		if err != nil {
			return true
		}
		c, err := Join(b, y.V)
		if err != nil {
			return true
		}
		return Leq(a.V, b) && Leq(b, c) && Leq(a.V, c)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMeetLowerBound(t *testing.T) {
	f := func(a, b randValue) bool {
		if containsSet(a.V) || containsSet(b.V) {
			return true // meet is not defined pointwise for sets
		}
		m := Meet(a.V, b.V)
		return Leq(m, a.V) && Leq(m, b.V)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualMatchesKey(t *testing.T) {
	// Every pair of components of a and b is compared, so atoms nested
	// anywhere meet each other: that is where 0.0 meets -0.0.
	f := func(a, b randValue) bool {
		parts := components(b.V, components(a.V, nil))
		for _, x := range parts {
			for _, y := range parts {
				if Equal(x, y) != (Key(x) == Key(y)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// components appends v and every value nested in it to dst.
func components(v Value, dst []Value) []Value {
	dst = append(dst, v)
	switch vv := v.(type) {
	case *Record:
		vv.Each(func(_ string, f Value) { dst = components(f, dst) })
	case *List:
		for _, e := range vv.Elems {
			dst = components(e, dst)
		}
	case *Set:
		vv.Each(func(e Value) { dst = components(e, dst) })
	case *Tag:
		dst = components(vv.Payload, dst)
	}
	return dst
}

func TestQuickCopyEqualAndIndependent(t *testing.T) {
	f := func(a randValue) bool {
		cp := Copy(a.V)
		if !Equal(cp, a.V) {
			return false
		}
		if rec, ok := cp.(*Record); ok {
			rec.Set("ZZZ_fresh", Int(1))
			if orig, ok := a.V.(*Record); ok {
				if _, present := orig.Get("ZZZ_fresh"); present {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSharedLabelsIndependent: records built by recordOf over one
// labels slice, as a reply decoder builds them, stay independent. Random
// Set and Delete sequences on one record leave every other record equal to
// its snapshot, and leave the edited record equal to the same edits on a
// record built by Set.
func TestQuickSharedLabelsIndependent(t *testing.T) {
	pool := []string{"A", "B", "C", "D", "E"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var labels []string
		for _, l := range pool {
			if r.Intn(3) > 0 {
				labels = append(labels, l)
			}
		}
		recs := make([]Record, 1+r.Intn(4))
		snaps := make([]*Record, len(recs))
		for i := range recs {
			vals := make([]Value, len(labels))
			for j := range vals {
				vals[j] = genValue(r, 1)
			}
			recordOf(&recs[i], labels, vals)
			snaps[i] = recs[i].Copy()
		}
		edit := r.Intn(len(recs))
		model := snaps[edit].Copy()
		for k := r.Intn(8); k > 0; k-- {
			l := pool[r.Intn(len(pool))]
			if r.Intn(2) == 0 {
				v := genValue(r, 1)
				recs[edit].Set(l, v)
				model.Set(l, v)
			} else if recs[edit].Delete(l) != model.Delete(l) {
				return false
			}
		}
		for i := range recs {
			want := snaps[i]
			if i == edit {
				want = model
			}
			if !Equal(&recs[i], want) || recs[i].Shape() != want.Shape() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// recordOf is the record a RecordDecoder ends with after reading labels
// in order with values: initRecord over the labels' key. r keeps values
// itself, capped at its length.
func recordOf(r *Record, labels []string, values []Value) *Record {
	var buf [keyScratch]byte
	return initRecord(r, appendLabels(buf[:0], labels), values)
}

// TestInitRecordOutOfOrder: labels out of order, repeated ones included,
// build the record Set would build.
func TestInitRecordOutOfOrder(t *testing.T) {
	labels := []string{"B", "A", "B"}
	got := recordOf(&Record{}, labels, []Value{Int(1), Int(2), Int(3)})
	want := Rec("B", Int(1), "A", Int(2), "B", Int(3))
	if !Equal(got, want) || got.Shape() != want.Shape() {
		t.Fatalf("recordOf out of order = %v, want %v", got, want)
	}
	if labels[0] != "B" || labels[1] != "A" {
		t.Fatalf("recordOf reordered its caller's labels: %v", labels)
	}
}

// TestInitShaped: InternShape gives the shape a record of those labels
// has, or nil for labels out of order, and InitShaped over it builds the
// record recordOf builds, keeping the values it was given.
func TestInitShaped(t *testing.T) {
	labels, vals := []string{"A", "B", "C"}, []Value{Int(1), String("b"), Float(0.5)}
	want := recordOf(&Record{}, labels, slices.Clone(vals))
	s := InternShape(labels)
	got := InitShaped(&Record{}, s, vals)
	if s != want.Shape() || got.Shape() != s || !Equal(got, want) {
		t.Fatalf("InitShaped = %v, want %v at one shape", got, want)
	}
	if got.values[0] = Int(9); vals[0] != Int(9) {
		t.Fatal("InitShaped copied its values")
	}
	if s := InternShape([]string{"B", "A"}); s != nil {
		t.Fatalf("InternShape of labels out of order = %v, want nil", s.labels)
	}
}

func TestQuickTypeOfRespectsLeq(t *testing.T) {
	// More informative set-free, ⊥-free objects have smaller (more
	// specific) record types: o ⊑ o' on records implies TypeOf(o') ≤
	// TypeOf(o) — the paper's observation that the object order is the
	// reverse of the type order. (⊥-containing objects are excluded:
	// TypeOf(⊥) = Bottom, so refining ⊥ to any proper value moves the type
	// *up*, not down — ⊥ is "no information", not "every information".)
	f := func(a, b randValue) bool {
		ra, ok1 := a.V.(*Record)
		rb, ok2 := b.V.(*Record)
		if !ok1 || !ok2 || containsSet(ra) || containsSet(rb) ||
			containsBottom(ra) || containsBottom(rb) {
			return true
		}
		if !Leq(ra, rb) {
			return true
		}
		return types.Subtype(TypeOf(rb), TypeOf(ra))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func containsBottom(v Value) bool {
	switch vv := v.(type) {
	case bottomValue:
		return true
	case *Record:
		found := false
		vv.Each(func(_ string, f Value) { found = found || containsBottom(f) })
		return found
	case *List:
		for _, e := range vv.Elems {
			if containsBottom(e) {
				return true
			}
		}
		// An empty list types as List[Bottom]: the same caveat applies.
		return len(vv.Elems) == 0
	case *Tag:
		return containsBottom(vv.Payload)
	default:
		return false
	}
}

func TestQuickConformsOwnType(t *testing.T) {
	f := func(a randValue) bool { return Conforms(a.V, TypeOf(a.V)) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMaximalFastEqualsNaive(t *testing.T) {
	// The signature/discriminator-pruned Maximal must agree with the naive
	// O(n²) definition on record-only inputs large enough to take the fast
	// path, including comparable chains and duplicates. Half the seeds draw
	// nested records, where a set-valued field makes members each ⊑ the
	// other without being equal. The other half draw flat records of atoms
	// from the genValue pools (NaN, both zeros, infinities, strings, type
	// values) with A the least discriminating label, and on some seeds a
	// wide Z: there the group buckets on a label other than its first. Type
	// values are built afresh each time, and one kind of duplicate rebuilds
	// them, so equal records hold distinct *TypeVals; no two survivors may
	// be Equal.
	sets := []Value{NewSet(Rec()), NewSet(Rec(), Rec("X", Int(0)))} // each ⊑ the other
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		atom := func() Value {
			switch rng.Intn(4) {
			case 0:
				return Int(genInts[rng.Intn(len(genInts))])
			case 1:
				return Float(genFloats[rng.Intn(len(genFloats))])
			case 2:
				return NewTypeVal(types.Int)
			default:
				return String([]string{"", "x", "y"}[rng.Intn(3)])
			}
		}
		flat, wide := rng.Intn(2) == 0, rng.Intn(3) == 0
		var vs []Value
		n := 40 + rng.Intn(30)
		for i := 0; i < n; i++ {
			rec := NewRecord()
			for _, l := range []string{"A", "B", "C", "D"} {
				if flat {
					if l == "A" {
						rec.Set(l, Bool(rng.Intn(2) == 0))
					} else {
						rec.Set(l, atom())
					}
					continue
				}
				switch rng.Intn(6) {
				case 0:
					rec.Set(l, Int(int64(rng.Intn(3))))
				case 1:
					rec.Set(l, Rec("X", Int(int64(rng.Intn(2)))))
				case 2:
					rec.Set(l, Rec("X", Int(int64(rng.Intn(2))), "Y", Int(int64(rng.Intn(2)))))
				case 3:
					rec.Set(l, atom())
				case 4:
					rec.Set(l, sets[rng.Intn(2)])
				}
			}
			if wide {
				rec.Set("Z", Int(int64(rng.Intn(n))))
			}
			vs = append(vs, rec)
			switch rng.Intn(6) { // inject duplicates
			case 0:
				vs = append(vs, Copy(rec))
			case 1:
				vs = append(vs, rec) // the same *Record twice
			case 2:
				vs = append(vs, rebuilt(rec))
			}
		}
		fast := Maximal(vs)
		if !distinct(fast) {
			return false
		}
		naive := maximalNaive(vs)
		if len(fast) != len(naive) {
			return false
		}
		for i := range fast {
			if fast[i] != vs[naive[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// rebuilt copies rec with each type-valued field built afresh: equal to
// rec, but sharing no *TypeVal with it.
func rebuilt(rec *Record) *Record {
	out := NewRecord()
	rec.Each(func(l string, v Value) {
		if tv, ok := v.(*TypeVal); ok {
			v = NewTypeVal(tv.T)
		}
		out.Set(l, v)
	})
	return out
}

// distinct reports whether no two of vs are Equal.
func distinct(vs []Value) bool {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if Equal(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// fuzzRecords decodes data into at most 64 records. A byte from 0xf0 up
// repeats an earlier *Record; any other byte starts a record whose low four
// bits say which of A–D it holds, each taking the next byte as an index into
// a pool of atoms (NaN and both zeros among them), ⊥, a record, two sets
// each ⊑ the other and two separately built, equal type values.
func fuzzRecords(data []byte) []Value {
	pool := []Value{Int(0), Int(1), Int(math.MinInt64), Float(0), Float(math.Copysign(0, -1)),
		Float(math.NaN()), Float(math.Inf(1)), String(""), String("x"), Bool(true), Bottom,
		Rec("X", Int(0)), NewSet(Rec()), NewSet(Rec(), Rec("X", Int(0))),
		NewTypeVal(types.Int), NewTypeVal(types.Int)}
	var vs []Value
	for len(data) > 0 && len(vs) < 64 {
		b := data[0]
		data = data[1:]
		if b >= 0xf0 && len(vs) > 0 {
			vs = append(vs, vs[int(b&0x0f)%len(vs)])
			continue
		}
		rec := NewRecord()
		for i, l := range []string{"A", "B", "C", "D"} {
			if b&(1<<i) != 0 && len(data) > 0 {
				rec.Set(l, pool[int(data[0])%len(pool)])
				data = data[1:]
			}
		}
		vs = append(vs, rec)
	}
	return vs
}

// FuzzMaximal checks Maximal, and the record path it takes past 32 inputs,
// against maximalNaive on records decoded from the fuzzer's bytes. The
// survivors must be the same *Records in the same order, no two Equal; and
// when keyLabel proves the input a cochain, they are the input itself.
func FuzzMaximal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0f, 1, 2, 3, 4, 0x03, 1, 2, 0xf0})
	f.Add([]byte{0x01, 14, 0x01, 15}) // {A = type(Int)} twice, type values apart
	// 40 {A = NaN, B = NaN, C, D}, every other one repeated.
	var nan []byte
	for i := 0; i < 40; i++ {
		nan = append(nan, 0x0f, 5, 5, byte(i), byte(i/3), 0xf0|byte(i%16))
	}
	f.Add(nan)
	// 11 {A = 1, B}, the atoms at B distinct but for the tenth, which
	// repeats the fifth; keyLabel's sample reads neither, so the probe on B
	// fails late.
	var late []byte
	for _, b := range []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 9} {
		late = append(late, 0x03, 1, b)
	}
	f.Add(late)
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := fuzzRecords(data)
		want := maximalNaive(vs)
		if !distinct(pick(vs, want)) {
			t.Fatalf("maximalNaive keeps Equal survivors: %v", pick(vs, want))
		}
		if _, ok := keyLabel(vs); ok && len(want) != len(vs) {
			t.Fatalf("keyLabel proves %v a cochain, but maximalNaive keeps %d of its %d", vs, len(want), len(vs))
		}
		for _, got := range [][]Value{Maximal(vs), pick(vs, maximalRecords(vs))} {
			if len(got) != len(want) {
				t.Fatalf("%d survivors, maximalNaive has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != vs[want[i]] {
					t.Fatalf("survivor %d is %s, maximalNaive has %s", i, got[i], vs[want[i]])
				}
			}
		}
	})
}

// pick returns vs at the positions keep.
func pick(vs []Value, keep []int) []Value {
	out := make([]Value, len(keep))
	for i, k := range keep {
		out[i] = vs[k]
	}
	return out
}

func TestQuickMaximalIsCochain(t *testing.T) {
	f := func(a, b, c randValue) bool {
		out := Maximal([]Value{a.V, b.V, c.V})
		for i, x := range out {
			for j, y := range out {
				if i != j && Leq(x, y) && !Leq(y, x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
