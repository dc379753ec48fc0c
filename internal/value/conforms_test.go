package value_test

import (
	"math/rand"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// The conformance walk (ConformsInterned) must give exactly the verdict of
// the reference expression Intern(TypeOf(v)) ⊑ t on every value and type,
// cyclic values included. These tests hold it to that.

// reference is the expression ConformsInterned's walk replaces.
func reference(v value.Value, t types.Type) bool {
	return types.SubtypeInterned(types.Intern(value.TypeOf(v)), types.Intern(t))
}

var labels = []string{"A", "B", "C", "D"}

// genVal builds a random value of bounded depth: every atom kind, records
// over a small label pool, empty, homogeneous and heterogeneous lists and
// sets, tags, type values and dynamics.
func genVal(r *rand.Rand, depth int) value.Value {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(9) {
		case 0:
			return value.Int(r.Intn(3))
		case 1:
			return value.Float(r.Intn(3))
		case 2:
			return value.String("x")
		case 3:
			return value.Bool(r.Intn(2) == 0)
		case 4:
			return value.Unit
		case 5:
			return value.Bottom
		case 6:
			return value.NewTypeVal(genType(r, 1))
		default:
			return value.NewRecord()
		}
	}
	switch r.Intn(7) {
	case 0, 1, 2:
		rec := value.NewRecord()
		for _, l := range labels {
			if r.Intn(2) == 0 {
				rec.Set(l, genVal(r, depth-1))
			}
		}
		return rec
	case 3:
		l := value.NewList()
		for i, n := 0, r.Intn(4); i < n; i++ {
			l.Append(genVal(r, depth-1))
		}
		return l
	case 4:
		s := value.NewSet()
		for i, n := 0, r.Intn(4); i < n; i++ {
			s.Add(genVal(r, depth-1))
		}
		return s
	case 5:
		return value.NewTag([]string{"P", "Q"}[r.Intn(2)], genVal(r, depth-1))
	default:
		inner := genVal(r, depth-1)
		if d, err := dynamic.MakeAt(inner, genType(r, 1)); err == nil {
			return d
		}
		return dynamic.Make(inner)
	}
}

// recursiveTypes are the forms the walk leaves to the reference, plus a
// recursive record type a generated record can inhabit.
var recursiveTypes = []types.Type{
	types.MustParse("rec t . {A: Int, B: List[t]}"),
	types.MustParse("rec t . {A: t}"),
	types.MustParse("forall t . t -> t"),
	types.MustParse("exists t <= {A: Int} . t"),
	types.NewVar("t"),
}

var basics = []types.Type{types.Int, types.Float, types.String, types.Bool, types.Unit,
	types.Top, types.Bottom, types.Dynamic, types.TypeRep}

// genType builds a random type of bounded depth over the same label pool.
func genType(r *rand.Rand, depth int) types.Type {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(8) == 0 {
			return recursiveTypes[r.Intn(len(recursiveTypes))]
		}
		return basics[r.Intn(len(basics))]
	}
	switch r.Intn(5) {
	case 0, 1:
		var fs []types.Field
		for _, l := range labels {
			if r.Intn(3) == 0 {
				fs = append(fs, types.Field{Label: l, Type: genType(r, depth-1)})
			}
		}
		return types.NewRecord(fs...)
	case 2:
		return types.NewList(genType(r, depth-1))
	case 3:
		return types.NewSet(genType(r, depth-1))
	default:
		var fs []types.Field
		for _, l := range []string{"P", "Q"} {
			if r.Intn(2) == 0 {
				fs = append(fs, types.Field{Label: l, Type: genType(r, depth-1)})
			}
		}
		return types.NewVariant(fs...)
	}
}

// typeNear returns a type close to v's own, so verdicts split between true
// and false: v's type unrolled a few levels (cycles included), then mutated
// — a subterm widened to Top or Float, a field dropped or added, or a
// subterm replaced by a random type.
func typeNear(r *rand.Rand, v value.Value, depth int) types.Type {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return types.Top
		}
		return types.NewRecord()
	}
	switch r.Intn(12) {
	case 0:
		return types.Top
	case 1:
		return genType(r, 2)
	}
	switch vv := v.(type) {
	case *value.Record:
		var fs []types.Field
		vv.Each(func(l string, f value.Value) {
			if r.Intn(5) > 0 {
				fs = append(fs, types.Field{Label: l, Type: typeNear(r, f, depth-1)})
			}
		})
		if r.Intn(6) == 0 {
			fs = append(fs, types.Field{Label: "Z", Type: types.Int})
		}
		return types.NewRecord(fs...)
	case *value.List:
		return types.NewList(elemsNear(r, vv.Elems, depth))
	case *value.Set:
		return types.NewSet(elemsNear(r, vv.Elems(), depth))
	case *value.Tag:
		fs := []types.Field{{Label: vv.Label, Type: typeNear(r, vv.Payload, depth-1)}}
		if r.Intn(2) == 0 {
			other := map[string]string{"P": "Q", "Q": "P"}[vv.Label]
			fs = append(fs, types.Field{Label: other, Type: types.Int})
		}
		return types.NewVariant(fs...)
	case value.Int:
		if r.Intn(2) == 0 {
			return types.Float
		}
	}
	return value.TypeOf(v)
}

func elemsNear(r *rand.Rand, elems []value.Value, depth int) types.Type {
	if len(elems) == 0 {
		return genType(r, 1)
	}
	return typeNear(r, elems[r.Intn(len(elems))], depth-1)
}

// tangle adds random edges between the containers of v — field k of a
// record, or a new last element of a list, set to a record or list, itself
// included — producing shared substructure, self- and mutually-cyclic
// records, and cycles of lists alone.
func tangle(r *rand.Rand, v value.Value) {
	var recs []*value.Record
	var lists []*value.List
	var all []value.Value
	seen := map[value.Value]bool{}
	var collect func(value.Value)
	collect = func(v value.Value) {
		switch vv := v.(type) {
		case *value.Record:
			if seen[vv] {
				return
			}
			seen[vv] = true
			recs, all = append(recs, vv), append(all, vv)
			vv.Each(func(_ string, f value.Value) { collect(f) })
		case *value.List:
			if seen[vv] {
				return
			}
			seen[vv] = true
			lists, all = append(lists, vv), append(all, vv)
			for _, e := range vv.Elems {
				collect(e)
			}
		case *value.Tag:
			collect(vv.Payload)
		}
	}
	collect(v)
	for i, n := 0, 1+r.Intn(2); i < n && len(all) > 0; i++ {
		to := all[r.Intn(len(all))]
		if len(lists) > 0 && (len(recs) == 0 || r.Intn(3) == 0) {
			lists[r.Intn(len(lists))].Append(to)
		} else {
			recs[r.Intn(len(recs))].Set(labels[r.Intn(len(labels))], to)
		}
	}
}

func TestConformsWalkMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	agree, trueVerdicts := 0, 0
	for i := 0; i < 20000; i++ {
		v := genVal(r, 4)
		if r.Intn(4) == 0 {
			tangle(r, v)
		}
		var ty types.Type
		if r.Intn(3) == 0 {
			ty = genType(r, 3)
		} else {
			ty = typeNear(r, v, 4)
		}
		got, want := value.ConformsInterned(v, types.Intern(ty)), reference(v, ty)
		if got != want {
			// A cyclic value does not print; its type, Top at back edges, does.
			t.Fatalf("case %d: ConformsInterned(v : %s, %s) = %v, reference says %v", i, value.TypeOf(v), ty, got, want)
		}
		agree++
		if want {
			trueVerdicts++
		}
	}
	// The generator must exercise both verdicts, or agreement means little.
	if trueVerdicts < agree/10 || trueVerdicts > agree*9/10 {
		t.Fatalf("%d of %d verdicts true: the generator is lopsided", trueVerdicts, agree)
	}
}

// TestConformsCyclicKeepsVerdict pins the cyclic cases by hand: TypeOf types
// a back edge as Top, so the walk must not accept what the reference
// refuses — including through a cycle the walk itself never enters.
func TestConformsCyclicKeepsVerdict(t *testing.T) {
	self := value.NewRecord()
	self.Set("self", self)

	// r1 and r2 point at each other; v reaches r1 first, so TypeOf types
	// r2 while r1 is in progress and gives r2.q the type Top. A walk of
	// v.b.q against {} would meet no record twice.
	r1, r2 := value.NewRecord(), value.NewRecord()
	r1.Set("p", r2)
	r2.Set("q", r1)
	v := value.Rec("a", r1, "b", r2)

	cases := []struct {
		v    value.Value
		t    string
		want bool
	}{
		{self, "{self: {self: {}}}", false},
		{self, "{self: {}}", false},
		{self, "{self: Top}", true},
		{self, "{}", true},
		{v, "{b: {q: {}}}", false},
		{v, "{a: {p: {q: Top}}}", true},
		{v, "{a: {p: {}}}", true},
		{v, "{c: Int}", false},
	}
	for _, c := range cases {
		ty := types.MustParse(c.t)
		if ref := reference(c.v, ty); ref != c.want {
			t.Fatalf("reference(%s) = %v, the case expects %v", c.t, ref, c.want)
		}
		if got := value.ConformsInterned(c.v, types.Intern(ty)); got != c.want {
			t.Errorf("ConformsInterned(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestConformsListJoin pins the list rule on the Int ≤ Float mix and the
// empty and heterogeneous lists.
func TestConformsListJoin(t *testing.T) {
	mixed := value.NewList(value.Int(1), value.Float(2))
	cases := []struct {
		v    value.Value
		t    string
		want bool
	}{
		{mixed, "List[Float]", true},
		{mixed, "List[Int]", false},
		{mixed, "Set[Float]", false},
		{value.NewList(), "List[{A: Int}]", true},
		{value.NewList(value.Int(1), value.String("x")), "List[Top]", true},
		{value.NewList(value.Int(1), value.String("x")), "List[Int]", false},
		{value.NewSet(value.Rec("A", value.Int(1)), value.Rec("A", value.Int(2), "B", value.Bool(true))), "Set[{A: Int}]", true},
		{value.NewTag("P", value.Int(1)), "[P: Float, Q: Int]", true},
		{value.NewTag("P", value.Int(1)), "[Q: Int]", false},
		{value.Bottom, "{A: Int}", true},
		{value.Unit, "Unit", true},
		{value.Unit, "{}", false},
	}
	for _, c := range cases {
		ty := types.MustParse(c.t)
		if ref := reference(c.v, ty); ref != c.want {
			t.Fatalf("reference(%s, %s) = %v, the case expects %v", c.v, c.t, ref, c.want)
		}
		if got := value.ConformsInterned(c.v, types.Intern(ty)); got != c.want {
			t.Errorf("ConformsInterned(%s, %s) = %v, want %v", c.v, c.t, got, c.want)
		}
	}

	// Join gives up past a fixed depth of structure and widens to Top, so
	// two records that differ only 70 levels down join to a type the deep
	// list type does not contain — though each element conforms to it.
	deep := func(leaf value.Value) value.Value {
		v := leaf
		for i := 0; i < 70; i++ {
			v = value.Rec("A", v)
		}
		return v
	}
	pair := value.NewList(deep(value.Rec("B", value.Int(1))), deep(value.Rec("C", value.Int(1))))
	ty := types.NewList(value.TypeOf(deep(value.NewRecord())))
	if ref := reference(pair, ty); ref {
		t.Fatal("reference accepts the deep list; the case no longer tests the widening")
	}
	if value.ConformsInterned(pair, types.Intern(ty)) {
		t.Error("ConformsInterned accepts a deep list the reference refuses")
	}
}

// TestConformsRecordAllocs pins the point of the walk: a record of atoms
// checked at its declared type allocates nothing.
func TestConformsRecordAllocs(t *testing.T) {
	rec := value.Rec("Id", value.Int(7), "Name", value.String("n"), "Score", value.Int(3),
		"Ratio", value.Float(0.5), "Ok", value.Bool(true))
	in := types.Intern(types.MustParse("{Id: Int, Name: String, Score: Float, Ratio: Float, Ok: Bool}"))
	if !value.ConformsInterned(rec, in) {
		t.Fatal("record does not conform to its declared type")
	}
	if n := testing.AllocsPerRun(100, func() {
		if !value.ConformsInterned(rec, in) {
			t.Fatal("verdict changed")
		}
	}); n != 0 {
		t.Fatalf("ConformsInterned allocates %.0f times per call, want 0", n)
	}
}

// FuzzConforms is the differential fuzz target: a tagged codec image
// decodes to a value and a type, and the walk must agree with the
// reference on them.
func FuzzConforms(f *testing.F) {
	self := value.NewRecord()
	self.Set("self", self)
	for _, c := range []struct {
		v value.Value
		t string
	}{
		{value.Rec("A", value.Int(1), "B", value.String("x")), "{A: Float}"},
		{value.Rec("A", value.Rec("C", value.Int(1))), "{A: {C: Int, D: Int}}"},
		{value.NewList(value.Int(1), value.Float(2)), "List[Float]"},
		{value.NewSet(value.Rec("A", value.Int(1))), "Set[{A: Int}]"},
		{value.NewTag("P", value.Unit), "[P: Unit, Q: Int]"},
		{self, "{self: {self: {}}}"},
		{value.NewList(dynamic.Make(value.Int(1))), "List[Dynamic]"},
		{value.Rec("A", value.Int(1), "B", value.NewList()), "rec t . {A: Int, B: List[t]}"},
	} {
		img, err := codec.MarshalTagged(c.v, types.MustParse(c.t))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		v, ty, err := codec.UnmarshalTagged(img)
		if err != nil {
			return
		}
		if got, want := value.ConformsInterned(v, types.Intern(ty)), reference(v, ty); got != want {
			t.Fatalf("ConformsInterned(v : %s, %s) = %v, reference says %v", value.TypeOf(v), ty, got, want)
		}
	})
}
