package server

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// joinAtoms are the atoms TestJoinPairMatchesValueJoin draws fields from:
// an Int and a Float that are numerically equal, NaN, both zeros, empty
// and long Strings, Unit and both Bools.
var joinAtoms = []value.Value{
	value.Int(1), value.Int(1 << 40), value.Float(1), value.Float(math.NaN()),
	value.Float(0), value.Float(math.Copysign(0, -1)),
	value.String(""), value.String(strings.Repeat("long", 40)),
	value.Unit, value.Bool(true), value.Bool(false),
}

// genJoinMember returns a record over some of labels and a witness it is
// declared at: a record type over some of its fields, each at its field's
// most specific type, or for a ⊥ field at an atom's type, so a witness
// may leave extras out. A field is an atom, or at times a nested record
// or ⊥.
func genJoinMember(rng *rand.Rand, labels []string) (*value.Record, types.Type) {
	r := value.NewRecord()
	var fields []types.Field
	for _, l := range labels {
		if rng.Intn(3) == 0 {
			continue
		}
		v := joinAtoms[rng.Intn(len(joinAtoms))]
		ft := value.TypeOf(v)
		switch rng.Intn(10) {
		case 0:
			v = value.Rec("x", v)
			ft = value.TypeOf(v)
		case 1:
			v = value.Bottom
		}
		r.Set(l, v)
		if rng.Intn(4) != 0 {
			fields = append(fields, types.Field{Label: l, Type: ft})
		}
	}
	return r, types.NewRecord(fields...)
}

// TestJoinPairMatchesValueJoin: over generated pairs of declared members,
// joinPair — JOIN's row for a pair of keyed members, merged from their
// stored bytes when the merge decides — adds a reply byte-identical to the
// value-built one: value.Join's record at the meet of the declared
// witnesses, or at its most specific type when the meet is uninhabited or
// a ⊥ the join filled leaves it out of the meet; and no row when Join
// refuses. The pairs interleave, share and miss labels, clash an Int with
// a Float, and hold NaN, -0 against +0, nested records and ⊥ fields. Each
// pair is joined cold, writing the members' value bytes, and then warm.
func TestJoinPairMatchesValueJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][]string{{"A", "B", "C"}, {"B", "D"}, {"E"}, {"A", "C", "E"}}
	idx := index.NewSet()
	merged := 0
	for n := 0; n < 5000; n++ {
		var ws [2]witnessed
		var vs [2]*value.Record
		var decl [2]types.Type
		for k := range ws {
			vs[k], decl[k] = genJoinMember(rng, sets[rng.Intn(len(sets))])
			d, err := dynamic.MakeAt(vs[k], decl[k])
			if err != nil {
				t.Fatal(err)
			}
			ws[k] = witnessed{dyn: d, bottom: value.HoldsBottom(vs[k])}
		}
		if n%2 == 1 { // share fields, so more pairs join
			vs[0].Each(func(l string, v value.Value) {
				if _, ok := vs[1].Get(l); ok && rng.Intn(2) == 0 {
					vs[1].Set(l, v)
				}
			})
			d, err := dynamic.MakeAt(vs[1], decl[1])
			if err != nil {
				continue // a ⊥ replaced under a field its witness types
			}
			ws[1] = witnessed{dyn: d, bottom: value.HoldsBottom(vs[1])}
		}
		var want codec.ReplyWriter
		want.Reset(1, 0)
		if m, err := value.Join(vs[0], vs[1]); err == nil {
			meet, ok := types.Meet(decl[0], decl[1])
			if !ok || (ws[0].bottom || ws[1].bottom) && !value.Conforms(m, meet) {
				meet = value.TypeOf(m)
			}
			want.Row(m, meet)
		}
		wf, err := want.Fields()
		if err != nil {
			t.Fatal(err)
		}
		for _, how := range []string{"cold", "warm"} {
			var got codec.ReplyWriter
			got.Reset(1, 0)
			joinPair(&got, idx, ws[0], ws[1])
			gf, err := got.Fields()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(gf, wf, bytes.Equal) {
				t.Fatalf("%s ⊔ %s at %s, %s (%s): reply %x, want %x", vs[0], vs[1], decl[0], decl[1], how, gf, wf)
			}
		}
		if flatRecord(vs[0]) && flatRecord(vs[1]) {
			merged++
		}
	}
	if merged < 1000 {
		t.Errorf("only %d of 5000 pairs were records of atoms", merged)
	}
}

// flatRecord reports whether every field of r is an atom.
func flatRecord(r *value.Record) bool {
	flat := true
	r.Each(func(_ string, v value.Value) {
		if _, atom := value.AtomKeyOf(v); !atom && v != value.Unit {
			flat = false
		}
	})
	return flat
}
