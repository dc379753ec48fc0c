package codec

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// mergeAtoms are the atoms the merge tests draw fields from: Ints and a
// Float that are numerically equal, NaN, both zeros, empty, short and
// long Strings, Unit and both Bools.
var mergeAtoms = []value.Value{
	value.Int(0), value.Int(1), value.Int(-1), value.Int(300), value.Int(math.MinInt64),
	value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(math.NaN()),
	value.String(""), value.String("a"), value.String(strings.Repeat("long", 50)),
	value.Unit, value.Bool(true), value.Bool(false),
}

// genMergeRecord returns a record over some of labels. Each field is an
// atom, or with probability nested/8 a nested record, a list or ⊥.
func genMergeRecord(rng *rand.Rand, labels []string, nested int) *value.Record {
	r := value.NewRecord()
	for _, l := range labels {
		if rng.Intn(3) == 0 {
			continue
		}
		var v value.Value = mergeAtoms[rng.Intn(len(mergeAtoms))]
		if rng.Intn(8) < nested {
			switch rng.Intn(3) {
			case 0:
				v = value.Rec("x", mergeAtoms[rng.Intn(len(mergeAtoms))])
			case 1:
				v = value.NewList(value.Int(rng.Int63n(3)))
			default:
				v = value.Bottom
			}
		}
		r.Set(l, v)
	}
	return r
}

// flatAtoms reports whether every field of r is an atom.
func flatAtoms(r *value.Record) bool {
	ok := true
	r.Each(func(_ string, v value.Value) {
		if _, atom := value.AtomKeyOf(v); !atom && v != value.Unit {
			ok = false
		}
	})
	return ok
}

// TestRowMergedMatchesJoin: over generated pairs of records, with
// interleaved, shared and disjoint label sets, equal and clashing atoms
// (an Int against a Float, NaN, -0 against +0 and every other atom of
// mergeAtoms), and nested, list and ⊥ fields, RowMerged of the two
// records' ValueBytes is Merged exactly when value.Join joins two records
// of atoms, and then its reply is byte-identical to Row's of the join. It
// is Conflict exactly when Join refuses two records of atoms, and
// Undecided for every pair holding another field; a refusal adds no row
// and no type.
func TestRowMergedMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := [][]string{{"a", "b", "c"}, {"b", "d"}, {"e", "f"}, {"", "a", "aa", "b"}, {"A", "a"}}
	wit := types.MustParse("{a: Int}")
	var verdicts [3]int
	for n := 0; n < 20000; n++ {
		l := genMergeRecord(rng, sets[rng.Intn(len(sets))], n%3)
		r := genMergeRecord(rng, sets[rng.Intn(len(sets))], n%3)
		if rng.Intn(4) == 0 { // share fields, so more pairs join
			l.Each(func(k string, v value.Value) {
				if rng.Intn(2) == 0 {
					r.Set(k, v)
				}
			})
		}
		a, err := ValueBytes(l)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ValueBytes(r)
		if err != nil {
			t.Fatal(err)
		}
		// Each writer starts with a row at another witness, so a refusal
		// that left a type or bytes behind would show in the reply.
		var got, want ReplyWriter
		got.Reset(2, 0)
		want.Reset(2, 0)
		got.Row(value.Int(7), types.Int)
		want.Row(value.Int(7), types.Int)
		m := got.RowMerged(a, b, wit)
		verdicts[m]++
		j, jerr := value.Join(l, r)
		flat := flatAtoms(l) && flatAtoms(r)
		switch {
		case !flat && m != Undecided:
			t.Fatalf("%s ⊔ %s: %v, want Undecided for a field that is not an atom", l, r, m)
		case flat && m == Undecided:
			t.Fatalf("%s ⊔ %s: Undecided on two records of atoms", l, r)
		case m == Merged && jerr != nil:
			t.Fatalf("%s ⊔ %s: merged, but Join refuses: %v", l, r, jerr)
		case m == Conflict && jerr == nil:
			t.Fatalf("%s ⊔ %s: Conflict, but Join gives %s", l, r, j)
		}
		if m == Merged {
			want.Row(j, wit)
		}
		gf, err := got.Fields()
		if err != nil {
			t.Fatal(err)
		}
		wf, err := want.Fields()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gf[0], wf[0]) || !bytes.Equal(gf[1], wf[1]) {
			t.Fatalf("%s ⊔ %s (%v): reply %x %x, want Row's %x %x", l, r, m, gf[0], gf[1], wf[0], wf[1])
		}
	}
	for m, c := range verdicts {
		if c < 1000 {
			t.Errorf("only %d of 20000 pairs were %v", c, Merge(m))
		}
	}
}

// TestRowMergedRefusesWhatItCannotRead: RowMerged decides only images of
// records of atoms as ValueBytes writes them. A varint longer than it
// needs, labels out of order or repeated, a back-reference, a ⊥ field,
// bytes after the record, a cut image and an image that is not a record
// are each Undecided, against a record they would otherwise join.
func TestRowMergedRefusesWhatItCannotRead(t *testing.T) {
	other, err := ValueBytes(value.Rec("z", value.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{
		"long count":        {vRecord, 0x81, 0x00, 1, 'a', vUnit},
		"long label length": {vRecord, 1, 0x81, 0x00, 'a', vUnit},
		"long Int":          {vRecord, 1, 1, 'a', vInt, 0x80, 0x00},
		"long String":       {vRecord, 1, 1, 'a', vString, 0x81, 0x00, 'x'},
		"labels descending": {vRecord, 2, 1, 'b', vUnit, 1, 'a', vUnit},
		"label repeated":    {vRecord, 2, 1, 'a', vUnit, 1, 'a', vUnit},
		"back-reference":    {vRecord, 1, 1, 'a', vRef, 0},
		"bottom":            {vRecord, 1, 1, 'a', vBottom},
		"nested record":     {vRecord, 1, 1, 'a', vRecord, 0},
		"trailing byte":     {vRecord, 1, 1, 'a', vUnit, vUnit},
		"cut Float":         {vRecord, 1, 1, 'a', vFloat, 0, 0},
		"cut String":        {vRecord, 1, 1, 'a', vString, 3, 'x'},
		"cut field":         {vRecord, 2, 1, 'a', vUnit},
		"label past end":    {vRecord, 1, 5, 'a'},
		"an Int":            {vInt, 2},
		"empty":             {},
	} {
		for _, pair := range [][2][]byte{{img, other}, {other, img}} {
			var w ReplyWriter
			w.Reset(1, 0)
			if m := w.RowMerged(pair[0][:len(pair[0]):len(pair[0])], pair[1], types.Unit); m != Undecided {
				t.Errorf("%s: %v, want Undecided", name, m)
			}
			if fields, err := w.Fields(); fields != nil || err != nil {
				t.Errorf("%s: a refusal left the reply (%x, %v)", name, fields, err)
			}
		}
	}
}

// TestRowMergedAllocs: a merged row allocates nothing once the reply's
// buffer is reserved.
func TestRowMergedAllocs(t *testing.T) {
	a, _ := ValueBytes(value.Rec("Id", value.Int(1<<30), "Name", value.String("twelve chars"), "Dept", value.Int(3)))
	b, _ := ValueBytes(value.Rec("Dept", value.Int(3), "DName", value.String("research"), "R", value.Float(0.5)))
	wit := types.MustParse("{Id: Int, Dept: Int}")
	var w ReplyWriter
	w.Reset(200, 0)
	w.RowMerged(a, b, wit)
	if n := testing.AllocsPerRun(100, func() {
		if w.RowMerged(a, b, wit) != Merged {
			t.Fatal("the pair does not merge")
		}
	}); n != 0 {
		t.Errorf("a merged row costs %.1f allocations, want 0", n)
	}
}

// decodeWhole decodes a row's value bytes, reporting false unless they
// decode with none left over.
func decodeWhole(img []byte) (value.Value, bool) {
	d, err := newDecoder(append([]byte(magic+"\x01"), img...))
	if err != nil {
		return nil, false
	}
	v, err := d.Value()
	return v, err == nil && d.pos == len(d.src)
}

// FuzzRowMerged feeds RowMerged two images, each cut to its length and
// capacity, so a read past either panics. A merged row must be the row
// Row writes for value.Join of the two images' values, and a conflict
// must be two images that decode to records Join refuses. No refusal
// adds a row. Its seeds are records of atoms at the edges of their
// encodings, joining and clashing, and images RowMerged must refuse.
func FuzzRowMerged(f *testing.F) {
	recs := []value.Value{
		value.Rec("a", value.Int(1), "b", value.String("x")),
		value.Rec("b", value.String("x"), "c", value.Float(math.NaN())),
		value.Rec("b", value.String("y"), "d", value.Bool(true)),
		value.Rec("a", value.Float(1), "e", value.Unit),
		value.Rec("c", value.Float(math.Copysign(0, -1)), "e", value.Unit),
		value.Rec("a", value.Int(math.MinInt64), "s", value.String(strings.Repeat("z", 200))),
		value.Rec("a", value.Bottom, "b", value.Rec("x", value.Int(1))),
		value.NewRecord(),
	}
	var imgs [][]byte
	for _, v := range recs {
		img, err := ValueBytes(v)
		if err != nil {
			f.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	for i := range imgs {
		for j := range imgs {
			f.Add(imgs[i], imgs[j])
		}
	}
	f.Add([]byte{vRecord, 1, 1, 'a', vInt, 0x80, 0x00}, imgs[0])
	f.Add([]byte{vRecord, 2, 1, 'b', vUnit, 1, 'a', vUnit}, imgs[0])
	f.Add(append(imgs[0], vUnit), imgs[1])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		a, b = a[:len(a):len(a)], b[:len(b):len(b)]
		var w ReplyWriter
		w.Reset(1, 0)
		m := w.RowMerged(a, b, types.Unit)
		fields, err := w.Fields()
		if err != nil {
			t.Fatal(err)
		}
		if m != Merged {
			if fields != nil {
				t.Fatalf("%v added a row", m)
			}
			if m == Undecided {
				return
			}
		}
		va, okA := decodeWhole(a)
		vb, okB := decodeWhole(b)
		if !okA || !okB {
			t.Fatalf("%v on an image that does not decode", m)
		}
		j, err := value.Join(va, vb)
		switch {
		case m == Conflict && err == nil:
			t.Fatalf("Conflict, but %s ⊔ %s = %s", va, vb, j)
		case m == Merged && err != nil:
			t.Fatalf("merged, but %s ⊔ %s refuses: %v", va, vb, err)
		case m == Merged:
			var want ReplyWriter
			want.Reset(1, 0)
			want.Row(j, types.Unit)
			wf, err := want.Fields()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fields[0], wf[0]) || !bytes.Equal(fields[1], wf[1]) {
				t.Fatalf("merged %x, Row of the join %x", fields[1], wf[1])
			}
		}
	})
}
