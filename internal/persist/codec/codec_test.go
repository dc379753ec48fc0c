package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

func roundTripValue(t *testing.T, v value.Value) value.Value {
	t.Helper()
	img, err := MarshalValue(v)
	if err != nil {
		t.Fatalf("marshal %s: %v", v, err)
	}
	got, err := UnmarshalValue(img)
	if err != nil {
		t.Fatalf("unmarshal %s: %v", v, err)
	}
	return got
}

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Int(0),
		value.Int(-(1 << 40)),
		value.Int(math.MaxInt64),
		value.Float(3.25),
		value.Float(math.Inf(-1)),
		value.String(""),
		value.String("J Doe — ünïcode ✓"),
		value.Bool(true),
		value.Bool(false),
		value.Unit,
		value.Bottom,
		value.Rec("Name", value.String("J Doe"), "Addr", value.Rec("City", value.String("Austin"))),
		value.NewList(value.Int(1), value.String("two"), value.NewList()),
		value.NewSet(value.Int(1), value.Int(2)),
		value.NewTag("Circle", value.Float(2.5)),
		value.NewTypeVal(types.MustParse("forall t <= {Name: String} . List[t]")),
	}
	for _, v := range vals {
		got := roundTripValue(t, v)
		if !value.Equal(got, v) {
			t.Errorf("round trip of %s gave %s", v, got)
		}
	}
}

func TestFloatNaNRoundTrip(t *testing.T) {
	got := roundTripValue(t, value.Float(math.NaN()))
	f, ok := got.(value.Float)
	if !ok || !math.IsNaN(float64(f)) {
		t.Errorf("NaN round trip gave %v", got)
	}
}

func TestTypeRoundTrip(t *testing.T) {
	srcs := []string{
		"Int", "Float", "String", "Bool", "Unit", "Top", "Bottom", "Dynamic", "Type",
		"{Name: String, Age: Int}",
		"[Circle: Float, Square: Float]",
		"List[Set[{A: Int}]]",
		"(Int, String) -> Bool",
		"forall t <= {Name: String} . t -> List[t]",
		"exists t <= Top . t",
		"rec t . {Value: Int, Next: t}",
	}
	for _, src := range srcs {
		want := types.MustParse(src)
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.Type(want); err != nil {
			t.Fatalf("encode %s: %v", src, err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Type()
		if err != nil {
			t.Fatalf("decode %s: %v", src, err)
		}
		if !types.Equal(got, want) {
			t.Errorf("type round trip of %s gave %s", src, got)
		}
	}
}

func TestSharingPreserved(t *testing.T) {
	shared := value.Rec("K", value.Int(1))
	root := value.Rec("A", shared, "B", shared)
	got := roundTripValue(t, root).(*value.Record)
	a := got.MustGet("A").(*value.Record)
	b := got.MustGet("B").(*value.Record)
	if a != b {
		t.Fatal("sharing lost: A and B decoded to distinct records")
	}
	// Mutating through one path is visible through the other.
	a.Set("K", value.Int(99))
	if v, _ := b.Get("K"); !value.Equal(v, value.Int(99)) {
		t.Error("decoded copies do not actually share")
	}
}

func TestSharingShrinksImage(t *testing.T) {
	big := value.NewList()
	for i := 0; i < 50; i++ {
		big.Append(value.Int(int64(i)))
	}
	sharedTwice := value.Rec("A", big, "B", big)
	copied := value.Rec("A", big, "B", value.Copy(big))
	img1, err := MarshalValue(sharedTwice)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := MarshalValue(copied)
	if err != nil {
		t.Fatal(err)
	}
	if len(img1) >= len(img2) {
		t.Errorf("shared image (%d bytes) should be smaller than copied image (%d bytes)",
			len(img1), len(img2))
	}
}

func TestCyclicRecordRoundTrip(t *testing.T) {
	r := value.NewRecord()
	r.Set("Name", value.String("loop"))
	r.Set("Self", r)
	img, err := MarshalValue(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalValue(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := got.(*value.Record)
	self := rec.MustGet("Self").(*value.Record)
	if self != rec {
		t.Error("cycle not reconstructed")
	}
}

func TestDynamicRoundTrip(t *testing.T) {
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	d, err := dynamic.MakeAt(emp, types.MustParse("{Name: String}"))
	if err != nil {
		t.Fatal(err)
	}
	got := roundTripValue(t, d).(*dynamic.Dynamic)
	if !types.Equal(got.Type(), d.Type()) {
		t.Errorf("dynamic type = %s, want %s", got.Type(), d.Type())
	}
	if !value.Equal(got.Value(), emp) {
		t.Errorf("dynamic value = %s", got.Value())
	}
}

func TestTaggedImageCarriesType(t *testing.T) {
	// Principle P2: "while a value persists, so should its type".
	v := value.Rec("Name", value.String("J Doe"))
	declared := types.MustParse("{Name: String}")
	img, err := MarshalTagged(v, declared)
	if err != nil {
		t.Fatal(err)
	}
	got, gotT, err := UnmarshalTagged(img)
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(gotT, declared) {
		t.Errorf("persisted type = %s, want %s", gotT, declared)
	}
	if !value.Equal(got, v) {
		t.Errorf("persisted value = %s", got)
	}
	// Nil declared type defaults to the most specific type.
	img2, err := MarshalTagged(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := UnmarshalTagged(img2)
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(t2, value.TypeOf(v)) {
		t.Errorf("default persisted type = %s", t2)
	}
}

func TestTaggedBiggerThanUntagged(t *testing.T) {
	v := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	tagged, err := MarshalTagged(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := MarshalValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) <= len(plain) {
		t.Errorf("tagged %d bytes should exceed untagged %d bytes", len(tagged), len(plain))
	}
}

func TestCorruptionDetected(t *testing.T) {
	if _, err := UnmarshalValue([]byte("XXXX")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v", err)
	}
	if _, err := UnmarshalValue([]byte("DBPL\x09")); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version err = %v", err)
	}
	img, err := MarshalValue(value.Rec("A", value.Int(1), "B", value.String("x")))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations anywhere must error, never panic or hang.
	for cut := 5; cut < len(img); cut++ {
		if _, err := UnmarshalValue(img[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// A wild tag byte.
	bad := append([]byte("DBPL\x01"), 0xEE)
	if _, err := UnmarshalValue(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wild tag err = %v", err)
	}
	// A dangling back-reference.
	bad = append([]byte("DBPL\x01"), vRef, 7)
	if _, err := UnmarshalValue(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dangling ref err = %v", err)
	}
}

func TestUnsupportedKinds(t *testing.T) {
	if _, err := MarshalValue(opaque{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("opaque marshal err = %v, want ErrUnsupported", err)
	}
}

type opaque struct{}

func (opaque) Kind() value.Kind { return value.KindOpaque }
func (opaque) String() string   { return "opaque" }

// genValue builds random acyclic values for round-trip property testing.
func genValue(r *rand.Rand, depth int) value.Value {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return value.Int(int64(r.Uint64()))
		case 1:
			return value.Float(r.NormFloat64())
		case 2:
			return value.String(string(rune('a' + r.Intn(26))))
		case 3:
			return value.Bool(r.Intn(2) == 0)
		default:
			return value.Unit
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		rec := value.NewRecord()
		for _, l := range []string{"A", "B", "C"} {
			if r.Intn(2) == 0 {
				rec.Set(l, genValue(r, depth-1))
			}
		}
		return rec
	case 2:
		n := r.Intn(4)
		lst := value.NewList()
		for i := 0; i < n; i++ {
			lst.Append(genValue(r, depth-1))
		}
		return lst
	case 3:
		n := r.Intn(4)
		s := value.NewSet()
		for i := 0; i < n; i++ {
			s.Add(genValue(r, depth-1))
		}
		return s
	case 4:
		return value.NewTag("T", genValue(r, depth-1))
	default:
		return genValue(r, 0)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := genValue(rng, 4)
		img, err := MarshalValue(v)
		if err != nil {
			return false
		}
		got, err := UnmarshalValue(img)
		if err != nil {
			return false
		}
		if !value.Equal(got, v) {
			return false
		}
		// Tagged round trip preserves the most specific type.
		timg, err := MarshalTagged(v, nil)
		if err != nil {
			return false
		}
		gv, gt, err := UnmarshalTagged(timg)
		return err == nil && value.Equal(gv, v) && types.Equal(gt, value.TypeOf(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStreamOfManyValues(t *testing.T) {
	// One encoder/decoder pair can stream many values with shared refs
	// across them.
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	shared := value.Rec("K", value.Int(7))
	for i := 0; i < 10; i++ {
		if err := e.Value(value.Rec("I", value.Int(int64(i)), "S", shared)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// The decoder reads its stream to the end first, so a reader that
	// yields one byte per call decodes the same.
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(buf.Bytes()),
		"one byte": iotest.OneByteReader(bytes.NewReader(buf.Bytes())),
	} {
		d, err := NewDecoder(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var first *value.Record
		for i := 0; i < 10; i++ {
			v, err := d.Value()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := v.(*value.Record).MustGet("S").(*value.Record)
			if first == nil {
				first = s
			} else if s != first {
				t.Fatalf("%s: cross-value sharing lost", name)
			}
		}
	}
}

// failingWriter accepts n bytes and then fails every write.
type failingWriter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errWriterFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestStreamEncoderWriteErrors: a stream encoder whose writer fails
// returns the writer's error, from Flush for a short stream and from the
// Value that passes the flush threshold for a long one, and from Flush
// thereafter.
func TestStreamEncoderWriteErrors(t *testing.T) {
	for _, k := range []int{0, 3, 20} {
		e := NewEncoder(&failingWriter{n: k})
		for i := 0; i < 4; i++ {
			if err := e.Value(value.Rec("I", value.Int(int64(i)))); err != nil {
				t.Fatalf("k=%d: a buffered Value failed: %v", k, err)
			}
		}
		if err := e.Flush(); !errors.Is(err, errWriterFull) {
			t.Errorf("k=%d: Flush = %v, want the writer's error", k, err)
		}
	}
	e := NewEncoder(&failingWriter{n: 1 << 10})
	var err error
	for i := 0; err == nil && i < 1<<14; i++ {
		err = e.Value(value.String(fmt.Sprintf("value %d of a long stream", i)))
	}
	if !errors.Is(err, errWriterFull) {
		t.Fatalf("long stream: Value = %v, want the writer's error", err)
	}
	if err := e.Flush(); !errors.Is(err, errWriterFull) {
		t.Errorf("long stream: Flush = %v, want the writer's error", err)
	}
}

// TestStreamEncoderSpills: a stream longer than the encoder's buffer
// reaches the writer before Flush, and decodes whole after it.
func TestStreamEncoderSpills(t *testing.T) {
	const total = 200 << 10
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	pad := value.String(make([]byte, 1000))
	n := 0
	for ; n*1000 < total; n++ {
		if err := e.Value(value.Rec("I", value.Int(int64(n)), "Pad", pad)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() < total-flushAt-2000 {
		t.Errorf("%d bytes reached the writer before Flush of a %d-byte stream", buf.Len(), total)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := d.Value()
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if id := got.(*value.Record).MustGet("I"); id != value.Int(int64(i)) {
			t.Fatalf("value %d decoded as record %s", i, id)
		}
	}
}
