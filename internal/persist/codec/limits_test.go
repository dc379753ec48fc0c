package codec

import (
	"bytes"
	"errors"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// maxFrame is the wire's frame bound (wire.MaxFrame, which imports this
// package): a hostile image can be this large.
const maxFrame = 16 << 20

// nestedImage is an image header followed by n repetitions of prefix and
// then tail: n levels of one nesting tag.
func nestedImage(prefix []byte, n int, tail ...byte) []byte {
	img := make([]byte, 0, len(magic)+1+n*len(prefix)+len(tail))
	img = append(img, magic...)
	img = append(img, version)
	for i := 0; i < n; i++ {
		img = append(img, prefix...)
	}
	return append(img, tail...)
}

// TestDecodeRefusesDeepNesting: a frame-sized image nested one tag per
// byte would recurse the decoder millions of levels deep and overflow its
// stack — a crash no recover catches. Past the bounds the decoder returns
// ErrLimitExceeded instead.
func TestDecodeRefusesDeepNesting(t *testing.T) {
	n := maxFrame - 1<<20 // 15 MiB of List[List[…]]
	d, err := NewDecoder(bytes.NewReader(nestedImage([]byte{tList}, n, tInt)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Type(); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("%d-deep type: %v, want ErrLimitExceeded", n, err)
	}
	if _, err := UnmarshalValue(nestedImage([]byte{vList, 1}, n/2, vInt, 0)); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("%d-deep value: %v, want ErrLimitExceeded", n/2, err)
	}
	// A type image inside a value — a PUT's declared type — is bounded too.
	if _, _, err := UnmarshalTagged(nestedImage([]byte{tSet}, n, tInt)); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("tagged image with a %d-deep type: %v, want ErrLimitExceeded", n, err)
	}
	// The plain decoder, the table's reference, refuses both too: the
	// refusals above are the skip's that measures a type image for the
	// table, and then the decoder's, which reports the first fault.
	if _, _, err := decodeTypeImage(nestedImage([]byte{tList}, n, tInt), true); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("%d-deep type without the table: %v, want ErrLimitExceeded", n, err)
	}
	if _, _, err := decodeTagged(nestedImage([]byte{tSet}, n, tInt), true); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("tagged image with a %d-deep type without the table: %v, want ErrLimitExceeded", n, err)
	}

	// Exactly at the bounds, both decode.
	d, err = NewDecoder(bytes.NewReader(nestedImage([]byte{tList}, MaxTypeDepth-1, tInt)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Type(); err != nil {
		t.Fatalf("type at the bound: %v", err)
	}
	if _, err := DecodeType(nestedImage([]byte{tList}, MaxTypeDepth-1, tInt)); err != nil {
		t.Fatalf("type at the bound through DecodeType: %v", err)
	}
	if _, err := UnmarshalValue(nestedImage([]byte{vList, 1}, MaxValueDepth-1, vInt, 0)); err != nil {
		t.Fatalf("value at the bound: %v", err)
	}
}

// TestEncodeRefusesDeepNesting: the encoder refuses what the decoder
// would, so nothing writes an image its reader cannot read back.
func TestEncodeRefusesDeepNesting(t *testing.T) {
	var ty types.Type = types.Int
	for i := 0; i < MaxTypeDepth; i++ {
		ty = types.NewList(ty)
	}
	if _, err := AppendType(nil, ty); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("AppendType of a %d-deep type: %v, want ErrLimitExceeded", MaxTypeDepth+1, err)
	}
	var v value.Value = value.Int(1)
	for i := 0; i < MaxValueDepth; i++ {
		v = value.NewList(v)
	}
	if _, err := MarshalValue(v); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("MarshalValue of a %d-deep value: %v, want ErrLimitExceeded", MaxValueDepth+1, err)
	}
	// A failed encode leaves nothing behind that a later one trips on.
	if _, err := AppendType(nil, types.Int); err != nil {
		t.Fatalf("AppendType after a refusal: %v", err)
	}
}

// deepList is a linked list of n records, its most specific type n records
// deep.
func deepList(n int) value.Value {
	var v value.Value = value.Rec("Head", value.Int(0))
	for i := 1; i < n; i++ {
		v = value.Rec("Head", value.Int(int64(i)), "Tail", v)
	}
	return v
}

// TestDeepLinkedListRoundTrips: the bounds leave room for a linked list
// 10 000 records long, tagged at its inferred type, which is as deep as the
// list — as a PUT or JOIN reply without a declared type writes it.
func TestDeepLinkedListRoundTrips(t *testing.T) {
	v := deepList(10000)
	img, err := MarshalTagged(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ty, err := UnmarshalTagged(img)
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(ty, value.TypeOf(v)) || !value.Equal(got, v) {
		t.Fatal("10 000-deep linked list did not round-trip")
	}
}

// TestDecodeCycleRules: the decoder refuses a set element that reaches a
// cycle — Set.Add keys it, and value.Key would recurse forever — and decodes
// every other cycle, beside a set or not.
func TestDecodeCycleRules(t *testing.T) {
	for name, img := range map[string][]byte{
		"record cycle through a list":   nestedImage(nil, 0, vRecord, 1, 1, 'A', vList, 1, vRef, 0),
		"list containing itself":        nestedImage(nil, 0, vList, 1, vRef, 0),
		"set after a record cycle":      nestedImage(nil, 0, vRecord, 2, 1, 'A', vRef, 0, 1, 'B', vSet, 0),
		"record cycle passing by a set": nestedImage(nil, 0, vRecord, 2, 1, 'A', vSet, 1, vInt, 2, 1, 'B', vRef, 0),
		// Key stops at a dynamic, so its cycle is no set's concern.
		"set of a dynamic of a cycle": nestedImage(nil, 0, vSet, 1, vDynamic, tTop, vRecord, 1, 1, 'A', vRef, 2),
	} {
		v, err := UnmarshalValue(img)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		value.TypeOf(v) // terminates on every cycle
		if _, err := MarshalValue(v); err != nil {
			t.Errorf("%s: re-encode: %v", name, err)
		}
	}
	parent := value.NewRecord()
	parent.Set("Kids", value.NewList(value.Rec("Up", parent)))
	parent.Set("Tags", value.NewSet(value.String("a"), value.String("b")))
	got := roundTripValue(t, parent).(*value.Record)
	if kids, _ := got.Get("Kids"); kids.(*value.List).Elems[0].(*value.Record).MustGet("Up") != got {
		t.Error("the cycle beside a set did not round-trip")
	}

	for name, img := range map[string][]byte{
		"set containing itself":           nestedImage(nil, 0, vSet, 1, vRef, 0),
		"set inside a set containing it":  nestedImage(nil, 0, vSet, 1, vSet, 1, vRef, 1),
		"record cycle inside a set":       nestedImage(nil, 0, vSet, 1, vRecord, 1, 1, 'A', vRef, 1),
		"record cycle through a set elem": nestedImage(nil, 0, vRecord, 1, 1, 'A', vSet, 1, vRecord, 1, 1, 'B', vRef, 0),
		"set of a completed record cycle": nestedImage(nil, 0, vList, 2, vRecord, 1, 1, 'A', vRef, 1, vSet, 1, vRef, 1),
		"set of a tag of a record cycle":  nestedImage(nil, 0, vList, 2, vTag, 1, 'x', vRecord, 1, 1, 'A', vRef, 2, vSet, 1, vRef, 1),
		// u = {d: dynamic([u]), e: {n: that list}}: the back reference
		// leaves the dynamic, but the record field e closes a cycle Key
		// follows: u.e.n[0] = u.
		"cycle leaving a dynamic, closed outside it": nestedImage(nil, 0, vSet, 1,
			vRecord, 2, 1, 'd', vDynamic, tTop, vList, 1, vRef, 1, 1, 'e', vRecord, 1, 1, 'n', vRef, 3),
	} {
		if _, err := UnmarshalValue(img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
