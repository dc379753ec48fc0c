package codec

import (
	"bytes"
	"errors"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Native fuzz targets. Under plain `go test` the seed corpus runs; under
// `go test -fuzz=FuzzUnmarshal ./internal/persist/codec` the engine
// explores further. The invariant is the fault-injection one: any input
// yields a value or an error, never a panic, and valid images round-trip:
// re-encoding what an input decodes to gives an image that decodes and
// re-encodes to itself byte for byte, cyclic and shared inputs included.
// Bytes are compared, not values: value.Equal does not terminate on a
// cycle. Each target is also a differential: it decodes its input through
// the type table twice, cold and then warm, and expects the outcome of the
// plain decoder, which reads the top-level type without the table
// (sameThroughTable).

func FuzzUnmarshalValue(f *testing.F) {
	seed := []value.Value{
		value.Int(42),
		value.String("J Doe"),
		value.Rec("Name", value.String("J"), "Addr", value.Rec("City", value.String("A"))),
		value.NewList(value.Int(1), value.Float(2), value.Bool(true)),
		value.NewSet(value.Rec("K", value.Int(1))),
		value.NewTag("Circle", value.Float(1.5)),
	}
	for _, v := range seed {
		img, err := MarshalValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		timg, err := MarshalTagged(v, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(timg)
	}
	f.Add([]byte("DBPL\x01"))
	f.Add([]byte{})
	// Nesting one past the bound, a set reaching a cycle and a cycle of
	// lists alone: each once crashed the reader's stack — the decoder's,
	// value.Key's or TypeOf's.
	f.Add(nestedImage([]byte{vList, 1}, MaxValueDepth, vInt, 0))
	f.Add(nestedImage(nil, 0, vSet, 1, vSet, 1, vRef, 1))
	f.Add(nestedImage(nil, 0, vList, 1, vRef, 0))

	f.Fuzz(func(t *testing.T, img []byte) {
		sameThroughTable(t, img, decodeTagged)
		v, err := UnmarshalValue(img)
		if err != nil {
			return
		}
		b1, err := MarshalValue(v)
		if err != nil {
			t.Fatalf("re-encode of decoded value failed: %v", err)
		}
		v2, err := UnmarshalValue(b1)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		b2, err := MarshalValue(v2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not idempotent:\n%x\n%x", b1, b2)
		}
	})
}

func FuzzDecodeType(f *testing.F) {
	for _, src := range []string{
		"Int", "{Name: String, Age: Int}", "List[Set[Bool]]",
		"forall t <= {A: Int} . t -> t", "rec t . {Next: t}",
	} {
		img, err := typeImage(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	f.Add(nestedImage([]byte{tList}, MaxTypeDepth, tInt))
	f.Fuzz(func(t *testing.T, img []byte) {
		sameThroughTable(t, img, decodeTypeImage)
		ty, err := DecodeType(img)
		if err != nil {
			return
		}
		b1, err := AppendType(nil, ty)
		if err != nil {
			t.Fatalf("re-encode of decoded type failed: %v", err)
		}
		ty2, err := DecodeType(b1)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		b2, err := AppendType(nil, ty2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not idempotent:\n%x\n%x", b1, b2)
		}
	})
}

// typeImage encodes a parsed type with the image header.
func typeImage(src string) ([]byte, error) { return AppendType(nil, types.MustParse(src)) }

// An imageDecode decodes img as an entry point does, reading its top-level
// type through the type table, or, if plain, with the table-free decodeType.
type imageDecode func(img []byte, plain bool) (value.Value, types.Type, error)

// decodeTagged is DecodeTagged.
func decodeTagged(img []byte, plain bool) (value.Value, types.Type, error) {
	if !plain {
		return DecodeTagged(img)
	}
	d, err := newDecoder(img)
	if err != nil {
		return nil, nil, err
	}
	t, err := d.decodeType()
	if err != nil {
		return nil, nil, err
	}
	v, err := d.Value()
	if err != nil {
		return nil, nil, err
	}
	return v, t, nil
}

// decodeTypeImage is DecodeType.
func decodeTypeImage(img []byte, plain bool) (value.Value, types.Type, error) {
	if !plain {
		ty, err := DecodeType(img)
		return nil, ty, err
	}
	d, err := newDecoder(img)
	if err != nil {
		return nil, nil, err
	}
	ty, err := d.decodeType()
	return nil, ty, err
}

// forgetType empties the table set of the type image at the start of the
// image img, if it has one, so its next decode through the table is cold.
func forgetType(img []byte) {
	d, err := newDecoder(img)
	if err != nil || d.skipType(0) != nil {
		return
	}
	set := typeSet(img[headerLen:d.pos])
	for i := range set {
		set[i].Store(nil)
	}
}

// sameThroughTable decodes img with the plain decoder and then twice
// through the type table, cold and then warm, and fails unless both table
// decodes have the plain outcome: the same error class, or the identical
// canonical type and a value that re-encodes to the same bytes (value.Equal
// does not terminate on a cycle).
func sameThroughTable(t *testing.T, img []byte, decode imageDecode) {
	t.Helper()
	v, ty, err := decode(img, true)
	want, werr := errClass(err), error(nil)
	var wantImg []byte
	if err == nil && v != nil {
		wantImg, werr = AppendTagged(nil, v, ty)
	}
	forgetType(img)
	for _, pass := range []string{"cold", "warm"} {
		tv, tty, err := decode(img, false)
		if got := errClass(err); got != want {
			t.Errorf("%s table decode of %x: %v, plain decode class %v", pass, img, err, want)
			return
		}
		if err != nil {
			continue
		}
		if tty != ty {
			t.Errorf("%s table decode of %x: type %s is not the plain decode's canonical %s", pass, img, tty, ty)
			return
		}
		if v == nil {
			continue
		}
		got, gerr := AppendTagged(nil, tv, tty)
		if !errors.Is(gerr, werr) || !bytes.Equal(got, wantImg) {
			t.Errorf("%s table decode of %x re-encodes to %x (%v), plain decode to %x (%v)", pass, img, got, gerr, wantImg, werr)
			return
		}
	}
}

// errClass returns the package error err is, or err itself.
func errClass(err error) error {
	for _, c := range []error{ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrUnsupported, ErrLimitExceeded} {
		if errors.Is(err, c) {
			return c
		}
	}
	return err
}
