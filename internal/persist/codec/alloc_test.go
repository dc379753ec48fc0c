package codec

import (
	"fmt"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// bulkRecord is one record of a bulk GET reply at its declared type: the
// shape every image of a 512-record reply repeats.
func bulkRecord() (value.Value, types.Type) {
	v := value.Rec("Id", value.Int(4711), "Name", value.String("qwertyuiopas"),
		"A", value.Int(1<<24+12345), "A1", value.String("zxcvbnmasdfg"), "A2", value.Float(0.625))
	return v, types.Canon(types.MustParse("{Id: Int, Name: String, A: Int, A1: String, A2: Float}"))
}

// TestTaggedImageAllocs pins what one tagged image costs. Appending into a
// buffer with room allocates nothing; a fresh image allocates only its
// growing slice; decoding allocates the value, and its type only when the
// type table has not seen the type image: a seen one costs nothing, in a
// tagged image or alone. An unseen one costs its decode and the table
// entry, and still no more than the plain decoder, which reuses no Decoder.
func TestTaggedImageAllocs(t *testing.T) {
	v, ty := bulkRecord()
	buf, err := AppendTagged(nil, v, ty)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), buf...)
	typeImg, err := AppendType(nil, ty)
	if err != nil {
		t.Fatal(err)
	}
	plain := testing.AllocsPerRun(100, func() { decodeTagged(img, true) })
	for _, c := range []struct {
		name string
		max  float64
		f    func() error
	}{
		{"AppendTagged into a buffer with room", 0, func() error {
			_, err := AppendTagged(buf[:0], v, ty)
			return err
		}},
		{"MarshalTagged", 8, func() error {
			_, err := MarshalTagged(v, ty)
			return err
		}},
		{"UnmarshalTagged", 36, func() error {
			_, _, err := UnmarshalTagged(img)
			return err
		}},
		{"DecodeTagged of a seen type image", 12, func() error {
			_, _, err := DecodeTagged(img)
			return err
		}},
		{"DecodeType of a seen type image", 0, func() error {
			_, err := DecodeType(typeImg)
			return err
		}},
		{"DecodeTagged of an unseen type image", plain, func() error {
			forgetType(img)
			_, _, err := DecodeTagged(img)
			return err
		}},
	} {
		c.f() // the type table has seen the image
		var ferr error
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.f(); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			t.Fatalf("%s: %v", c.name, ferr)
		}
		if allocs > c.max {
			t.Errorf("%s of a %d-byte record = %.0f allocs, want <= %.0f", c.name, len(img), allocs, c.max)
		}
	}
}

// TestReplyWideAllocs pins the generic decoder's cost on a reply, the
// shape of BenchmarkCodecDecode's tagged-reply/reply-wide: 512 records,
// each a row at its witness less a field, so every row misses its record
// program. The reply backs the decoder's containers, label key and
// open-record stack, so what it allocates is itself and its slabs: 8.
func TestReplyWideAllocs(t *testing.T) {
	const n, maxAllocs = 512, 8
	var w ReplyWriter
	w.Reset(n, 0)
	for i := range n {
		v := value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("row-%07d", i)),
			"A", value.Int(1<<24+int64(i)), fmt.Sprintf("A%d", 1+i%4), value.String("zxcvbnmasdfg"), "A9", value.Float(0.625))
		narrow := v.Copy()
		narrow.Delete("A9")
		w.Row(v, value.TypeOf(narrow))
	}
	fields, err := w.Fields()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := DecodeReply(fields, func(int, value.Value, types.Type) { rows++ }); err != nil || rows != n {
		t.Fatalf("DecodeReply: %d rows, %v", rows, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeReply(fields, func(int, value.Value, types.Type) {}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("decoding a %d-row reply past its programs costs %.0f allocs, want <= %d", n, allocs, maxAllocs)
	}
}
