package codec

import (
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
