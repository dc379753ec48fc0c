package codec

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// The golden file pins the byte format: every image below must encode to
// exactly the bytes recorded in testdata/golden.hex and decode back. The
// file was written by the stream encoder that preceded the byte-slice one;
// regenerate it only for a deliberate format change:
//
//	go test ./internal/persist/codec -run TestGoldenImages -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.hex from the current encoder")

const goldenPath = "testdata/golden.hex"

// goldenImage is one named image of the corpus. Exactly one of v (with t
// for a tagged image) and typ is set.
type goldenImage struct {
	name   string
	tagged bool
	v      value.Value
	t      types.Type // declared type of a tagged image; nil for TypeOf
	typ    types.Type // a standalone type image
}

func (g goldenImage) encode() ([]byte, error) {
	switch {
	case g.typ != nil:
		return AppendType(nil, g.typ)
	case g.tagged:
		return MarshalTagged(g.v, g.t)
	default:
		return MarshalValue(g.v)
	}
}

// reencode decodes img as g's kind of image and encodes the result again.
func (g goldenImage) reencode(img []byte) ([]byte, error) {
	switch {
	case g.typ != nil:
		t, err := DecodeType(img)
		if err != nil {
			return nil, err
		}
		return AppendType(nil, t)
	case g.tagged:
		v, t, err := DecodeTagged(img)
		if err != nil {
			return nil, err
		}
		return AppendTagged(nil, v, t)
	default:
		v, err := UnmarshalValue(img)
		if err != nil {
			return nil, err
		}
		return MarshalValue(v)
	}
}

func goldenCorpus(t *testing.T) []goldenImage {
	t.Helper()
	emp := value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1))
	dyn, err := dynamic.MakeAt(emp, types.MustParse("{Name: String}"))
	if err != nil {
		t.Fatal(err)
	}
	shared := value.NewList(value.Int(1), value.Int(2))
	cyclic := value.NewRecord()
	cyclic.Set("Name", value.String("loop"))
	cyclic.Set("Self", cyclic)
	bulk := value.Rec("Id", value.Int(4711), "Name", value.String("row-004711"),
		"A", value.Int(-3), "A1", value.Int(1<<20), "A2", value.Int(7))
	nested := value.Rec("Name", value.String("J Doe"),
		"Addr", value.Rec("City", value.String("Austin"), "Zip", value.Int(78701)),
		"Kids", value.NewList(value.Rec("Name", value.String("A")), value.Rec("Name", value.String("B"))),
		"Tags", value.NewSet(value.String("x"), value.String("y")),
		"Shape", value.NewTag("Circle", value.Float(2.5)))

	values := []struct {
		name string
		v    value.Value
	}{
		{"int zero", value.Int(0)},
		{"int negative", value.Int(-(1 << 40))},
		{"int max", value.Int(math.MaxInt64)},
		{"float", value.Float(3.25)},
		{"float NaN", value.Float(math.NaN())},
		{"float negative zero", value.Float(math.Copysign(0, -1))},
		{"float -Inf", value.Float(math.Inf(-1))},
		{"string empty", value.String("")},
		{"string unicode", value.String("J Doe — ünïcode ✓")},
		{"bool true", value.Bool(true)},
		{"bool false", value.Bool(false)},
		{"unit", value.Unit},
		{"bottom", value.Bottom},
		{"nested record", nested},
		{"list of lists", value.NewList(value.Int(1), value.String("two"), value.NewList())},
		{"set of records", value.NewSet(value.Rec("K", value.Int(1)), value.Rec("K", value.Int(2)))},
		{"variant tag", value.NewTag("Square", value.Rec("Side", value.Float(1)))},
		{"type value", value.NewTypeVal(types.MustParse("forall t <= {Name: String} . List[t]"))},
		{"dynamic", dyn},
		{"shared container", value.Rec("A", shared, "B", shared, "C", value.NewList(shared))},
		{"cyclic record", cyclic},
	}
	var out []goldenImage
	for _, c := range values {
		out = append(out, goldenImage{name: "value " + c.name, v: c.v})
	}
	for _, c := range values {
		out = append(out, goldenImage{name: "tagged " + c.name, tagged: true, v: c.v})
	}
	out = append(out,
		goldenImage{name: "tagged bulk record", tagged: true, v: bulk,
			t: types.MustParse("{Id: Int, Name: String, A: Int, A1: Int, A2: Int}")},
		goldenImage{name: "tagged nested at a supertype", tagged: true, v: nested,
			t: types.MustParse("{Name: String, Addr: {City: String}}")},
		goldenImage{name: "tagged dynamic at Dynamic", tagged: true, v: dyn, t: types.Dynamic},
	)
	for _, src := range []string{
		"Int", "Float", "String", "Bool", "Unit", "Top", "Bottom", "Dynamic", "Type",
		"{Name: String, Age: Int}",
		"[Circle: Float, Square: Float]",
		"List[Set[{A: Int}]]",
		"(Int, String) -> Bool",
		"forall t <= {Name: String} . t -> List[t]",
		"exists t <= Top . t",
		"rec t . {Value: Int, Next: t}",
	} {
		out = append(out, goldenImage{name: "type " + src, typ: types.MustParse(src)})
	}
	return out
}

// readGolden parses golden.hex: one "name<TAB>hex" line per image.
func readGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		img, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = img
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenImages: the encoder reproduces every recorded image byte for
// byte, and every recorded image decodes and re-encodes to itself. Bytes
// are compared, not values: value.Equal does not terminate on a cycle.
// Every image also decodes through the type table as the plain decoder
// decodes it: a type image as a type, any other as a tagged image, which an
// untagged one is not and must fail or misread the same way both times.
func TestGoldenImages(t *testing.T) {
	corpus := goldenCorpus(t)
	if *updateGolden {
		var b strings.Builder
		for _, g := range corpus {
			img, err := g.encode()
			if err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
			fmt.Fprintf(&b, "%s\t%x\n", g.name, img)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := readGolden(t)
	if len(golden) != len(corpus) {
		t.Errorf("golden file has %d images, corpus %d", len(golden), len(corpus))
	}
	for _, g := range corpus {
		want, ok := golden[g.name]
		if !ok {
			t.Errorf("%s: not in %s", g.name, goldenPath)
			continue
		}
		img, err := g.encode()
		if err != nil {
			t.Errorf("%s: encode: %v", g.name, err)
			continue
		}
		if !bytes.Equal(img, want) {
			t.Errorf("%s: encoded\n%x\nwant\n%x", g.name, img, want)
		}
		again, err := g.reencode(want)
		if err != nil {
			t.Errorf("%s: decode: %v", g.name, err)
			continue
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decoded and re-encoded to\n%x\nwant\n%x", g.name, again, want)
		}
		decode := decodeTagged
		if g.typ != nil {
			decode = decodeTypeImage
		}
		sameThroughTable(t, want, decode)
	}
}
