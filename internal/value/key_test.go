package value

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dbpl/internal/types"
)

// keyFmt is the fmt-based key writer AppendKey replaced, kept as the
// reference whose bytes AppendKey must reproduce exactly: keys order a
// set's elements in the log, so a changed byte is a changed log.
func keyFmt(v Value) string {
	var b strings.Builder
	writeKeyFmt(&b, v)
	return b.String()
}

func writeKeyFmt(b *strings.Builder, v Value) {
	switch vv := v.(type) {
	case Int:
		fmt.Fprintf(b, "i%d", int64(vv))
	case Float:
		fmt.Fprintf(b, "f%x", math.Float64bits(float64(vv)))
	case String:
		fmt.Fprintf(b, "s%d:%s", len(vv), string(vv))
	case Bool:
		if vv {
			b.WriteString("bt")
		} else {
			b.WriteString("bf")
		}
	case unitValue:
		b.WriteString("u")
	case bottomValue:
		b.WriteString("⊥")
	case *Record:
		b.WriteByte('{')
		for i, l := range vv.Shape().labels {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%d:%s=", len(l), l)
			writeKeyFmt(b, vv.values[i])
		}
		b.WriteByte('}')
	case *List:
		b.WriteString("l(")
		for i, e := range vv.Elems {
			if i > 0 {
				b.WriteByte(',')
			}
			writeKeyFmt(b, e)
		}
		b.WriteByte(')')
	case *Set:
		keys := make([]string, len(vv.elems))
		for i, e := range vv.elems {
			keys[i] = keyFmt(e)
		}
		sort.Strings(keys)
		b.WriteString("S(")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
		}
		b.WriteByte(')')
	case *Tag:
		fmt.Fprintf(b, "t%d:%s(", len(vv.Label), vv.Label)
		writeKeyFmt(b, vv.Payload)
		b.WriteByte(')')
	case *TypeVal:
		b.WriteString("T<")
		b.WriteString(types.Key(vv.T))
		b.WriteByte('>')
	default:
		fmt.Fprintf(b, "opaque%p", v)
	}
}

// byteSource hands out an input a byte at a time, then zeros, so any byte
// string describes a value.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

func (s *byteSource) u64() uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s.next())
	}
	return x
}

func (s *byteSource) pick(n int) int { return s.next() % n }

// Pools for the byte-driven builder: labels and strings holding the key
// syntax's own delimiters, multi-byte runes and the empty string; types of
// several shapes for type values.
var (
	keyLabels  = []string{"A", "B", "Name", "", "a,b", "x=y", "1:2", "Ünï", "名前", "⊥"}
	keyStrings = []string{"", "x", "s3:abc", "}", "a,b", "'", "日本", "\x00\xff"}
	keyTypes   = []types.Type{
		types.Int,
		types.MustParse("{A: Int, B: List[String]}"),
		types.MustParse("Set[[P: Unit, Q: Int]]"),
		types.MustParse("rec t . {A: Int, B: List[t]}"),
	}
)

// valueFromBytes builds an acyclic value of every kind from s, at most
// depth containers deep.
func valueFromBytes(s *byteSource, depth int) Value {
	kinds := 13
	if depth <= 0 {
		kinds = 7 // atoms, ⊥ and type values
	}
	switch s.pick(kinds) {
	case 0:
		if s.pick(2) == 0 {
			return Int(genInts[s.pick(len(genInts))])
		}
		return Int(int64(s.u64()))
	case 1:
		if s.pick(2) == 0 {
			return Float(genFloats[s.pick(len(genFloats))])
		}
		return Float(math.Float64frombits(s.u64()))
	case 2:
		if s.pick(2) == 0 {
			return String(keyStrings[s.pick(len(keyStrings))])
		}
		b := make([]byte, s.pick(6))
		for i := range b {
			b[i] = byte(s.next())
		}
		return String(b)
	case 3:
		return Bool(s.pick(2) == 0)
	case 4:
		return Unit
	case 5:
		return Bottom
	case 6:
		return NewTypeVal(keyTypes[s.pick(len(keyTypes))])
	case 7, 8:
		r := NewRecord()
		for n := s.pick(5); n > 0; n-- {
			r.Set(keyLabels[s.pick(len(keyLabels))], valueFromBytes(s, depth-1))
		}
		return r
	case 9:
		l := NewList()
		for n := s.pick(4); n > 0; n-- {
			l.Append(valueFromBytes(s, depth-1))
		}
		return l
	case 10, 11:
		set := NewSet()
		for n := s.pick(5); n > 0; n-- {
			set.Add(valueFromBytes(s, depth-1))
		}
		return set
	default:
		return NewTag(keyLabels[s.pick(len(keyLabels))], valueFromBytes(s, depth-1))
	}
}

// checkKey reports how AppendKey departs from the reference writer on v, or
// "" when it does not: same bytes as keyFmt, appended after any prefix, and
// Equal to a deep copy.
func checkKey(v Value) string {
	want := keyFmt(v)
	if got := string(AppendKey(nil, v)); got != want {
		return fmt.Sprintf("AppendKey(%s) = %q, want %q", v, got, want)
	}
	if got := Key(v); got != want {
		return fmt.Sprintf("Key(%s) = %q, want %q", v, got, want)
	}
	prefix := []byte("prefix|")
	if got := AppendKey(prefix[:len(prefix):len(prefix)], v); !bytes.Equal(got, append(prefix, want...)) {
		return fmt.Sprintf("AppendKey after a prefix = %q", got)
	}
	if !Equal(v, Copy(v)) {
		return fmt.Sprintf("%s is not Equal to its copy", v)
	}
	return ""
}

func TestQuickAppendKeyMatchesFmt(t *testing.T) {
	f := func(a randValue, in []byte) bool {
		for _, v := range []Value{a.V, valueFromBytes(&byteSource{in}, 3)} {
			if msg := checkKey(v); msg != "" {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func FuzzAppendKey(f *testing.F) {
	for _, seed := range []string{"", "\x07\x03\x00\x01\x08\x00", "\x0a\x04\x01\x01\x01\x01\x01\x02", "\x0c\x07\x0b\x02\x06\x01"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if msg := checkKey(valueFromBytes(&byteSource{in}, 4)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// leqGet is ⊑ as Leq decided it before the label merge: one Get per label
// of the smaller record. It is the reference the merge is checked against.
func leqGet(o, op Value) bool {
	if o.Kind() == KindBottom {
		return true
	}
	switch a := o.(type) {
	case Int, Float, String, Bool, unitValue:
		return Equal(o, op)
	case *Record:
		b, ok := op.(*Record)
		if !ok {
			return false
		}
		for i, l := range a.Shape().labels {
			bv, ok := b.Get(l)
			if !ok || !leqGet(a.values[i], bv) {
				return false
			}
		}
		return true
	case *List:
		b, ok := op.(*List)
		if !ok || len(a.Elems) != len(b.Elems) {
			return false
		}
		for i := range a.Elems {
			if !leqGet(a.Elems[i], b.Elems[i]) {
				return false
			}
		}
		return true
	case *Tag:
		b, ok := op.(*Tag)
		return ok && a.Label == b.Label && leqGet(a.Payload, b.Payload)
	case *Set:
		b, ok := op.(*Set)
		if !ok {
			return false
		}
		for _, y := range b.elems {
			found := false
			for _, x := range a.elems {
				if leqGet(x, y) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	default:
		return o == op
	}
}

func TestQuickLeqMergeMatchesGet(t *testing.T) {
	// Pairs of components, so records of every label subset meet.
	f := func(a, b randValue) bool {
		parts := components(b.V, components(a.V, nil))
		for _, x := range parts {
			for _, y := range parts {
				if Leq(x, y) != leqGet(x, y) {
					t.Logf("Leq(%s, %s) = %v", x, y, Leq(x, y))
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

func TestEqualFloatsByBits(t *testing.T) {
	zero, negZero, nan := Float(0), Float(math.Copysign(0, -1)), Float(math.NaN())
	if Equal(zero, negZero) || Leq(zero, negZero) || Leq(negZero, zero) {
		t.Error("0.0 and -0.0 have different keys, so they must not be equal or ordered")
	}
	if !Equal(nan, nan) || !Leq(nan, nan) {
		t.Error("a NaN has one key, so it must equal itself")
	}
	if Equal(Int(1), Float(1)) {
		t.Error("Int and Float atoms are never equal")
	}
}

// recordSink keeps a record a test builds on the heap, as a caller's would be.
var recordSink *Record

// TestOrderAllocs pins the allocation-free order: atoms are compared in
// place, records through stack scratch, and a record over a label set the
// shape table holds finds its shape without allocating. A record built by
// Set costs the record and the growths of its values slice; moving to a
// shape the table holds costs nothing.
func TestOrderAllocs(t *testing.T) {
	mk := func(name string) *Record {
		return Rec("Dept", Int(3), "Id", Int(1<<24+17), "L", Int(1<<24+99), "Name", String(name))
	}
	a, same, other := mk("abcdefghijkl"), mk("abcdefghijkl"), mk("abcdefghijkm")
	wider := mk("abcdefghijkl")
	wider.Set("L2", String("mnopqrstuvwx"))
	buf := make([]byte, 0, 256)
	labels, vals := a.Labels(), []Value{Int(3), Int(1 << 24), Int(1<<24 + 1), String("x")}
	var init Record
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Equal same", 0, func() { _ = Equal(a, same) }},
		{"Equal other", 0, func() { _ = Equal(a, other) }},
		{"Leq same", 0, func() { _ = Leq(a, same) }},
		{"Leq other", 0, func() { _ = Leq(a, other) }},
		{"Leq wider", 0, func() { _ = Leq(a, wider) }},
		{"Leq equal shapes", 0, func() { _ = Leq(other, a) }},
		{"AppendKey rec", 0, func() { buf = AppendKey(buf[:0], wider) }},
		{"InitRecord known shape", 0, func() { recordOf(&init, labels, vals) }},
		// The record and three growths of its values slice.
		{"NewRecord + 4 Set", 4, func() {
			r := NewRecord()
			r.Set("Id", Int(1<<24+17))
			r.Set("Name", String("abcdefghijkl"))
			r.Set("A", Int(1<<24+99))
			r.Set("A1", String("zxcvbnmasdfg"))
			recordSink = r
		}},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != c.want {
			t.Errorf("%s: %.1f allocs, want %.0f", c.name, n, c.want)
		}
	}
}
