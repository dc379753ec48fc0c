package intrinsic

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file tests what replay pays for: every root entry carries its
// declared type's image, but a store decodes each distinct image once.

// TestReopenDecodesEachTypeImageOnce: a 1 024-root store declared at 8
// types, written over 8 commit groups and holding lists and nested
// records, reopens decoding exactly 8 type images — and to the state it was
// written in. A type value adds the images it and its root carry, decoded
// through the same cache by the node decoder.
func TestReopenDecodesEachTypeImageOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "types.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	declared := make([]types.Type, 8)
	for k := range declared {
		declared[k] = types.MustParse(fmt.Sprintf("{Id: Int, Sub: {K%d: Int}, Items: List[{Q: Int}]}", k))
	}
	for i := 0; i < 1024; i++ {
		k := i % len(declared)
		v := value.Rec("Id", value.Int(int64(i)), "Sub", value.Rec(fmt.Sprintf("K%d", k), value.Int(int64(k))),
			"Items", value.NewList(value.Rec("Q", value.Int(1)), value.Rec("Q", value.Int(2))))
		if err := s.Bind(fmt.Sprintf("r%04d", i), v, declared[k]); err != nil {
			t.Fatal(err)
		}
		if i%128 == 127 {
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(wantDecodes int) *Store {
		t.Helper()
		want := renderTyped(s)
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { re.Close() })
		// A miss is the only place an image is decoded, and every miss is
		// kept: the cache's size is the number of decodes.
		if n := re.types.Len(); n != wantDecodes {
			t.Fatalf("reopen decoded %d type images, want %d", n, wantDecodes)
		}
		if got := renderTyped(re); !sameState(got, want) {
			t.Fatalf("reopened store differs from the one written:\n got %v\nwant %v", got, want)
		}
		return re
	}
	re := reopen(len(declared))
	for i, d := range declared {
		if r, _ := re.Root(fmt.Sprintf("r%04d", i)); r.Declared != types.Canon(d) {
			t.Fatalf("root r%04d reopened at %s, want the canonical %s", i, r.Declared, d)
		}
	}

	// Two new images: the root entry's List[Type], and {Other: Int} in the
	// list node, which the node decoder reads.
	if err := s.Bind("t", value.NewList(value.NewTypeVal(types.MustParse("{Other: Int}"))), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	reopen(len(declared) + 2)
}

// TestTypeImageHitAllocatesNothing pins the cost of a repeated image: a
// lookup, no decode.
func TestTypeImageHitAllocatesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := codec.WriteType(&buf, types.MustParse("{Id: Int, Name: String, Tags: List[String]}")); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	c := new(codec.TypeTable)
	first, err := c.DecodeType(img)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if t2, err := c.DecodeType(img); err != nil || t2 != first {
			t.Fatalf("repeated image decoded to %v, %v", t2, err)
		}
	}); n != 0 {
		t.Fatalf("a repeated type image costs %.0f allocations, want 0", n)
	}
}

// TestDeepLinkedListReopens: a linked list of 10 000 records bound without
// a declared type is declared at its inferred type, as deep as the list;
// the type image and the list both fit the codec's nesting bounds, so the
// store commits it and reopens to it.
func TestDeepLinkedListReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var v value.Value = value.Rec("Head", value.Int(0))
	for i := 1; i < 10000; i++ {
		v = value.Rec("Head", value.Int(int64(i)), "Tail", v)
	}
	if err := s.Bind("list", v, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	r, ok := re.Root("list")
	if !ok {
		t.Fatal("root lost on reopen")
	}
	if !types.Equal(r.Declared, value.TypeOf(v)) || !value.Equal(r.Value, v) {
		t.Fatal("the 10 000-record list reopened changed")
	}
}
