package intrinsic

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file tests what replay pays for: every root entry names its
// declared type, but the log holds each distinct type's image once, in a
// 'T' record, and a store decodes each once.

// TestReopenDecodesEachTypeImageOnce: a 1 024-root store declared at 8
// types, written over 8 commit groups and holding lists and nested
// records, holds exactly 8 type images and reopens decoding them — and to
// the state it was written in. A type value adds the types it and its root
// name, which the node decoder resolves through the same table.
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
		// A 'T' record is the only place an image is decoded, and each
		// defines one ordinal: the table's size is the number of decodes.
		if n := len(re.types); n != wantDecodes {
			t.Fatalf("reopen decoded %d type images, want %d", n, wantDecodes)
		}
		if rep, err := Fsck(path); err != nil || rep.Types != wantDecodes {
			t.Fatalf("fsck counts %+v, %v; want %d types", rep, err, wantDecodes)
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

	// Two new types: the root entry's List[Type], and {Other: Int} in the
	// list node, which the node decoder resolves.
	if err := s.Bind("t", value.NewList(value.NewTypeVal(types.MustParse("{Other: Int}"))), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	reopen(len(declared) + 2)
}

// TestTypeImageHitAllocatesNothing pins the cost of a type the log
// already defines: the writer numbers it by one lookup and the reader
// resolves its ordinal by an index, and neither allocates.
func TestTypeImageHitAllocatesNothing(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "hit.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	typ := types.MustParse("{Id: Int, Name: String, Tags: List[String]}")
	if err := s.Bind("t", value.NewTypeVal(typ), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	id := s.typeID(typ)
	var b nodeBuf
	if err := encodeInline(&b, value.NewTypeVal(typ), s); err != nil {
		t.Fatal(err)
	}
	img := b.Bytes()
	if n := testing.AllocsPerRun(100, func() {
		if s.typeID(typ) != id {
			t.Fatal("a defined type was numbered again")
		}
		r := nodeReader{buf: img, pos: 1, types: s.types}
		if t2, err := r.typ(); err != nil || t2 != types.Canon(typ) {
			t.Fatalf("ordinal %d resolved to %v, %v", id, t2, err)
		}
	}); n != 0 {
		t.Fatalf("a defined type costs %.0f allocations, want 0", n)
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

// TestCompactRenumbersTypes: Compact numbers the rewritten log's types
// afresh, so an unbound root's type leaves the table, and the node images
// it keeps name the new ordinals: a commit after it writes no node, a
// binding at a type the table holds defines none, the dropped type is
// defined again by the next group that names it, and the store reopens to
// what it holds. A compaction whose rename fails keeps the old table.
func TestCompactRenumbersTypes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	inj := iofault.NewInjector(iofault.OS{})
	s, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gone := value.Rec("C", value.Int(1))
	for name, v := range map[string]value.Value{
		"a":    dynamic.Make(value.Rec("A", value.Int(1))),
		"t":    value.NewTypeVal(types.MustParse("{B: Int}")),
		"gone": gone,
	} {
		if err := s.Bind(name, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(s.types)
	s.Unbind("gone")
	inj.FailAt(iofault.OpRename, inj.Count(iofault.OpRename)+1)
	if _, err := s.Compact(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Compact over a failing rename = %v, want the injected cause", err)
	}
	if !slices.Equal(s.types, before) {
		t.Fatalf("a failed compaction changed the type table %v → %v", before, s.types)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fsckTypes := func() int {
		t.Helper()
		rep, err := Fsck(path)
		if err != nil || !fsckClean(rep) {
			t.Fatalf("fsck after compaction: %v, %v", rep, err)
		}
		return rep.Types
	}
	if n := fsckTypes(); len(s.types) != len(before)-1 || n != len(s.types) ||
		slices.ContainsFunc(s.types, func(t types.Type) bool { return types.Equal(t, value.TypeOf(gone)) }) {
		t.Fatalf("compaction kept %v (%d 'T' records) of %v, want all but %v", s.types, n, before, value.TypeOf(gone))
	}
	if st, err := s.Commit(); err != nil || st.NodesWritten != 0 {
		t.Fatalf("commit after compaction wrote %d nodes (%v), want 0", st.NodesWritten, err)
	}
	if err := s.Bind("a2", dynamic.Make(value.Rec("A", value.Int(2))), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := fsckTypes(); n != len(before)-1 {
		t.Fatalf("a binding at known types grew the table to %d, want %d", n, len(before)-1)
	}
	if err := s.Bind("gone", gone, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := fsckTypes(); n != len(before) {
		t.Fatalf("rebinding the dropped type left %d types, want %d", n, len(before))
	}
	want := renderTyped(s)
	if got := renderTyped(reopen(t, s)); !sameState(got, want) {
		t.Fatalf("reopened after compaction:\n got %v\nwant %v", got, want)
	}
}
