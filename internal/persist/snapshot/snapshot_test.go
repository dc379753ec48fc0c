package snapshot

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

func TestSaveResumeRoundTrip(t *testing.T) {
	env := NewEnvironment()
	env.Bind("db", value.Rec("Employees", value.NewSet(
		value.Rec("Name", value.String("J Doe")))))
	env.Bind("n", value.Int(42))

	var buf bytes.Buffer
	if err := Save(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("resumed %d bindings, want 2", got.Len())
	}
	db, ok := got.Lookup("db")
	if !ok {
		t.Fatal("db binding missing")
	}
	want, _ := env.Lookup("db")
	if !value.Equal(db, want) {
		t.Errorf("db = %s, want %s", db, want)
	}
}

func TestAllOrNothingSavesEverything(t *testing.T) {
	// The paper's criticism: "the user cannot separate the relatively
	// constant structures he has created (the database) from the extremely
	// volatile structures such as experimental programs". The scratch
	// binding comes back whether wanted or not.
	env := NewEnvironment()
	env.Bind("database", value.Rec("K", value.Int(1)))
	env.Bind("scratch_experiment", value.NewList(value.Int(1), value.Int(2)))

	var buf bytes.Buffer
	if err := Save(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Lookup("scratch_experiment"); !ok {
		t.Error("all-or-nothing persistence must drag the volatile state along")
	}
}

func TestSharingAcrossBindingsPreserved(t *testing.T) {
	shared := value.Rec("K", value.Int(7))
	env := NewEnvironment()
	env.Bind("a", value.Rec("S", shared))
	env.Bind("b", value.Rec("S", shared))

	var buf bytes.Buffer
	if err := Save(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := Resume(&buf)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := got.Lookup("a")
	bv, _ := got.Lookup("b")
	as := av.(*value.Record).MustGet("S").(*value.Record)
	bs := bv.(*value.Record).MustGet("S").(*value.Record)
	if as != bs {
		t.Error("a whole-image snapshot should preserve sharing between bindings")
	}
}

func TestEnvironmentOps(t *testing.T) {
	env := NewEnvironment()
	env.Bind("x", value.Int(1))
	env.Bind("y", value.Int(2))
	env.Bind("x", value.Int(3)) // rebind
	if v, _ := env.Lookup("x"); !value.Equal(v, value.Int(3)) {
		t.Error("rebind failed")
	}
	if names := env.Names(); len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
	if !env.Unbind("y") || env.Unbind("y") {
		t.Error("Unbind misbehaves")
	}
	if _, ok := env.Lookup("zzz"); ok {
		t.Error("Lookup of absent name")
	}
}

func TestSaveFileResumeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.img")
	env := NewEnvironment()
	env.Bind("x", value.Int(1))
	if err := saveFile(iofault.OS{}, path, env); err != nil {
		t.Fatal(err)
	}
	got, err := resumeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Lookup("x"); !value.Equal(v, value.Int(1)) {
		t.Error("file round trip failed")
	}
	// Overwrite is atomic and repeatable.
	env.Bind("x", value.Int(2))
	if err := saveFile(iofault.OS{}, path, env); err != nil {
		t.Fatal(err)
	}
	got, err = resumeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Lookup("x"); !value.Equal(v, value.Int(2)) {
		t.Error("second save not visible")
	}
}

func TestResumeCorrupt(t *testing.T) {
	if _, err := Resume(bytes.NewReader([]byte("garbage"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	var buf bytes.Buffer
	env := NewEnvironment()
	env.Bind("x", value.Int(1))
	if err := Save(&buf, env); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if _, err := Resume(bytes.NewReader(img[:len(img)-1])); err == nil {
		t.Error("truncated image should not resume")
	}
}
