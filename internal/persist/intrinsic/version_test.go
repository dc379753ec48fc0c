package intrinsic

import (
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/value"
)

// writeV1Log handcrafts a version-1 (checksum-free) log holding one
// committed root x = 7, byte for byte what the pre-v2 store wrote.
func writeV1Log(t *testing.T, path string) {
	t.Helper()
	var b nodeBuf
	b.WriteString(logMagic)
	b.WriteByte(logVersion1)
	b.WriteByte(recRoots)
	b.uvarint(1)
	intEntry(t, &b, "x", 7)
	b.WriteByte(recCommit) // v1: no checksum after the commit marker
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV1LogCompat: a v1 log still opens, appends stay v1 (a mixed-version
// log would be unreadable), and Compact upgrades the file to v2.
func TestV1LogCompat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.log")
	writeV1Log(t, path)

	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open v1 log: %v", err)
	}
	if r, ok := s.Root("x"); !ok || !value.Equal(r.Value, value.Int(7)) {
		t.Fatalf("v1 root x = %v, want 7", r)
	}
	// Bind and unbind z across two v1 groups: each carries a whole 'R'
	// table, which replay must read as "replace", dropping z again.
	if err := s.Bind("z", value.Int(9), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit onto v1 log: %v", err)
	}
	s.Unbind("z")
	if err := s.Bind("y", value.Int(8), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit onto v1 log: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The appended group is v1 too: the log stays structurally clean at
	// version 1 (an appended checksum would read as a stray record).
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != logVersion1 {
		t.Fatalf("version = %d after append, want 1", rep.Version)
	}
	if !rep.Clean() || rep.Commits != 3 || rep.Roots != 2 {
		t.Fatalf("report = %+v, want clean with 3 commits and 2 roots", rep)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen v1 log: %v", err)
	}
	if r, ok := s2.Root("y"); !ok || !value.Equal(r.Value, value.Int(8)) {
		t.Fatalf("appended v1 root y = %v, want 8", r)
	}
	if _, ok := s2.Root("z"); ok {
		t.Fatal("z survived the v1 table that dropped it")
	}

	// Compact rewrites at the current version: the upgrade path to v2 —
	// and to root deltas, the next commit's included.
	if _, err := s2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := s2.Bind("w", value.Int(6), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Commit(); err != nil {
		t.Fatalf("Commit onto the upgraded log: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rep2, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Version != logVersion2 {
		t.Fatalf("version = %d after Compact, want 2", rep2.Version)
	}
	if !rep2.Clean() {
		t.Fatalf("upgraded log not clean: %+v", rep2)
	}

	s3, err := Open(path)
	if err != nil {
		t.Fatalf("reopen upgraded log: %v", err)
	}
	defer s3.Close()
	if r, ok := s3.Root("x"); !ok || !value.Equal(r.Value, value.Int(7)) {
		t.Fatalf("upgraded root x = %v, want 7", r)
	}
	if r, ok := s3.Root("y"); !ok || !value.Equal(r.Value, value.Int(8)) {
		t.Fatalf("upgraded root y = %v, want 8", r)
	}
	if r, ok := s3.Root("w"); !ok || !value.Equal(r.Value, value.Int(6)) || len(s3.Names()) != 3 {
		t.Fatalf("upgraded log holds %v (w = %v), want w, x, y", s3.Names(), r)
	}
}
