package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/value"
)

func buildStore(t *testing.T, path string) {
	t.Helper()
	s, err := intrinsic.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Bind("x", value.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFsckVerbClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	buildStore(t, path)
	var out strings.Builder
	if err := runFsck([]string{path}, &out); err != nil {
		t.Fatalf("runFsck: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("output missing clean verdict:\n%s", out.String())
	}
}

func TestFsckVerbCorruptAndSalvage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.log")
	buildStore(t, path)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x01 // damage the last group's checksum
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	salvaged := filepath.Join(dir, "salvaged.log")
	var out strings.Builder
	err = runFsck([]string{"-salvage", salvaged, path}, &out)
	if err == nil {
		t.Fatalf("runFsck on corrupt log succeeded:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "CORRUPT at offset") {
		t.Errorf("output missing corruption offset:\n%s", out.String())
	}
	// The salvaged copy opens cleanly at the last good commit.
	s, err := intrinsic.Open(salvaged)
	if err != nil {
		t.Fatalf("salvaged log does not open: %v", err)
	}
	defer s.Close()
	r, ok := s.Root("x")
	if !ok || int64(r.Value.(value.Int)) != 1 {
		t.Errorf("salvaged root = %v, want x = 1", r)
	}
}

// TestFsckVerbNamesRefusedVersion: a log of another format version is not
// verified or salvaged; the verb fails naming the version it found.
func TestFsckVerbNamesRefusedVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.log")
	buildStore(t, path)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len("DBPLLOG")] = 2
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	salvaged := filepath.Join(dir, "salvaged.log")
	var out strings.Builder
	err = runFsck([]string{"-salvage", salvaged, path}, &out)
	if err == nil || !strings.Contains(err.Error(), "log version 2") {
		t.Fatalf("runFsck on a v2 log = %v, want an error naming version 2\n%s", err, out.String())
	}
	if _, err := os.Stat(salvaged); !os.IsNotExist(err) {
		t.Fatalf("salvage target written: %v", err)
	}
}
