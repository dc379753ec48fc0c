package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
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

// v3Log is a version-3 log as the store of that version wrote it: x bound
// to 1 and then 2, each root entry carrying Int's whole type image.
const v3Log = "4442504c4c4f4703" + // "DBPLLOG" 3
	"44010178064442504c01000202020043" + "132d4a2e" + // 'D' x: Int = 1, 'C', CRC
	"44010178064442504c01000202040043" + "04dbfbff" // 'D' x: Int = 2, 'C', CRC

// TestFsckVerbNamesRefusedVersion: a log of another format version — one
// relabelled 2, and a real version-3 log — is not verified or salvaged;
// the verb fails naming the version it found, and leaves the file as it
// was.
func TestFsckVerbNamesRefusedVersion(t *testing.T) {
	v3, err := hex.DecodeString(v3Log)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version int
		img     func(path string) []byte
	}{
		{2, func(path string) []byte {
			buildStore(t, path)
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			img[len("DBPLLOG")] = 2
			return img
		}},
		{3, func(string) []byte { return v3 }},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store.log")
			img := tc.img(path)
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			salvaged := filepath.Join(dir, "salvaged.log")
			want := fmt.Sprintf("log version %d", tc.version)
			for _, args := range [][]string{{path}, {"-salvage", salvaged, path}} {
				var out strings.Builder
				err := runFsck(args, &out)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("runFsck %v = %v, want an error naming version %d\n%s", args, err, tc.version, out.String())
				}
			}
			if _, err := os.Stat(salvaged); !os.IsNotExist(err) {
				t.Fatalf("salvage target written: %v", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
				t.Fatalf("the refused log changed: %d bytes, %v (was %d)", len(got), err, len(img))
			}
		})
	}
}
