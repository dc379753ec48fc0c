package snapshot

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

// saveEnv builds a small environment distinguishable across generations.
func saveEnv(gen int64) *Environment {
	e := NewEnvironment()
	e.Bind("gen", value.Int(gen))
	e.Bind("greeting", value.String("hello"))
	return e
}

// saveFile saves e to path through fsys as a caller keeping its core image
// in a file does: atomically and durably (temporary file, fsync, rename,
// directory fsync), so a crash mid-save, or just after the rename, never
// destroys the previous image.
func saveFile(fsys iofault.FS, path string, e *Environment) error {
	return iofault.AtomicWriteFile(fsys, path, func(w io.Writer) error { return Save(w, e) })
}

// resumeFile resumes from a file written by saveFile.
func resumeFile(path string) (*Environment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Resume(f)
}

func mustResume(t *testing.T, path string) *Environment {
	t.Helper()
	e, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resumeFile: %v", err)
	}
	return e
}

func gen(t *testing.T, e *Environment) int64 {
	t.Helper()
	v, ok := e.Lookup("gen")
	if !ok {
		t.Fatalf("no gen binding")
	}
	return int64(v.(value.Int))
}

// TestSaveFileFaultAtomicity drives saveFile through an injector failing
// each mutating op kind in turn, and asserts the previous image is always
// intact: a failed save is a no-op, never a torn file.
func TestSaveFileFaultAtomicity(t *testing.T) {
	for _, op := range []iofault.Op{
		iofault.OpCreateTemp, iofault.OpWrite, iofault.OpSync,
		iofault.OpClose, iofault.OpRename, iofault.OpSyncDir,
	} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "env.img")
			if err := saveFile(iofault.OS{}, path, saveEnv(1)); err != nil {
				t.Fatalf("baseline saveFile: %v", err)
			}

			inj := iofault.NewInjector(iofault.OS{})
			inj.FailAt(op, 1)
			err := saveFile(inj, path, saveEnv(2))
			if op == iofault.OpSyncDir {
				// The rename already happened; a failed directory fsync
				// must still be reported, but the new image is in place.
				if err == nil {
					t.Fatalf("saveFile: expected injected %s error", op)
				}
				if g := gen(t, mustResume(t, path)); g != 2 {
					t.Fatalf("gen = %d, want 2 after post-rename SyncDir failure", g)
				}
				return
			}
			if err == nil {
				t.Fatalf("saveFile: expected injected %s error", op)
			}
			if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("saveFile error %v does not wrap ErrInjected", err)
			}
			if !errors.Is(err, iofault.ErrIOFailed) {
				t.Fatalf("saveFile error %v does not wrap ErrIOFailed", err)
			}
			if g := gen(t, mustResume(t, path)); g != 1 {
				t.Fatalf("gen = %d, want 1 (previous image) after failed %s", g, op)
			}
		})
	}
}

// TestSaveFileCrashEveryBoundary crashes at every I/O boundary of a save
// over an existing image; after each crash the file must hold either the
// old or the new environment, never garbage.
func TestSaveFileCrashEveryBoundary(t *testing.T) {
	// Count boundaries with a fault-free probe run.
	probeDir := t.TempDir()
	probePath := filepath.Join(probeDir, "env.img")
	if err := saveFile(iofault.OS{}, probePath, saveEnv(1)); err != nil {
		t.Fatalf("probe baseline: %v", err)
	}
	probe := iofault.NewInjector(iofault.OS{})
	if err := saveFile(probe, probePath, saveEnv(2)); err != nil {
		t.Fatalf("probe save: %v", err)
	}
	n := probe.Ops()
	if n == 0 {
		t.Fatalf("probe recorded no mutating ops")
	}

	for k := 1; k <= n; k++ {
		for _, lose := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "env.img")
			if err := saveFile(iofault.OS{}, path, saveEnv(1)); err != nil {
				t.Fatalf("baseline: %v", err)
			}
			inj := iofault.NewInjector(iofault.OS{})
			inj.LoseUnsynced = lose
			inj.CrashAt(k)
			err := saveFile(inj, path, saveEnv(2))
			if err == nil && k <= n-0 && !inj.Crashed() {
				t.Fatalf("crash %d: injector never fired", k)
			}
			g := gen(t, mustResume(t, path))
			if g != 1 && g != 2 {
				t.Fatalf("crash %d (lose=%v): gen = %d, want 1 or 2", k, lose, g)
			}
			if err != nil && g == 2 && !errors.Is(err, iofault.ErrCrashed) {
				t.Fatalf("crash %d: unexpected error %v", k, err)
			}
		}
	}
}
