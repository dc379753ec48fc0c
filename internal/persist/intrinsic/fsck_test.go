package intrinsic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/value"
)

// fsckClean reports whether fsck found the log fully valid: no torn tail, no
// corruption.
func fsckClean(r *FsckReport) bool { return !r.TornTail && r.Corrupt == nil }

// buildGenerations creates a store at path with `commits` committed
// generations of a root "x" (values 1..commits) and closes it.
func buildGenerations(t *testing.T, path string, commits int) {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= commits; i++ {
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

func rootInt(t *testing.T, path, name string) int64 {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	r, ok := s.Root(name)
	if !ok {
		t.Fatalf("no root %q", name)
	}
	return int64(r.Value.(value.Int))
}

func TestFsckCleanLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	buildGenerations(t, path, 3)

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("report not clean: %v", rep)
	}
	if rep.Version != logVersion {
		t.Errorf("version = %d, want %d", rep.Version, logVersion)
	}
	if rep.Commits != 3 {
		t.Errorf("commits = %d, want 3", rep.Commits)
	}
	if rep.GoodEnd != rep.Size {
		t.Errorf("goodEnd = %d, size = %d; want equal on a clean log", rep.GoodEnd, rep.Size)
	}
	if rep.Roots != 1 {
		t.Errorf("roots = %d, want 1", rep.Roots)
	}
	if rep.Types != 1 {
		t.Errorf("types = %d, want 1: every generation names Int", rep.Types)
	}
}

// TestFsckFoldsRootDeltas: fsck's root count is the running table folded
// over every group, not the length of the last root record — on a log
// whose later groups mostly delete, the two differ by the whole table.
func TestFsckFoldsRootDeltas(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	commit := func() {
		t.Helper()
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if err := s.Bind(fmt.Sprintf("r%02d", i), value.Int(int64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	for i := 0; i < 45; i++ { // nine delete-only groups
		s.Unbind(fmt.Sprintf("r%02d", i))
		if i%5 == 4 {
			commit()
		}
	}
	if err := s.Bind("r00", value.Int(100), nil); err != nil { // back again
		t.Fatal(err)
	}
	s.Unbind("r49")
	commit()
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Names()); rep.Roots != want || want != 5 {
		t.Fatalf("fsck reports %d roots, store holds %d, want 5", rep.Roots, want)
	}
	if !fsckClean(rep) || rep.Commits != 11 {
		t.Fatalf("report = %+v, want clean with 11 commits", rep)
	}
}

func TestFsckTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	buildGenerations(t, path, 2)
	clean, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop bytes off the final group: the signature of a crash mid-commit.
	if err := os.Truncate(path, clean.Size-3); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("torn tail misreported as corruption: %v", rep.Corrupt)
	}
	if !rep.TornTail {
		t.Fatal("torn tail not reported")
	}
	if rep.Commits != 1 {
		t.Errorf("commits = %d, want 1", rep.Commits)
	}
	// Open tolerates the torn tail and yields the first generation.
	if got := rootInt(t, path, "x"); got != 1 {
		t.Errorf("x = %d, want 1", got)
	}
}

func TestFsckBitFlipIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	buildGenerations(t, path, 2)

	// Flip a bit in the stored checksum of the final commit group: the
	// group parses completely, so v2 must classify this as corruption at
	// the group's start offset — never as a torn tail.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0x40
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt == nil {
		t.Fatal("bit flip not reported as corruption")
	}
	if rep.Corrupt.Offset != rep.GoodEnd {
		t.Errorf("corrupt offset = %d, want start of last group %d", rep.Corrupt.Offset, rep.GoodEnd)
	}
	if rep.Commits != 1 {
		t.Errorf("commits = %d, want 1 valid group before the damage", rep.Commits)
	}

	// Open refuses a corrupt log with the typed error.
	_, err = Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open error = %v, want *CorruptError", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open error %v does not wrap ErrCorrupt", err)
	}

	// Salvage recovers the prefix before the damage.
	dst := filepath.Join(t.TempDir(), "salvaged.log")
	srep, err := Salvage(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if srep.GoodEnd != rep.GoodEnd {
		t.Errorf("salvage kept %d bytes, want %d", srep.GoodEnd, rep.GoodEnd)
	}
	if got := rootInt(t, dst, "x"); got != 1 {
		t.Errorf("salvaged x = %d, want first generation 1", got)
	}
	if rep2, err := Fsck(dst); err != nil || !fsckClean(rep2) {
		t.Fatalf("salvaged log not clean: %v, %v", rep2, err)
	}
}

func TestSalvageTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	buildGenerations(t, path, 2)
	clean, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, clean.Size-2); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(t.TempDir(), "salvaged.log")
	rep, err := Salvage(path, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Fatal("source torn tail not reported")
	}
	if rep2, err := Fsck(dst); err != nil || !fsckClean(rep2) {
		t.Fatalf("salvaged log not clean: %v, %v", rep2, err)
	}
	if got := rootInt(t, dst, "x"); got != 1 {
		t.Errorf("salvaged x = %d, want 1", got)
	}
}

func TestFsckMissingHeaderVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	if err := os.WriteFile(path, []byte(logMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	// A short header is what a crash during store creation leaves behind:
	// recoverable, classified as a torn tail with nothing salvageable.
	if rep.Corrupt != nil {
		t.Fatalf("short header misreported as corruption: %v", rep.Corrupt)
	}
	if !rep.TornTail || rep.GoodEnd != 0 {
		t.Fatalf("report = %+v, want torn tail with goodEnd 0", rep)
	}
	// Salvage of a headerless file yields a fresh empty log.
	dst := filepath.Join(t.TempDir(), "salvaged.log")
	if _, err := Salvage(path, dst); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dst)
	if err != nil {
		t.Fatalf("salvaged empty log does not open: %v", err)
	}
	s.Close()
}
