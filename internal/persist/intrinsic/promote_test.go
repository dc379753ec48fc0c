package intrinsic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

// TestPromoteBumpsEpochDurably: a fresh store is at epoch 0; Promote bumps
// it, the bump survives a reopen, and fsck reports it.
func TestPromoteBumpsEpochDurably(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if e := s.Epoch(); e != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", e)
	}
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	e, err := s.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if e != 1 || s.Epoch() != 1 {
		t.Fatalf("Promote = %d (Epoch() %d), want 1", e, s.Epoch())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Epoch() != 1 {
		t.Fatalf("epoch = %d after reopen, want 1", fresh.Epoch())
	}
	if r, ok := fresh.Root("x"); !ok || !value.Equal(r.Value, value.Int(1)) {
		t.Fatalf("root x lost across promote: %v, %v", r, ok)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 1 {
		t.Fatalf("fsck epoch = %d, want 1", rep.Epoch)
	}
	if !strings.Contains(rep.String(), "epoch 1") {
		t.Fatalf("fsck report does not name the epoch: %q", rep.String())
	}
}

// TestPromoteIsInverseOfEnterReplica: replica mode refuses local
// mutation; Promote re-enables it, and later groups from the *old*
// regime can no longer be applied blindly — the store is a primary now.
func TestPromoteIsInverseOfEnterReplica(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnterReplica()
	if err := s.Bind("x", value.Int(1), nil); !errors.Is(err, ErrReplica) {
		t.Fatalf("Bind in replica mode: %v, want ErrReplica", err)
	}
	if _, err := s.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatalf("Bind after Promote: %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit after Promote: %v", err)
	}
}

// TestPromoteMonotonicAcrossReopens: each promotion appends a new epoch
// record; recovery always surfaces the last committed one.
func TestPromoteMonotonicAcrossReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	for want := uint64(1); want <= 3; want++ {
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Epoch() != want-1 {
			t.Fatalf("reopen before promote %d: epoch %d, want %d", want, s.Epoch(), want-1)
		}
		if e, err := s.Promote(); err != nil || e != want {
			t.Fatalf("Promote #%d = (%d, %v)", want, e, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPromoteRefusals: the operations Promote must refuse — an open
// staged batch (its owner decides its fate first), a v1 log (nothing
// replicable afterwards), and a closed store.
func TestPromoteRefusals(t *testing.T) {
	t.Run("staged batch", func(t *testing.T) {
		s := open(t)
		if err := s.Bind("x", value.Int(1), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.StageCommit(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Promote(); err == nil {
			t.Fatal("Promote with a staged batch open succeeded")
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Promote(); err != nil {
			t.Fatalf("Promote after SyncBatch: %v", err)
		}
	})
	t.Run("v1 log", func(t *testing.T) {
		// An unchecksummed log never opens, so there is no store to promote
		// and no history without group checksums to replicate afterwards.
		path := filepath.Join(t.TempDir(), "v1.log")
		if err := os.WriteFile(path, v1LogImage(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(path); !errors.Is(err, ErrLogVersion) {
			if err == nil {
				s.Close()
			}
			t.Fatalf("Open on v1 log: %v, want ErrLogVersion", err)
		}
	})
	t.Run("closed", func(t *testing.T) {
		s := open(t)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Promote(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Promote on closed store: %v, want ErrClosed", err)
		}
	})
}

// promoteWorkload is the scripted session for the promotion crash matrix:
// one durable commit, the promotion, one more commit under the new epoch.
// It reports how far it got.
func promoteWorkload(fsys iofault.FS, path string) (epoch uint64, committedY bool) {
	s, err := OpenFS(fsys, path)
	if err != nil {
		return 0, false
	}
	defer s.Close()
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		return 0, false
	}
	if _, err := s.Commit(); err != nil {
		return 0, false
	}
	e, err := s.Promote()
	if err != nil {
		return 0, false
	}
	if err := s.Bind("y", value.Int(2), nil); err != nil {
		return e, false
	}
	if _, err := s.Commit(); err != nil {
		return e, false
	}
	return e, true
}

// TestPromoteCrashMatrix replays the promotion workload crashing at every
// mutating I/O boundary, with and without losing unsynced page-cache
// data. The epoch bump must be atomic: the reopened store shows epoch 0
// or epoch 1 — never a torn record, never a refused open — and the roots
// are always a committed checkpoint consistent with the epoch ("y" exists
// only under epoch 1, "x" always exists once the epoch does).
func TestPromoteCrashMatrix(t *testing.T) {
	probe := iofault.NewInjector(iofault.OS{})
	epoch, full := promoteWorkload(probe, filepath.Join(t.TempDir(), "probe.log"))
	if epoch != 1 || !full {
		t.Fatalf("fault-free workload = (epoch %d, committedY %v), want (1, true)", epoch, full)
	}
	n := probe.Ops()
	if n < 8 {
		t.Fatalf("workload performed only %d mutating ops", n)
	}

	for _, lose := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("lose=%v/op=%d", lose, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "store.log")
				inj := iofault.NewInjector(iofault.OS{})
				inj.LoseUnsynced = lose
				inj.CrashAt(k)
				promoteWorkload(inj, path)
				if !inj.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}

				s, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", k, err)
				}
				defer s.Close()
				e := s.Epoch()
				if e != 0 && e != 1 {
					t.Fatalf("crash at op %d (lose=%v): reopened epoch %d, want 0 or 1 (torn bump?)", k, lose, e)
				}
				_, hasX := s.Root("x")
				_, hasY := s.Root("y")
				if e == 1 && !hasX {
					t.Fatalf("crash at op %d: epoch 1 durable but the commit before it (x) is not", k)
				}
				if hasY && e != 1 {
					t.Fatalf("crash at op %d: post-promotion commit (y) durable at epoch %d", k, e)
				}
				// And the survivor is a working primary: it can commit.
				if err := s.Bind("z", value.Int(3), nil); err != nil {
					t.Fatalf("Bind after recovery: %v", err)
				}
				if _, err := s.Commit(); err != nil {
					t.Fatalf("Commit after recovery: %v", err)
				}
			})
		}
	}
}

// TestVerifyTailPrefixProperty: for every offset into a real log, the
// primary's own bytes verify clean (full overlap, no error), and the same
// bytes with any single byte flipped report a DivergenceError at exactly
// the flipped offset. This is the property the rejoin check relies on: a
// follower's log either IS a byte prefix of the primary's or the first
// disagreement is named precisely.
func TestVerifyTailPrefixProperty(t *testing.T) {
	p, _ := primaryFixture(t)
	raw := allGroups(t, p)
	end := p.DurableEnd()
	if end != HeaderSize+int64(len(raw)) {
		t.Fatalf("fixture durable end %d does not match %d raw bytes", end, len(raw))
	}

	// Clean property, at every starting offset (byte-granular, not just
	// group boundaries: the comparison must not care about framing).
	for from := HeaderSize; from <= end; from += 7 {
		chunk := raw[from-HeaderSize:]
		n, err := p.VerifyTail(chunk, from)
		if err != nil {
			t.Fatalf("VerifyTail(clean, %d): %v", from, err)
		}
		if n != int64(len(chunk)) {
			t.Fatalf("VerifyTail(clean, %d) = %d, want full overlap %d", from, n, len(chunk))
		}
	}

	// Flip property: every corrupted byte is caught at its exact offset.
	for i := 0; i < len(raw); i += 11 {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		n, err := p.VerifyTail(bad, HeaderSize)
		var de *DivergenceError
		if !errors.As(err, &de) || !errors.Is(err, ErrDiverged) {
			t.Fatalf("VerifyTail(flip@%d) err = %v, want DivergenceError", i, err)
		}
		wantOff := HeaderSize + int64(i)
		if de.Offset != wantOff || n != int64(i) {
			t.Fatalf("flip@%d reported (overlap %d, offset %d), want (%d, %d)",
				i, n, de.Offset, i, wantOff)
		}
	}

	// Bytes past the durable end are not compared: overlap clamps.
	extra := append(append([]byte(nil), raw...), []byte("future bytes the primary does not have")...)
	n, err := p.VerifyTail(extra, HeaderSize)
	if err != nil || n != int64(len(raw)) {
		t.Fatalf("VerifyTail(past end) = (%d, %v), want (%d, nil)", n, err, len(raw))
	}
}

// TestRejoinDivergenceDetection builds the real failover shape: two
// stores share a history, then fork — the old primary commits one way,
// the new primary another. Verifying the new primary's bytes against the
// old one's log must refuse with a DivergenceError inside the forked
// region, and must NOT truncate or modify the old primary's log.
func TestRejoinDivergenceDetection(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.log")
	old, err := Open(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := old.Bind("shared", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	sharedEnd := old.DurableEnd()

	// Clone the shared history into the "new primary" file.
	newPath := filepath.Join(dir, "new.log")
	bytesShared, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, bytesShared, 0o644); err != nil {
		t.Fatal(err)
	}
	np, err := Open(newPath)
	if err != nil {
		t.Fatal(err)
	}
	defer np.Close()

	// Fork: each side commits different data past the shared point.
	if err := old.Bind("fork", value.String("old primary kept going"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := np.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := np.Bind("fork", value.String("new primary after promote"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := np.Commit(); err != nil {
		t.Fatal(err)
	}

	// The shared prefix still agrees…
	newRaw, _, _, err := np.ReadGroupsAt(HeaderSize, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	n, err := old.VerifyTail(newRaw[:sharedEnd-HeaderSize], HeaderSize)
	if err != nil || n != sharedEnd-HeaderSize {
		t.Fatalf("shared prefix verify = (%d, %v), want (%d, nil)", n, err, sharedEnd-HeaderSize)
	}
	// …and the full stream is refused with a typed divergence inside the
	// forked region.
	endBefore := old.DurableEnd()
	_, err = old.VerifyTail(newRaw, HeaderSize)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("verify across the fork: %v, want DivergenceError", err)
	}
	if de.Offset < sharedEnd || de.Offset >= old.DurableEnd() {
		t.Fatalf("divergence offset %d outside the forked region [%d,%d)", de.Offset, sharedEnd, old.DurableEnd())
	}
	if old.DurableEnd() != endBefore {
		t.Fatalf("VerifyTail changed the durable end %d -> %d: silent truncation", endBefore, old.DurableEnd())
	}
	// The old primary's forked commit is still readable — nothing was lost.
	if r, ok := old.Root("fork"); !ok || !value.Equal(r.Value, value.String("old primary kept going")) {
		t.Fatalf("old primary's forked root damaged after verify: %v, %v", r, ok)
	}
}
