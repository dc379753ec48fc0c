package intrinsic

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

// render summarizes the visible state of a store — every root, printed —
// for equality checks between a live store and its reopened image.
func render(s *Store) map[string]string {
	out := map[string]string{}
	for _, n := range s.Names() {
		if r, ok := s.Root(n); ok {
			out[n] = r.Value.String()
		}
	}
	return out
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// crashWorkload runs a fixed scripted session against a store on fsys:
// three commits with a Compact between the second and third. It returns
// the rendered state after each *successful* commit. Every durable point
// is a checkpoint; Compact does not change the logical state (it commits
// first), so it adds no checkpoint. Errors end the run early — exactly
// what a crash does.
func crashWorkload(fsys iofault.FS, path string) (checkpoints []map[string]string) {
	s, err := OpenFS(fsys, path)
	if err != nil {
		return nil
	}
	defer s.Close()
	step := func(mutate func() error) bool {
		if err := mutate(); err != nil {
			return false
		}
		if _, err := s.Commit(); err != nil {
			return false
		}
		checkpoints = append(checkpoints, render(s))
		return true
	}

	if !step(func() error {
		return s.Bind("emp", value.Rec("Name", value.String("J Doe"), "Empno", value.Int(1)), nil)
	}) {
		return
	}
	if !step(func() error {
		r, _ := s.Root("emp")
		r.Value.(*value.Record).Set("Empno", value.Int(2))
		return s.Bind("dept", value.NewSet(value.Rec("Dname", value.String("Sales"))), nil)
	}) {
		return
	}
	if _, err := s.Compact(); err != nil {
		return
	}
	// The last group's root delta has both halves: an upsert and a delete.
	step(func() error { s.Unbind("dept"); return s.Bind("n", value.Int(42), nil) })
	return
}

// TestCrashAtEveryIOBoundary is the crash matrix: a probe run counts the
// mutating I/O operations of the scripted workload, then the workload is
// re-run crashing at every single boundary (with and without losing
// unsynced page-cache data). After each crash the store is reopened over
// the real files and must hold *exactly* a committed state: the last
// checkpoint the crashed run completed, or — when the crash hit inside a
// commit whose bytes were already fully durable — the very next one.
// Anything else (a torn state, a panic, a refused open) fails.
func TestCrashAtEveryIOBoundary(t *testing.T) {
	probe := iofault.NewInjector(iofault.OS{})
	want := crashWorkload(probe, filepath.Join(t.TempDir(), "store.log"))
	if len(want) != 3 {
		t.Fatalf("fault-free workload made %d checkpoints, want 3", len(want))
	}
	n := probe.Ops()
	if n < 10 {
		t.Fatalf("workload performed only %d mutating ops", n)
	}

	for _, lose := range []bool{false, true} {
		for k := 1; k <= n; k++ {
			t.Run(fmt.Sprintf("lose=%v/op=%d", lose, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "store.log")
				inj := iofault.NewInjector(iofault.OS{})
				inj.LoseUnsynced = lose
				inj.CrashAt(k)
				got := crashWorkload(inj, path)
				if !inj.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}

				s, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", k, err)
				}
				defer s.Close()
				checkLifecycle(t, s)
				state := render(s)

				// The crashed run completed len(got) checkpoints. An
				// in-flight commit is all-or-nothing: the reopened state is
				// that checkpoint or, if the group was fully written before
				// the crash boundary, the next one — never anything between.
				allowed := []map[string]string{{}}
				if len(got) > 0 {
					allowed = []map[string]string{got[len(got)-1]}
				}
				if len(got) < len(want) {
					allowed = append(allowed, want[len(got)])
				}
				for _, a := range allowed {
					if sameState(state, a) {
						return
					}
				}
				t.Fatalf("crash at op %d (lose=%v): reopened state %v not a committed checkpoint (allowed %v)",
					k, lose, state, allowed)
			})
		}
	}
}

// TestCommitFailureThenRecovery is the regression for the torn-commit bug:
// a failed write or sync inside Commit must roll the log back to the last
// durable group, so the *next* commit appends cleanly instead of landing
// after torn garbage.
func TestCommitFailureThenRecovery(t *testing.T) {
	for _, op := range []iofault.Op{iofault.OpWrite, iofault.OpSync} {
		t.Run(string(op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.log")
			inj := iofault.NewInjector(iofault.OS{})
			s, err := OpenFS(inj, path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Bind("x", value.Int(1), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err != nil {
				t.Fatal(err)
			}

			inj.FailAt(op, inj.Count(op)+1)
			if err := s.Bind("x", value.Int(2), nil); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(); err == nil {
				t.Fatalf("Commit with injected %s failure succeeded", op)
			} else if !errors.Is(err, iofault.ErrInjected) {
				t.Fatalf("Commit error %v does not wrap ErrInjected", err)
			}

			// The rollback leaves the log clean; retrying the commit works
			// and persists the pending binding.
			if _, err := s.Commit(); err != nil {
				t.Fatalf("Commit after rollback: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := rootInt(t, path, "x"); got != 2 {
				t.Fatalf("x = %d after reopen, want 2", got)
			}
			rep, err := Fsck(path)
			if err != nil {
				t.Fatal(err)
			}
			if !fsckClean(rep) {
				t.Fatalf("log not clean after rollback + retry: %v", rep)
			}
		})
	}
}

// TestPoisonedStoreRecoversViaAbort drives the worst case: the commit's
// write fails *and* the rollback truncate fails, leaving torn bytes the
// store cannot remove. Further commits must refuse with ErrPoisoned until
// Abort replays the log, after which committing works again.
func TestPoisonedStoreRecoversViaAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	inj := iofault.NewInjector(iofault.OS{})
	s, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	inj.FailAt(iofault.OpWrite, inj.Count(iofault.OpWrite)+1)
	inj.FailAt(iofault.OpTruncate, inj.Count(iofault.OpTruncate)+1)
	if err := s.Bind("x", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err == nil {
		t.Fatal("Commit with failing write+truncate succeeded")
	}
	if _, err := s.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit on poisoned store: %v, want ErrPoisoned", err)
	}
	if _, err := s.Compact(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Compact on poisoned store: %v, want ErrPoisoned", err)
	}

	if err := s.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	// Abort discarded the uncommitted generation and the torn bytes are
	// trimmed by the next append.
	if r, _ := s.Root("x"); !value.Equal(r.Value, value.Int(1)) {
		t.Fatalf("x = %v after Abort, want 1", r.Value)
	}
	if err := s.Bind("x", value.Int(3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit after Abort: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rootInt(t, path, "x"); got != 3 {
		t.Fatalf("x = %d after reopen, want 3", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after poison recovery: %v", rep)
	}
}
