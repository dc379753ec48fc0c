package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/pmap"
	"dbpl/internal/value"
)

// batchMutations is the scripted history the batching tests share: six
// commit groups touching every record kind — node images, root-table
// rewrites (rebind and unbind), and an index-definition change. Each
// element is the mutation one commit group captures.
func batchMutations() []func(*Store) error {
	return []func(*Store) error{
		func(s *Store) error { return s.Bind("a", value.Int(1), nil) },
		func(s *Store) error {
			return s.Bind("emp", value.Rec("Name", value.String("J Doe"), "Empno", value.Int(7)), nil)
		},
		func(s *Store) error { s.DeclareIndex("Empno"); return s.Bind("a", value.Int(2), nil) },
		func(s *Store) error {
			return s.Bind("emps", value.NewSet(
				value.Rec("Empno", value.Int(1), "Name", value.String("A")),
				value.Rec("Empno", value.Int(2), "Name", value.String("B")),
			), nil)
		},
		func(s *Store) error { s.Unbind("a"); return s.Bind("tag", value.String("v1"), nil) },
		func(s *Store) error { return s.Bind("n", value.Int(42), nil) },
	}
}

// serialHistory commits the script one group per fsync and returns the
// rendered state after each commit plus the final log bytes — the ground
// truth every batched run is compared against.
func serialHistory(t *testing.T) (states []map[string]string, raw []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serial.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, m := range batchMutations() {
		if err := m(s); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		states = append(states, render(s))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return states, raw
}

// TestStageSyncBatchRoundTrip: staged groups are invisible to the durable
// end until one SyncBatch promotes them all, and the result survives a
// reopen. The staged end meanwhile tracks every staged group.
func TestStageSyncBatchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("y", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if got := s.staged; got != 2 {
		t.Fatalf("staged = %d, want 2", got)
	}
	if de := s.DurableEnd(); de != HeaderSize {
		t.Fatalf("durable end %d moved before SyncBatch (header is %d)", de, HeaderSize)
	}
	if se := s.appendPos(); se <= HeaderSize {
		t.Fatalf("staged end %d did not advance past header", se)
	}

	n, err := s.SyncBatch()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("SyncBatch promoted %d groups, want 2", n)
	}
	if s.staged != 0 {
		t.Fatalf("%d groups still staged after SyncBatch", s.staged)
	}
	if s.DurableEnd() != s.appendPos() {
		t.Fatalf("durable end %d != staged end %d after SyncBatch", s.DurableEnd(), s.appendPos())
	}
	// An empty SyncBatch trivially succeeds.
	if n, err := s.SyncBatch(); n != 0 || err != nil {
		t.Fatalf("empty SyncBatch = (%d, %v), want (0, nil)", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rootInt(t, path, "x"); got != 1 {
		t.Fatalf("x = %d after reopen, want 1", got)
	}
	if got := rootInt(t, path, "y"); got != 2 {
		t.Fatalf("y = %d after reopen, want 2", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after batched commit: %v", rep)
	}
}

// TestBatchedLogByteIdenticalToSerial enumerates every way to cut the
// six-group script into SyncBatch batches (2^5 partitions) and checks the
// resulting log is byte-for-byte the log serial commits produce: batching
// changes when bytes become durable, never which bytes are written. This
// is what keeps replication and recovery oblivious to group commit. It
// holds for both stage functions: the script only binds and unbinds, which
// is StageBound's contract, so walking the touched roots alone must find
// the same nodes and the same root delta as walking everything.
func TestBatchedLogByteIdenticalToSerial(t *testing.T) {
	_, want := serialHistory(t)
	muts := batchMutations()
	stagers := map[string]func(*Store) (CommitStats, error){
		"StageCommit": (*Store).StageCommit,
		"StageBound":  (*Store).StageBound,
	}
	for name, stage := range stagers {
		for mask := 0; mask < 1<<(len(muts)-1); mask++ {
			t.Run(fmt.Sprintf("%s/cuts=%05b", name, mask), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "batched.log")
				s, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i, m := range muts {
					if err := m(s); err != nil {
						t.Fatalf("mutation %d: %v", i, err)
					}
					if _, err := stage(s); err != nil {
						t.Fatalf("stage %d: %v", i, err)
					}
					if i == len(muts)-1 || mask&(1<<i) != 0 {
						if _, err := s.SyncBatch(); err != nil {
							t.Fatalf("sync after group %d: %v", i, err)
						}
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("batched log (%d bytes) differs from serial log (%d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestBatchPrefixReplayProperty is the recovery half of the invisibility
// property: replaying any group-boundary prefix of a group-committed log
// equals applying the same commits singly up to that point. Every prefix
// of the batched file (identical to the serial file, per the test above)
// is materialized as its own log and opened cold.
func TestBatchPrefixReplayProperty(t *testing.T) {
	states, raw := serialHistory(t)
	groups := splitGroups(t, raw[HeaderSize:])
	if len(groups) != len(states) {
		t.Fatalf("%d groups for %d states", len(groups), len(states))
	}
	end := HeaderSize
	for i, g := range groups {
		end += int64(len(g))
		path := filepath.Join(t.TempDir(), fmt.Sprintf("prefix%d.log", i))
		if err := os.WriteFile(path, raw[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("open prefix of %d groups: %v", i+1, err)
		}
		got := render(s)
		s.Close()
		if !sameState(got, states[i]) {
			t.Fatalf("prefix of %d groups replays to %v, want serial state %v", i+1, got, states[i])
		}
	}
}

// TestBatchedAppendCrashMatrix is the group-commit crash matrix: the
// scripted batched workload (six staged groups, fsyncs after groups 2, 5
// and 6) is re-run crashing at every mutating I/O boundary, with and
// without losing unsynced page-cache data. The reopened store must hold a
// state some *serial prefix* of the staged history produced — a group
// boundary, never part of one group — and never less than what SyncBatch
// acked before the crash.
func TestBatchedAppendCrashMatrix(t *testing.T) {
	workload := func(fsys iofault.FS, path string) (states []map[string]string, acked int) {
		s, err := OpenFS(fsys, path)
		if err != nil {
			return nil, 0
		}
		defer s.Close()
		for i, m := range batchMutations() {
			if err := m(s); err != nil {
				return states, acked
			}
			if _, err := s.StageCommit(); err != nil {
				return states, acked
			}
			states = append(states, render(s))
			if i == 1 || i == 4 || i == 5 {
				n, err := s.SyncBatch()
				if err != nil {
					return states, acked
				}
				acked += n
			}
		}
		return states, acked
	}

	probe := iofault.NewInjector(iofault.OS{})
	allStates, allAcked := workload(probe, filepath.Join(t.TempDir(), "store.log"))
	if len(allStates) != 6 || allAcked != 6 {
		t.Fatalf("fault-free workload staged %d groups, acked %d; want 6, 6", len(allStates), allAcked)
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
				states, acked := workload(inj, path)
				if !inj.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}

				s, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after crash at op %d: %v", k, err)
				}
				defer s.Close()
				checkLifecycle(t, s)
				got := render(s)

				// Allowed: any state at or past the acked floor that some
				// staged group produced. Staged-but-unsynced groups may
				// survive a keep-cache crash (extra durability is fine);
				// an acked group may never be missing; a torn group may
				// never be visible.
				var allowed []map[string]string
				if acked == 0 {
					allowed = append(allowed, map[string]string{})
				}
				for j := acked - 1; j < len(states); j++ {
					if j >= 0 {
						allowed = append(allowed, states[j])
					}
				}
				for _, a := range allowed {
					if sameState(got, a) {
						return
					}
				}
				t.Fatalf("crash at op %d (lose=%v): reopened state %v is not a staged-group boundary at or past the acked floor (acked %d, staged %d)",
					k, lose, got, acked, len(states))
			})
		}
	}
}

// TestSyncBatchFailureFailsWholeBatch: an injected fsync failure under
// SyncBatch rolls every staged group back to the pre-batch durable end —
// the batch fails together, with one shared cause — and the store stays
// usable: the same mutations re-commit cleanly afterwards.
func TestSyncBatchFailureFailsWholeBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	inj := iofault.NewInjector(iofault.OS{})
	s, err := OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bind("base", value.Int(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	durable := s.DurableEnd()

	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("y", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}

	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if _, err := s.SyncBatch(); err == nil {
		t.Fatal("SyncBatch with injected fsync failure succeeded")
	} else if !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("SyncBatch error %v does not wrap ErrInjected", err)
	}
	if s.DurableEnd() != durable {
		t.Fatalf("durable end moved to %d across a failed batch (pre-batch %d)", s.DurableEnd(), durable)
	}
	if s.staged != 0 {
		t.Fatalf("%d groups still staged after a rolled-back batch", s.staged)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != durable {
		t.Fatalf("file size %d after rollback, want pre-batch durable end %d (err %v)", fi.Size(), durable, err)
	}

	// The handles still hold the uncommitted values; re-staging re-encodes
	// them (including the index-definition table a failed batch must mark
	// dirty again) and a clean sync promotes them.
	if _, err := s.StageCommit(); err != nil {
		t.Fatalf("re-stage after rollback: %v", err)
	}
	if n, err := s.SyncBatch(); err != nil || n != 1 {
		t.Fatalf("retry SyncBatch = (%d, %v), want (1, nil)", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rootInt(t, path, "y"); got != 2 {
		t.Fatalf("y = %d after reopen, want 2", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after batch rollback + retry: %v", rep)
	}
}

// TestStageWriteFailureDiscardsBatch: a failed write while *staging* a
// later group discards the earlier staged groups too — a batch is
// all-or-nothing from the first stage onward, so no waiter can be acked
// on the strength of a batch that partially staged.
func TestStageWriteFailureDiscardsBatch(t *testing.T) {
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
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	durable := s.DurableEnd()

	inj.FailAt(iofault.OpWrite, inj.Count(iofault.OpWrite)+1)
	if err := s.Bind("y", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err == nil {
		t.Fatal("StageCommit with injected write failure succeeded")
	} else if !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("StageCommit error %v does not wrap ErrInjected", err)
	}
	if s.staged != 0 {
		t.Fatalf("%d groups staged after a failed stage rolled the batch back", s.staged)
	}
	if s.DurableEnd() != durable || s.appendPos() != durable {
		t.Fatalf("ends (%d, %d) after rollback, want both %d", s.DurableEnd(), s.appendPos(), durable)
	}
	// SyncBatch now has nothing to promote: it must not report success for
	// groups that were rolled back.
	if n, err := s.SyncBatch(); n != 0 || err != nil {
		t.Fatalf("SyncBatch after rolled-back batch = (%d, %v), want (0, nil)", n, err)
	}
}

// TestAbortDiscardsStagedGroups: staged-but-unsynced groups are complete,
// valid groups sitting in the file, so a log replay would resurrect them
// as committed — Abort must trim them first. After Abort the store is back
// at the last durable commit and commits cleanly.
func TestAbortDiscardsStagedGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
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
	durable := s.DurableEnd()
	want := render(s)

	if err := s.Bind("x", value.Int(99), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("z", value.Int(3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(); err != nil {
		t.Fatalf("Abort with staged groups: %v", err)
	}
	if !sameState(render(s), want) {
		t.Fatalf("state %v after Abort, want last durable commit %v", render(s), want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != durable {
		t.Fatalf("file size %d after Abort, want durable end %d (err %v)", fi.Size(), durable, err)
	}
	if err := s.Bind("w", value.Int(4), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after Abort: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rootInt(t, path, "x"); got != 1 {
		t.Fatalf("x = %d after reopen, want 1 (staged 99 must not be resurrected)", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after Abort of staged batch: %v", rep)
	}
}

// TestPoisonedBatchRecoversViaAbort drives the double-failure path: the
// batch fsync fails *and* the rollback truncate fails, so complete groups
// the waiters were failed for are stuck in the file past the durable end.
// The store must poison (refusing further appends), and Abort must retry
// the trim before replaying — after which the staged values are gone and
// committing works again.
func TestPoisonedBatchRecoversViaAbort(t *testing.T) {
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

	if err := s.Bind("x", value.Int(99), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	inj.FailAt(iofault.OpTruncate, inj.Count(iofault.OpTruncate)+1)
	if _, err := s.SyncBatch(); err == nil {
		t.Fatal("SyncBatch with sync+truncate failures succeeded")
	}
	if _, err := s.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit on poisoned store = %v, want ErrPoisoned", err)
	}
	if _, err := s.StageCommit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("StageCommit on poisoned store = %v, want ErrPoisoned", err)
	}

	if err := s.Abort(); err != nil {
		t.Fatalf("Abort on poisoned batch: %v", err)
	}
	if r, ok := s.Root("x"); !ok || r.Value.String() != value.Int(1).String() {
		t.Fatalf("x = %v after Abort, want the durable 1", r)
	}
	if err := s.Bind("y", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rootInt(t, path, "x"); got != 1 {
		t.Fatalf("x = %d after reopen, want 1", got)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after poisoned-batch recovery: %v", rep)
	}
}

// TestFailedAbortReplayPoisons: an Abort whose replay cannot read the log
// leaves memory that does not match the file, the type table included, so
// the store refuses appends until a later Abort replays it whole. The
// commit after that defines the new type the aborted binding used.
func TestFailedAbortReplayPoisons(t *testing.T) {
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
	shaped := value.Rec("Name", value.String("y"), "Shape", value.Int(1))
	if err := s.Bind("y", shaped, nil); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(iofault.OpRead, inj.Count(iofault.OpRead)+1)
	if err := s.Abort(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Abort over a failing read = %v, want the injected cause", err)
	}
	if err := s.Bind("y", shaped, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Commit after a failed replay = %v, want ErrPoisoned", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatalf("second Abort: %v", err)
	}
	if err := s.Bind("y", shaped, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) || rep.Types != 2 {
		t.Fatalf("log after recovery: %v, want clean with 2 types", rep)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ok := r.Root("y"); !ok || got.Value.String() != shaped.String() {
		t.Fatalf("y = %v after reopen, want %v", got, shaped)
	}
}

// TestReadGroupsDuringStagedBatch: replication ships only the durable
// prefix — staged groups are volatile and must never reach a follower —
// and a replication read racing an open batch must not corrupt where the
// next staged group lands.
func TestReadGroupsDuringStagedBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
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
	durable := s.DurableEnd()

	if err := s.Bind("y", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	raw, next, n, err := s.ReadGroupsAt(HeaderSize, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if next != durable || n != 1 {
		t.Fatalf("ReadGroupsAt returned %d groups up to %d; staged group leaked past durable end %d", n, next, durable)
	}
	if int64(len(raw)) != durable-HeaderSize {
		t.Fatalf("shipped %d bytes, want durable body %d", len(raw), durable-HeaderSize)
	}
	// Reading past the durable end (into staged territory) is refused.
	if _, _, _, err := s.ReadGroupsAt(s.appendPos(), 0); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("ReadGroupsAt(stagedEnd) = %v, want ErrBadOffset", err)
	}

	// The interleaved read must not have moved the append position: the
	// next staged group and the sync must land exactly after the first.
	if err := s.Bind("z", value.Int(3), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.SyncBatch(); err != nil || n != 2 {
		t.Fatalf("SyncBatch = (%d, %v), want (2, nil)", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"x": 1, "y": 2, "z": 3} {
		if got := rootInt(t, path, name); got != want {
			t.Fatalf("%s = %d after reopen, want %d", name, got, want)
		}
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fsckClean(rep) {
		t.Fatalf("log not clean after read-during-batch: %v", rep)
	}
}

// TestApplyGroupRefusesStagedBatch: a store with an open local batch
// cannot switch to applying replicated groups — the staged bytes would
// interleave with shipped bytes and break the byte-prefix invariant.
func TestApplyGroupRefusesStagedBatch(t *testing.T) {
	p, _ := primaryFixture(t)
	groups := splitGroups(t, allGroups(t, p))

	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyGroup(groups[0]); !errors.Is(err, ErrReplica) {
		t.Fatalf("ApplyGroup with a staged local batch = %v, want ErrReplica", err)
	}
}

// TestCompactRefusesStagedBatch: Compact rewrites the whole file, which
// would silently drop (or worse, bake in) staged-but-unacked groups; it
// must refuse while a batch is open.
func TestCompactRefusesStagedBatch(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Bind("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err == nil {
		t.Fatal("Compact with a staged batch succeeded")
	}
	// The batch is still intact and can be promoted.
	if n, err := s.SyncBatch(); err != nil || n != 1 {
		t.Fatalf("SyncBatch after refused Compact = (%d, %v), want (1, nil)", n, err)
	}
}

// TestCommittedMovesOnlyWhenDurable: the committed root table is the one
// the last durable group holds. Binds, unbinds and a staged group leave it
// as it was, and a map taken from Committed keeps its contents whatever
// the working table does after; the fsync that makes a batch durable moves
// it. AbortBound after a failed fsync puts the working table back to it.
func TestCommittedMovesOnlyWhenDurable(t *testing.T) {
	inj := iofault.NewInjector(iofault.OS{})
	s, err := OpenFS(inj, filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	names := func(m pmap.Map[*dynamic.Dynamic]) (out []string) {
		m.Range(func(n string, _ *dynamic.Dynamic) bool {
			out = append(out, n)
			return true
		})
		return out
	}
	for _, n := range []string{"a", "b"} {
		if err := s.Bind(n, value.Int(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	c1 := s.Committed()
	a1, _ := c1.Get("a")
	if err := s.Bind("a", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("c", value.Int(3), nil); err != nil {
		t.Fatal(err)
	}
	s.Unbind("b")
	if _, err := s.StageCommit(); err != nil {
		t.Fatal(err)
	}
	if s.Committed() != c1 {
		t.Fatal("the committed table moved before the fsync")
	}
	if got, _ := c1.Get("a"); got != a1 || !reflect.DeepEqual(names(c1), []string{"a", "b"}) {
		t.Fatalf("a committed map changed under later edits: %v, a = %v", names(c1), got)
	}
	if _, err := s.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	c2 := s.Committed()
	if a2, _ := c2.Get("a"); !reflect.DeepEqual(names(c2), []string{"a", "c"}) || a2 == a1 {
		t.Fatalf("committed after the fsync: %v, want [a c] with a rebound", names(c2))
	}

	if err := s.Bind("d", value.Rec("x", value.Int(4)), nil); err != nil {
		t.Fatal(err)
	}
	s.Unbind("a")
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if _, err := s.Commit(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("Commit over a failing fsync = %v, want the injected cause", err)
	}
	if s.Committed() != c2 {
		t.Fatal("a failed commit moved the committed table")
	}
	if err := s.AbortBound(); err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("Names after AbortBound = %v, want the committed [a c]", got)
	}
}
