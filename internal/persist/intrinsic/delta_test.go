package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file tests the root-delta record and the bound-root stage: a commit
// group's size must follow the change and not the store, and the running
// table that replay, ApplyGroup and fsck fold must equal the table a full
// 'R' record used to state outright — over generated histories, over logs
// that mix both generations, and with a 'D' group torn or flipped at every
// byte.

// renderTyped is render with the declared type: a root delta carries both,
// and OpenAs's enrichment changes only the type.
func renderTyped(s *Store) map[string]string {
	out := map[string]string{}
	for _, n := range s.Names() {
		if r, ok := s.Root(n); ok {
			out[n] = r.Declared.String() + " | " + r.Value.String()
		}
	}
	return out
}

// openCopy opens a copy of the log at path, so the original keeps its
// writer.
func openCopy(t *testing.T, path string) *Store {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "copy.log")
	if err := os.WriteFile(cp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(cp)
	if err != nil {
		t.Fatalf("open copy of %s: %v", path, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// preload binds n one-record roots and commits them as one group.
func preload(t testing.TB, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := value.Rec("Name", value.String(fmt.Sprintf("r%d", i)), "N", value.Int(int64(i)),
			"Tags", value.NewList(value.String("x"), value.String("y")))
		if err := s.Bind(fmt.Sprintf("root%05d", i), rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitBytesIndependentOfRootCount: rebinding one root costs the same
// log bytes on a 64-root store as on a 4 096-root one — the group holds
// the new nodes and a one-entry delta, never the table — through both
// stage functions.
func TestCommitBytesIndependentOfRootCount(t *testing.T) {
	stagers := map[string]func(*Store) (CommitStats, error){
		"StageBound": (*Store).StageBound,
		"Commit":     (*Store).Commit,
	}
	for name, stage := range stagers {
		t.Run(name, func(t *testing.T) {
			var written []int
			for _, roots := range []int{64, 4096} {
				s, err := Open(filepath.Join(t.TempDir(), "store.log"))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				preload(t, s, roots)
				if err := s.Bind("root00007", value.Rec("Name", value.String("rebound"), "N", value.Int(-1)), nil); err != nil {
					t.Fatal(err)
				}
				stats, err := stage(s)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.SyncBatch(); err != nil {
					t.Fatal(err)
				}
				if stats.NodesWritten != 1 {
					t.Errorf("%d roots: %d nodes written, want 1", roots, stats.NodesWritten)
				}
				if stats.BytesWritten > 256 {
					t.Errorf("%d roots: one-root rebind wrote %d bytes, want <= 256", roots, stats.BytesWritten)
				}
				written = append(written, stats.BytesWritten)
			}
			if d := written[1] - written[0]; d < -8 || d > 8 {
				t.Errorf("bytes per rebind: %d on 64 roots, %d on 4096 — differ by more than 8", written[0], written[1])
			}
		})
	}
}

// TestStageBoundRebindCost pins the bound stage's cost on the benchmark's
// store shape: one rebind on a 1 024-root store stages at most 256 bytes
// with at most 100 allocations, however many nodes the other roots hold.
func TestStageBoundRebindCost(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preload(t, s, 1024)
	i := 0
	var stats CommitStats
	allocs := testing.AllocsPerRun(50, func() {
		i++
		rec := value.Rec("Name", value.String("rebound"), "N", value.Int(int64(i)))
		if err := s.Bind("root00512", rec, nil); err != nil {
			t.Fatal(err)
		}
		if stats, err = s.StageBound(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
	})
	if stats.NodesReachable != 1 || stats.NodesWritten != 1 {
		t.Errorf("bound stage walked %d nodes and wrote %d, want 1 and 1", stats.NodesReachable, stats.NodesWritten)
	}
	if stats.BytesWritten > 256 {
		t.Errorf("bound stage wrote %d bytes, want <= 256", stats.BytesWritten)
	}
	if allocs > 100 {
		t.Errorf("bind + StageBound + SyncBatch = %.0f allocs, want <= 100", allocs)
	}
}

// TestFirstCommitAllocs: a first commit still encodes one type image per
// root; it must append it straight into the group's own buffer, not build
// a fresh image per root.
func TestFirstCommitAllocs(t *testing.T) {
	const roots = 1024
	dir := t.TempDir()
	run := 0
	allocs := testing.AllocsPerRun(3, func() {
		run++
		s, err := Open(filepath.Join(dir, fmt.Sprintf("store%d.log", run)))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < roots; i++ {
			if err := s.Bind(fmt.Sprintf("root%05d", i), value.Int(int64(i)), types.Int); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 3.6 a root (4.4 under the race detector), nearly all of it
	// the binding: the name, the Root, the map slots. An encoder per type
	// image made it 11.6.
	if per := allocs / roots; per > 8 {
		t.Errorf("bind + first commit of %d atom roots = %.0f allocs (%.1f per root), want <= 8 per root", roots, allocs, per)
	}
}

// TestCommitFindsMutationUnderUntouchedRoot is E4's semantics: Commit walks
// everything, so an in-place mutation under a root nobody rebound is found
// and written as exactly the one changed node — and StageBound, by its
// contract, does not look there.
func TestCommitFindsMutationUnderUntouchedRoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preload(t, s, 64)
	r, _ := s.Root("root00003")
	r.Value.(*value.Record).Set("N", value.Int(-3))

	bound, err := s.StageBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound.NodesReachable != 0 || bound.NodesWritten != 0 {
		t.Fatalf("StageBound with no touched root walked %d nodes, wrote %d", bound.NodesReachable, bound.NodesWritten)
	}
	stats, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesWritten != 1 || stats.BytesWritten > 128 {
		t.Fatalf("Commit after one in-place mutation wrote %d nodes in %d bytes, want 1 node and no root record",
			stats.NodesWritten, stats.BytesWritten)
	}
	got := openCopy(t, path)
	gr, _ := got.Root("root00003")
	if n, _ := gr.Value.(*value.Record).Get("N"); !value.Equal(n, value.Int(-3)) {
		t.Fatalf("reopened N = %s, want -3", n)
	}
}

// TestFailedBatchRestoresTouchedSet: when a batch fails, each handle its
// groups covered is touched again *as it stood before the batch*. Here x
// is durable, group 1 unbinds it and group 2 binds and unbinds it again —
// so group 2 alone would say "x was never in the table". The retry after
// the failed sync must still delete x from the durable table.
func TestFailedBatchRestoresTouchedSet(t *testing.T) {
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
	if err := s.Bind("keep", value.Int(2), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Unbind("x")
	if _, err := s.StageBound(); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("x", value.Int(3), nil); err != nil {
		t.Fatal(err)
	}
	s.Unbind("x")
	if _, err := s.StageBound(); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(iofault.OpSync, inj.Count(iofault.OpSync)+1)
	if _, err := s.SyncBatch(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("SyncBatch under an injected fsync failure = %v", err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got, want := renderTyped(openCopy(t, path)), renderTyped(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %v, live %v: the retry lost the delete of x", got, want)
	}
}

// TestPromotedFollowerKeepsRootsOnCommit: Promote numbers each of the
// follower's values by the OID it was materialized from, so a
// walk-everything Commit after it finds an in-place mutation under an
// untouched root and writes only that node, the table on disk keeps naming
// it, and the mutation survives a reopen — through the first Commit after
// Promote and the second.
func TestPromotedFollowerKeepsRootsOnCommit(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(filepath.Join(dir, "a.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	preload(t, a, 8)
	b, err := Open(filepath.Join(dir, "b.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	catchUp(t, a, b)
	if _, err := b.Promote(); err != nil {
		t.Fatal(err)
	}
	r, _ := b.Root("root00003")
	r.Value.(*value.Record).Set("N", value.Int(-3))
	// A bound stage in between must neither see nor disturb the others.
	if err := b.Bind("fresh", value.Rec("N", value.Int(1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.StageBound(); err != nil {
		t.Fatal(err)
	}
	if stats, err := b.Commit(); err != nil || stats.NodesWritten != 1 {
		t.Fatalf("first Commit after Promote = %+v, %v; want the 1 mutated node", stats, err)
	}
	if got, want := renderTyped(openCopy(t, b.Path())), renderTyped(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %v, live %v", got, want)
	}
	checkLifecycle(t, b)
	r.Value.(*value.Record).Set("N", value.Int(-4))
	stats, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesWritten != 1 || stats.BytesWritten > 128 {
		t.Errorf("second Commit after Promote wrote %d nodes in %d bytes, want the 1 mutated node and no root record",
			stats.NodesWritten, stats.BytesWritten)
	}
	if got, want := renderTyped(openCopy(t, b.Path())), renderTyped(b); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %v, live %v", got, want)
	}
}

// TestApplyGroupAfterLocalCommits: a store that committed locally may hold
// uncommitted bindings in memory. When it starts
// following — its log a byte prefix of the primary's — ApplyGroup must
// still re-materialize an untouched root whose node the primary overwrote
// in place, and the uncommitted binding must go.
func TestApplyGroupAfterLocalCommits(t *testing.T) {
	dir := t.TempDir()
	build := func(name string) *Store {
		s, err := Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		preload(t, s, 4) // the same operations write the same bytes
		return s
	}
	p, f := build("p.log"), build("f.log")
	if err := f.Bind("uncommitted", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	r, _ := p.Root("root00002")
	r.Value.(*value.Record).Set("N", value.Int(5))
	if stats, err := p.Commit(); err != nil || stats.NodesWritten != 1 {
		t.Fatalf("Commit = %+v, %v; want one overwritten node", stats, err)
	}
	catchUp(t, p, f)
	if got, want := renderTyped(f), renderTyped(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower %v, primary %v", got, want)
	}
}

// TestApplyGroupOverwriteReplayFailurePoisons: a group that overwrites a
// node image in place is durable once appended, and the follower rebuilds
// its memory by replaying the log. When that replay fails the store is
// poisoned — nothing more is applied — and Abort recovers the primary's
// state from the log.
func TestApplyGroupOverwriteReplayFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(filepath.Join(dir, "p.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	inj := iofault.NewInjector(iofault.OS{})
	f, err := OpenFS(inj, filepath.Join(dir, "f.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	preload(t, p, 4)
	catchUp(t, p, f)
	r, _ := p.Root("root00001")
	r.Value.(*value.Record).Set("N", value.Int(-1))
	if stats, err := p.Commit(); err != nil || stats.NodesWritten != 1 {
		t.Fatalf("Commit = %+v, %v; want one overwritten node", stats, err)
	}
	raw, _, _, err := p.ReadGroupsAt(f.DurableEnd(), 0)
	if err != nil {
		t.Fatal(err)
	}
	inj.FailAt(iofault.OpSeek, inj.Count(iofault.OpSeek)+1) // the replay's rewind
	if _, err := f.ApplyGroup(raw); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("ApplyGroup with a failing replay = %v, want the injected fault", err)
	}
	if f.DurableEnd() != p.DurableEnd() {
		t.Fatalf("follower durable end %d, primary %d: the group was appended", f.DurableEnd(), p.DurableEnd())
	}
	if _, err := f.ApplyGroup(nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("ApplyGroup after the failed replay = %v, want ErrPoisoned", err)
	}
	if err := f.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if got, want := renderTyped(f), renderTyped(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower %v, primary %v", got, want)
	}
}

// ---------------------------------------------------------------------------
// Generated histories
// ---------------------------------------------------------------------------

type histRoot struct {
	val      value.Value
	declared types.Type
}

// history drives a primary store through generated operations beside a
// model of its bindings. The model holds the very values it bound, so an
// in-place mutation reaches every alias ShareTo created, as it does in the
// store; after an Abort or reopen detaches them it is re-seeded from the
// store, once the store has been checked against the committed rendering.
type history struct {
	t         *testing.T
	rng       *rand.Rand
	inj       *iofault.Injector
	p, f      *Store
	live      map[string]histRoot
	committed map[string]string
}

var (
	histNarrow = types.MustParse("{A: Int}")
	histWiden  = types.MustParse("{B: String}")
)

func (h *history) renderLive() map[string]string {
	out := map[string]string{}
	for n, r := range h.live {
		out[n] = r.declared.String() + " | " + r.val.String()
	}
	return out
}

func (h *history) names() []string {
	out := make([]string, 0, len(h.live))
	for n := range h.live {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (h *history) newFollower() {
	if h.f != nil {
		h.f.Close()
	}
	// Through the injector, like the primary: a failover swaps the two.
	f, err := OpenFS(h.inj, filepath.Join(h.t.TempDir(), "follower.log"))
	if err != nil {
		h.t.Fatal(err)
	}
	h.f = f
}

// reseed points the model at the store's own values after a revert.
func (h *history) reseed() {
	h.live = map[string]histRoot{}
	for _, n := range h.p.Names() {
		r, _ := h.p.Root(n)
		h.live[n] = histRoot{val: r.Value, declared: r.Declared}
	}
}

// bindRandom binds a fresh value: an atom, a generated container, or a
// record declared at a supertype so OpenAs has something to enrich.
func (h *history) bindRandom() {
	name := string(rune('a' + h.rng.Intn(4)))
	var v value.Value
	var declared types.Type
	switch h.rng.Intn(3) {
	case 0:
		v = value.Int(int64(h.rng.Intn(100)))
	case 1:
		v = genModelValue(h.rng, 2)
	default:
		v = value.Rec("A", value.Int(int64(h.rng.Intn(100))), "B", value.String("b"))
		declared = histNarrow
	}
	if declared == nil {
		declared = value.TypeOf(v)
	}
	if err := h.p.Bind(name, v, declared); err != nil {
		h.t.Fatalf("bind: %v", err)
	}
	h.live[name] = histRoot{val: v, declared: declared}
}

func (h *history) unbindRandom() {
	names := h.names()
	if len(names) == 0 {
		return
	}
	n := names[h.rng.Intn(len(names))]
	if !h.p.Unbind(n) {
		h.t.Fatalf("unbind %q: not bound", n)
	}
	delete(h.live, n)
}

func (h *history) commit() {
	if _, err := h.p.Commit(); err != nil {
		h.t.Fatalf("commit: %v", err)
	}
	h.committed = h.renderLive()
}

// step applies one generated operation and reports its name.
func (h *history) step() string {
	t := h.t
	switch h.rng.Intn(14) {
	case 0, 1, 2:
		h.bindRandom()
		return "bind"
	case 3:
		h.unbindRandom()
		return "unbind"
	case 4: // OpenAs: a view, an enrichment, or a refusal — the model follows
		names := h.names()
		if len(names) == 0 {
			return "openas (none)"
		}
		n := names[h.rng.Intn(len(names))]
		r := h.live[n]
		_, err := h.p.OpenAs(n, histWiden)
		meet, consistent := types.Meet(r.declared, histWiden)
		switch {
		case types.Subtype(r.declared, histWiden):
			if err != nil {
				t.Fatalf("OpenAs view of %q: %v", n, err)
			}
		case consistent && value.Conforms(r.val, meet):
			if err != nil {
				t.Fatalf("OpenAs enrichment of %q: %v", n, err)
			}
			h.live[n] = histRoot{val: r.val, declared: meet}
		default:
			if err == nil {
				t.Fatalf("OpenAs of %q at an unreachable type succeeded", n)
			}
		}
		return "openas"
	case 5: // share or copy a top-level handle into namespace u
		var tops []string
		for _, n := range h.names() {
			if len(n) == 1 {
				tops = append(tops, n)
			}
		}
		if len(tops) == 0 {
			return "share (none)"
		}
		n := tops[h.rng.Intn(len(tops))]
		anon, _ := h.p.Namespace("")
		u, _ := h.p.Namespace("u")
		r := h.live[n]
		if h.rng.Intn(2) == 0 {
			if err := anon.ShareTo(u, n); err != nil {
				t.Fatalf("ShareTo: %v", err)
			}
			h.live["u/"+n] = r
			return "share"
		}
		if err := anon.CopyTo(u, n); err != nil {
			t.Fatalf("CopyTo: %v", err)
		}
		cp, _ := h.p.Root("u/" + n)
		h.live["u/"+n] = histRoot{val: cp.Value, declared: r.declared}
		return "copy"
	case 6: // mutate a bound record in place, then Commit (which must find it)
		for _, n := range h.names() {
			if rec, ok := h.live[n].val.(*value.Record); ok {
				rec.Set("Mut", value.Int(int64(h.rng.Intn(1000))))
				break
			}
		}
		h.commit()
		return "mutate+commit"
	case 7:
		h.commit()
		return "commit"
	case 8: // a batch of bound stages under one sync
		for g := 1 + h.rng.Intn(3); g > 0; g-- {
			if h.rng.Intn(4) == 0 {
				h.unbindRandom()
			} else {
				h.bindRandom()
			}
			if _, err := h.p.StageBound(); err != nil {
				t.Fatalf("StageBound: %v", err)
			}
		}
		if _, err := h.p.SyncBatch(); err != nil {
			t.Fatalf("SyncBatch: %v", err)
		}
		h.committed = h.renderLive()
		return "bound batch"
	case 9: // a failed sync rolls the batch back; retry or abort
		h.bindRandom()
		h.unbindRandom()
		if _, err := h.p.StageBound(); err != nil {
			t.Fatalf("StageBound: %v", err)
		}
		h.bindRandom()
		h.inj.FailAt(iofault.OpSync, h.inj.Count(iofault.OpSync)+1)
		if _, err := h.p.Commit(); !errors.Is(err, iofault.ErrInjected) {
			t.Fatalf("Commit under an injected fsync failure = %v", err)
		}
		if h.rng.Intn(2) == 0 {
			h.commit() // the retry must re-emit everything the lost batch held
			return "failed sync, retry"
		}
		if err := h.p.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		h.reseed()
		return "failed sync, abort"
	case 10:
		h.bindRandom()
		h.unbindRandom()
		if err := h.p.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		h.reseed()
		return "abort"
	case 11:
		if _, err := h.p.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		h.committed = h.renderLive()
		h.newFollower() // the rewritten log is a new history to follow
		return "compact"
	case 12: // failover: the follower is promoted, the old primary follows it
		// The new primary never registered an OID for the values it
		// materialized as a follower, and the old one's memory holds whatever
		// it had not committed: both must come out right.
		if _, err := h.f.Promote(); err != nil {
			t.Fatalf("Promote: %v", err)
		}
		h.p, h.f = h.f, h.p
		h.reseed()
		return "failover"
	default:
		path := h.p.Path()
		if err := h.p.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		p, err := OpenFS(h.inj, path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		h.p = p
		h.reseed()
		return "reopen"
	}
}

// check asserts the three equivalences after every step: the live store is
// the model, a cold reopen of the log is the committed model, and a
// follower fed group by group through ApplyGroup is too — with a log
// byte-identical to the primary's. Each of the three holds exactly the
// nodes its committed roots reach (checkLifecycle).
func (h *history) check(step int, op string) {
	t := h.t
	t.Helper()
	if got, want := renderTyped(h.p), h.renderLive(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d (%s): live store %v != model %v", step, op, got, want)
	}
	checkLifecycle(t, h.p)
	cp := openCopy(t, h.p.Path())
	if got := renderTyped(cp); !reflect.DeepEqual(got, h.committed) {
		t.Fatalf("step %d (%s): reopened log %v != committed model %v", step, op, got, h.committed)
	}
	checkLifecycle(t, cp)
	catchUp(t, h.p, h.f)
	if got := renderTyped(h.f); !reflect.DeepEqual(got, h.committed) {
		t.Fatalf("step %d (%s): follower %v != committed model %v", step, op, got, h.committed)
	}
	checkLifecycle(t, h.f)
	pb, err := os.ReadFile(h.p.Path())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.ReadFile(h.f.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb[:h.p.DurableEnd()], fb) {
		t.Fatalf("step %d (%s): follower log (%d bytes) is not the primary's durable log (%d bytes)",
			step, op, len(fb), h.p.DurableEnd())
	}
	rep, err := Fsck(h.p.Path())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Roots != len(h.committed) {
		t.Fatalf("step %d (%s): fsck folds %d roots, committed model has %d", step, op, rep.Roots, len(h.committed))
	}
}

// TestRootDeltaHistories is the seeded quick-check over histories of every
// writer of the root table and every way a group can be lost.
func TestRootDeltaHistories(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := iofault.NewInjector(iofault.OS{})
			p, err := OpenFS(inj, filepath.Join(t.TempDir(), "primary.log"))
			if err != nil {
				t.Fatal(err)
			}
			h := &history{t: t, rng: rand.New(rand.NewSource(seed)), inj: inj, p: p,
				live: map[string]histRoot{}, committed: map[string]string{}}
			h.newFollower()
			defer func() { h.p.Close(); h.f.Close() }()
			for i := 0; i < 120; i++ {
				h.check(i, h.step())
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Mixed writers
// ---------------------------------------------------------------------------

// TestMixedGenerationReplay: a log whose groups come from each of the
// store's writers — Commit, a StageBound batch and a StageCommit batch —
// replays, at every group boundary, to the state the live store had there:
// by cold open and by ApplyGroup on a follower, whose GroupDelta names
// exactly the handles the group bound and unbound.
func TestMixedGenerationReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bind := func(name string, v value.Value) {
		t.Helper()
		if err := s.Bind(name, v, nil); err != nil {
			t.Fatal(err)
		}
	}
	type want struct {
		state            map[string]string
		changed, removed []string
	}
	var wants []want
	mark := func(changed, removed []string) {
		wants = append(wants, want{renderTyped(s), changed, removed})
	}
	batch := func(stage func() (CommitStats, error)) {
		t.Helper()
		if _, err := stage(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
	}
	commit := func() {
		t.Helper()
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	bind("a", value.Rec("Name", value.String("A"), "N", value.Int(1)))
	bind("b", value.Int(1))
	bind("c", value.String("gone soon"))
	commit()
	mark([]string{"a", "b", "c"}, nil)
	bind("b", value.Int(2))
	s.Unbind("c")
	batch(s.StageBound)
	mark([]string{"b"}, []string{"c"})
	bind("d", value.NewList(value.Int(1), value.Int(2)))
	batch(s.StageCommit)
	mark([]string{"d"}, nil)
	s.Unbind("a")
	bind("b", value.Int(3))
	commit()
	mark([]string{"b"}, []string{"a"})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	groups := splitGroups(t, raw[HeaderSize:])
	if len(groups) != len(wants) {
		t.Fatalf("%d groups for %d checkpoints", len(groups), len(wants))
	}
	f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	end := HeaderSize
	for i, g := range groups {
		end += int64(len(g))
		prefix := filepath.Join(t.TempDir(), "prefix.log")
		if err := os.WriteFile(prefix, raw[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		cold, err := Open(prefix)
		if err != nil {
			t.Fatalf("open prefix of %d groups: %v", i+1, err)
		}
		got := renderTyped(cold)
		cold.Close()
		if !reflect.DeepEqual(got, wants[i].state) {
			t.Fatalf("prefix of %d groups replays to %v, want %v", i+1, got, wants[i].state)
		}
		delta, err := f.ApplyGroup(g)
		if err != nil {
			t.Fatalf("ApplyGroup %d: %v", i+1, err)
		}
		if changed, removed := deltaNames(delta); !reflect.DeepEqual(changed, wants[i].changed) || !reflect.DeepEqual(removed, wants[i].removed) {
			t.Fatalf("group %d delta = changed %v removed %v, want %v and %v",
				i+1, changed, removed, wants[i].changed, wants[i].removed)
		}
		if got := renderTyped(f); !reflect.DeepEqual(got, wants[i].state) {
			t.Fatalf("follower after group %d = %v, want %v", i+1, got, wants[i].state)
		}
	}
}

// ---------------------------------------------------------------------------
// A damaged 'D' group
// ---------------------------------------------------------------------------

// TestRootDeltaGroupDamagedAtEveryByte builds a log whose last group is a
// root delta with both halves — two upserts (one naming a new node) and a
// delete — then tears the file at, and flips, every byte of that group.
// Torn: the open lands on the previous group and fsck calls it a torn
// tail. Flipped: the checksum (or the structure) catches it — Open refuses
// with a typed CorruptError, or reads a length that now overruns the file
// as a torn tail — so the group is never applied, and a follower handed
// the damaged group refuses it untouched.
func TestRootDeltaGroupDamagedAtEveryByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, n := range []string{"a", "b", "c"} {
		if err := s.Bind(n, value.String("first "+n), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before := renderTyped(s)
	groupStart := s.DurableEnd()
	s.Unbind("a")
	if err := s.Bind("b", value.Rec("Name", value.String("B")), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Bind("d", value.Int(4), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var last rootOp
	if sum := scanRaw(raw[groupStart:], scanSink{roots: func(op rootOp) { last = op }}); sum.corrupt != nil {
		t.Fatal(sum.corrupt)
	}
	if len(last.upserts) != 2 || !reflect.DeepEqual(last.deletes, []string{"a"}) {
		t.Fatalf("last group's root record = %+v, want a delta upserting b, d and deleting a", last)
	}

	follower := func() *Store {
		f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if _, err := f.ApplyGroup(raw[HeaderSize:groupStart]); err != nil {
			t.Fatal(err)
		}
		return f
	}
	damaged := filepath.Join(t.TempDir(), "damaged.log")
	for cut := groupStart; cut < int64(len(raw)); cut++ {
		if err := os.WriteFile(damaged, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Open(damaged)
		if err != nil {
			t.Fatalf("torn at %d: open refused: %v", cut, err)
		}
		state, end := renderTyped(got), got.DurableEnd()
		got.Close()
		if end != groupStart || !reflect.DeepEqual(state, before) {
			t.Fatalf("torn at %d: reopened at %d with %v, want %d with %v", cut, end, state, groupStart, before)
		}
		if rep, err := Fsck(damaged); err != nil || rep.Corrupt != nil || rep.TornTail != (cut > groupStart) || rep.Roots != len(before) {
			t.Fatalf("torn at %d: fsck = %+v, %v", cut, rep, err)
		}
	}
	f := follower()
	for at := groupStart; at < int64(len(raw)); at++ {
		flipped := append([]byte(nil), raw...)
		flipped[at] ^= 0xFF
		if err := os.WriteFile(damaged, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		// A flipped length can run the group past the end of the file,
		// which the scanner must read as a torn tail (scan.go's rule).
		var ce *CorruptError
		got, err := Open(damaged)
		if err == nil {
			state, end := renderTyped(got), got.DurableEnd()
			got.Close()
			if end != groupStart || !reflect.DeepEqual(state, before) {
				t.Fatalf("flip at %d: opened at %d with %v, want %d with %v", at, end, state, groupStart, before)
			}
		} else if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: Open = %v, want a CorruptError", at, err)
		}
		rep, err := Fsck(damaged)
		if err != nil || fsckClean(rep) || rep.GoodEnd != groupStart || rep.Roots != len(before) {
			t.Fatalf("flip at %d: fsck = %+v, %v; want damage reported with the prefix intact", at, rep, err)
		}
		if _, err := f.ApplyGroup(flipped[groupStart:]); err == nil {
			t.Fatalf("flip at %d: follower applied a damaged group", at)
		}
		if f.DurableEnd() != groupStart || !reflect.DeepEqual(renderTyped(f), before) {
			t.Fatalf("flip at %d: refused group still moved the follower", at)
		}
	}
	if _, err := f.ApplyGroup(raw[groupStart:]); err != nil {
		t.Fatalf("intact group after the refusals: %v", err)
	}
	if !reflect.DeepEqual(renderTyped(f), renderTyped(s)) {
		t.Fatalf("follower %v != primary %v", renderTyped(f), renderTyped(s))
	}
}

// TestStageBoundAllocs pins what staging and syncing one rebind costs on
// a 1 024-root store, the dynamic made beforehand: at most 9
// allocations, all of them the rebind's delta. Rebind copies the root
// table's path to the name under the store's owner: a node and its items
// at each of the 3 levels that binding the roots one at a time built (6).
// StageBound keeps the new root table for publication and takes the next
// owner (2), and SyncBatch keeps the record's reference to its Tags list
// (1). The walk, the root delta, the batch's buffer, into which the
// record's and the list's node images are encoded, its records and the
// touched sets are the committer's scratch, kept from one group to the
// next, and so is what SyncBatch counts and frees with; the oids, nodes
// and refs maps keep their size, since each sync drops the two containers
// the rebind replaced. It measures 9 with Go 1.24 on linux/amd64, and as
// many under -race; an allocation for each node image made it 10.
func TestStageBoundAllocs(t *testing.T) {
	const runs, maxAllocs = 100, 9
	s, err := Open(filepath.Join(t.TempDir(), "store.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	preload(t, s, 1024)
	ds := make([]*dynamic.Dynamic, runs+10)
	for i := range ds {
		ds[i] = dynamic.Make(value.Rec("Name", value.String("rebound"), "N", value.Int(int64(i)),
			"Tags", value.NewList(value.String("x"))))
	}
	i := 0
	rebind := func() {
		if _, err := s.Rebind("root00512", ds[i]); err != nil {
			t.Fatal(err)
		}
		i++
		if _, err := s.StageBound(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.SyncBatch(); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		rebind()
	}
	allocs := testing.AllocsPerRun(runs, rebind)
	t.Logf("one rebind staged and synced on 1 024 roots: %.2f allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("one rebind staged and synced costs %.2f allocations, want <= %d", allocs, maxAllocs)
	}
}
