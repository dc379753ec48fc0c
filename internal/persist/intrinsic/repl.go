package intrinsic

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/value"
)

// This file is the store's replication surface: a primary reads verified
// commit groups back out of its own log (ReadGroupsAt), and a follower
// appends them verbatim to its log and applies them to its materialized
// state (ApplyGroup). Because groups are shipped as raw log bytes, a
// follower's file is a byte-for-byte prefix of the primary's verified
// prefix at every instant — the invariant the crash-matrix test replays —
// and resuming after a crash on either side is just "send me everything
// from my durable end".

// HeaderSize is the length of the log header ("DBPLLOG" + version byte):
// the smallest legal replication offset.
const HeaderSize = int64(len(logMagic) + 1)

// Replication errors.
var (
	// ErrBadOffset: a replication offset outside [HeaderSize, durable end].
	ErrBadOffset = errors.New("intrinsic: replication offset out of range")
	// ErrBadGroup: the bytes handed to ApplyGroup are not a sequence of
	// whole, valid commit groups.
	ErrBadGroup = errors.New("intrinsic: bytes are not whole verified commit groups")
	// ErrDiverged: this store's log is not a byte prefix of the log it is
	// being compared against — the histories forked (a stale primary kept
	// committing past a failover) and no amount of shipping can reconcile
	// them. DivergenceError carries the first divergent offset.
	ErrDiverged = errors.New("intrinsic: log has diverged; histories forked and cannot be reconciled by replication")
)

// DivergenceError reports where two logs stop agreeing: the offset of the
// first byte at which this store's log differs from the one it rejoined
// against. It unwraps to ErrDiverged. Recovery is manual and explicit —
// salvage or discard the divergent suffix — never silent truncation.
type DivergenceError struct {
	Offset int64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("intrinsic: log diverges at offset %d: local bytes disagree with the current primary's history; refusing to truncate", e.Offset)
}

func (e *DivergenceError) Unwrap() error { return ErrDiverged }

// DurableEnd returns the offset just past the last durable commit group.
// It is lock-free: safe to call from health reporting while a commit is
// wedged holding the store mutex.
func (s *Store) DurableEnd() int64 { return s.endA.Load() }

// EnterReplica puts the store in replica mode before the first group
// arrives: local mutations (Bind, Commit, Compact, ...) are refused with
// ErrReplica from here on, so the log can only grow through ApplyGroup.
func (s *Store) EnterReplica() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replica = true
}

// Epoch returns the promotion epoch: 0 until the first Promote, and the
// last committed 'E' record's value after recovery. Lock-free, like
// DurableEnd — fencing decisions and health reporting must not block
// behind a wedged commit.
func (s *Store) Epoch() uint64 { return s.epochA.Load() }

// Promote is the inverse of EnterReplica: it bumps the promotion epoch,
// appends the epoch record durably as its own commit group, and re-enables
// local mutations (Bind, Commit, ...). It is the store half of failover —
// a follower whose primary died becomes the new primary the moment the
// epoch record is durable. Promote also works on a store that was never a
// replica (a planned epoch bump before handing off).
//
// The bump is atomic: the record rides the same stage/sync/rollback path
// as a commit, so a crash at any I/O boundary leaves either the old epoch
// (torn or missing group, ignored on reopen) or the new one — never a torn
// record applied. Refused while a staged batch is open (its owner decides
// its fate first) and on a poisoned store.
func (s *Store) Promote() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.broken != nil {
		return 0, s.broken
	}
	if s.staged > 0 {
		return 0, fmt.Errorf("intrinsic: a staged commit batch is open; SyncBatch or Abort before Promote")
	}
	next := s.epoch + 1
	var out nodeBuf
	out.WriteByte(recEpoch)
	out.uvarint(next)
	out.WriteByte(recCommit)
	if err := s.stageGroup(&out); err != nil {
		return 0, err
	}
	if _, err := s.syncStaged(); err != nil {
		return 0, err
	}
	s.replica = false
	s.setEpoch(next)
	return next, nil
}

// VerifyTail compares raw — the current primary's log bytes starting at
// offset from — against this store's durable log. It returns how many
// bytes of raw overlap the local log (the caller applies the remainder
// with ApplyGroup), or a *DivergenceError naming the first offset at which
// the local bytes disagree: this store committed history the primary does
// not have, and must not be truncated silently. from must lie within the
// durable log.
func (s *Store) VerifyTail(raw []byte, from int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.broken != nil {
		return 0, s.broken
	}
	if from < HeaderSize || from > s.end {
		return 0, fmt.Errorf("%w: %d (durable log spans [%d,%d])", ErrBadOffset, from, HeaderSize, s.end)
	}
	n := int64(len(raw))
	if from+n > s.end {
		n = s.end - from
	}
	if n <= 0 {
		return 0, nil
	}
	local, err := s.readAt(from, int(n))
	if err != nil {
		return 0, err
	}
	for i := int64(0); i < n; i++ {
		if local[i] != raw[i] {
			return i, &DivergenceError{Offset: from + i}
		}
	}
	return n, nil
}

// scanRaw runs the structural scanner over raw bytes as if they followed a
// log header. Offsets in the returned summary therefore count from
// HeaderSize, as in a real file.
func scanRaw(raw []byte, sink scanSink) (scanSummary, error) {
	hdr := append([]byte(logMagic), logVersion)
	return scanLog(io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(raw)), sink)
}

// ReadGroupsAt reads whole commit groups starting exactly at offset from,
// verifying structure and CRC before returning them — a primary ships only
// its verified prefix. It returns the raw bytes, the offset of the first
// byte after them, and how many groups they contain. maxBytes is a soft
// target (<= 0 means 256 KiB): at least one whole group is always
// returned, however large. from == DurableEnd returns (nil, from, 0, nil).
func (s *Store) ReadGroupsAt(from int64, maxBytes int) ([]byte, int64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, 0, ErrClosed
	}
	if s.broken != nil {
		return nil, 0, 0, s.broken
	}
	if from < HeaderSize || from > s.end {
		return nil, 0, 0, fmt.Errorf("%w: %d (durable log spans [%d,%d])", ErrBadOffset, from, HeaderSize, s.end)
	}
	if from == s.end {
		return nil, from, 0, nil
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 10
	}
	n := int64(maxBytes)
	for {
		if n > s.end-from {
			n = s.end - from
		}
		buf, err := s.readAt(from, int(n))
		if err != nil {
			return nil, 0, 0, err
		}
		good, groups, cerr := groupBoundary(buf, s.types)
		if cerr != nil {
			return nil, 0, 0, cerr
		}
		if groups > 0 {
			return buf[:good], from + good, groups, nil
		}
		if n == s.end-from {
			// The whole durable remainder contains no complete group: the
			// file rotted under us (the durable prefix always ends on a
			// group boundary).
			return nil, 0, 0, &CorruptError{Offset: from, Reason: "no commit-group boundary before durable end"}
		}
		n *= 2 // a single group larger than the window: widen and retry
	}
}

// readAt reads n bytes at off and restores the file position to the
// append position — the durable end, or past the last staged group while
// a commit batch is open (a replication read racing a group commit must
// not reset where the next staged group lands). Failing to restore it
// poisons the store: a later append at an unknown position could corrupt
// the log.
func (s *Store) readAt(off int64, n int) ([]byte, error) {
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return nil, s.poison(wrapIO(iofault.OpSeek, s.path, err))
	}
	buf := make([]byte, n)
	_, rerr := io.ReadFull(s.f, buf)
	if _, err := s.f.Seek(s.appendPos(), io.SeekStart); err != nil {
		return nil, s.poison(wrapIO(iofault.OpSeek, s.path, err))
	}
	if rerr != nil {
		return nil, wrapIO(iofault.OpRead, s.path, rerr)
	}
	return buf, nil
}

// groupBoundary scans buf and returns the length of its longest prefix of
// whole valid commit groups and how many groups that prefix holds. A cut
// final group is fine (it just isn't counted); deterministic corruption is
// an error.
func groupBoundary(buf []byte, types typeImages) (int64, int, error) {
	sum, err := scanRaw(buf, scanSink{types: types})
	if err != nil {
		return 0, 0, err
	}
	if sum.corrupt != nil {
		return 0, 0, sum.corrupt
	}
	return sum.goodEnd - HeaderSize, sum.commits, nil
}

// GroupDelta reports what ApplyGroup changed, in the vocabulary the server
// needs to advance its published state: which roots were (re)bound and
// which disappeared.
type GroupDelta struct {
	Start, End int64 // the log offsets the bytes occupy
	Groups     int   // commit groups applied
	// Changed names roots whose binding is new or different, sorted;
	// Removed names roots no longer in the table, sorted.
	Changed []string
	Removed []string
}

// ApplyGroup verifies raw — one or more whole commit groups that must
// begin exactly at the store's durable end — appends it to the log with
// the same rollback/poison discipline as a local commit, and applies it to
// the materialized roots. The first call puts the store in replica mode
// (see EnterReplica); on a store that has bound or unbound handles since
// its last commit group, that call first reverts to the log as Abort does —
// uncommitted local changes are dropped and values obtained earlier are
// detached. A group that overwrites a node image in place is published by
// replaying the log once it is durable; a failed replay poisons the store.
// Verification is complete before any of that: a torn or
// checksum-corrupt frame is rejected with ErrBadGroup or a *CorruptError
// and the store is untouched.
func (s *Store) ApplyGroup(raw []byte) (GroupDelta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var delta GroupDelta
	if s.closed {
		return delta, ErrClosed
	}
	if s.broken != nil {
		return delta, s.broken
	}
	if s.staged > 0 {
		return delta, fmt.Errorf("%w: store has a staged local commit batch", ErrReplica)
	}
	s.replica = true
	delta.Start, delta.End = s.end, s.end
	if len(raw) == 0 {
		return delta, nil
	}

	// 1. Structural + checksum verification, folding the groups' effect,
	//    before a single byte touches the file.
	fold := groupFold{nodes: map[uint64][]byte{}}
	sum, err := scanRaw(raw, fold.sink(s.types))
	if err != nil {
		return delta, err
	}
	if sum.corrupt != nil {
		return delta, sum.corrupt
	}
	if sum.commits == 0 || sum.goodEnd != HeaderSize+int64(len(raw)) {
		return delta, fmt.Errorf("%w: frame does not end on a commit-group boundary", ErrBadGroup)
	}
	delta.Groups = sum.commits
	newNodes := fold.nodes

	if len(s.touched) > 0 {
		// The store bound or unbound locally since its last commit group:
		// its memory is ahead of its log. A replica's state is its log's,
		// so start from that, as Abort would.
		if err := s.reload(); err != nil {
			return delta, err
		}
	}

	// 2. Stage the in-memory effect without touching live state, so a
	//    failed append leaves memory exactly at the old commit. The roots
	//    to re-materialize are the ones the root deltas upserted — the
	//    writer names every handle whose entry changed. A node image
	//    overwriting a *different* existing image means in-place mutation
	//    of a subgraph some untouched handle may share — a serve primary
	//    never produces that (every PUT binds freshly decoded values), but
	//    a generic primary can, and then the deltas under-approximate: every
	//    root is re-materialized from the log after the append instead.
	overwrite := false
	for oid, img := range newNodes {
		if prev, ok := s.nodes[oid]; ok && !bytes.Equal(prev, img) {
			overwrite = true
			break
		}
	}
	var removed []string
	for name := range fold.deletes {
		if _, ok := s.roots[name]; ok {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	var changed []rootEntry
	var staged []value.Value
	if !overwrite {
		changed = make([]rootEntry, 0, len(fold.upserts))
		for _, e := range fold.upserts {
			changed = append(changed, e)
		}
		sort.Slice(changed, func(i, j int) bool { return changed[i].name < changed[j].name })
		staged = make([]value.Value, len(changed))
		s.applyOverlay = newNodes
		m := s.newMaterializer(len(newNodes))
		for i, e := range changed {
			v, merr := m.root(e.inline)
			if merr != nil {
				s.applyOverlay = nil
				return delta, merr
			}
			staged[i] = v
		}
		s.applyOverlay = nil
	}
	// 3. Durable append — the shared write path with local commits.
	if err := s.appendBytes(raw); err != nil {
		return delta, err
	}
	delta.End = s.end
	delta.Removed = removed

	// 4. Publish to memory.
	if overwrite {
		// The log now holds the group; replay it. Memory that cannot be
		// rebuilt from the durable log is unusable, so a failed replay
		// poisons the store as a failed append would.
		if err := s.reload(); err != nil {
			return delta, s.poison(err)
		}
		delta.Changed = s.namesLocked()
		return delta, nil
	}
	for oid, img := range newNodes {
		s.nodes[oid] = img
		if oid >= s.nextOID {
			s.nextOID = oid + 1
		}
	}
	for _, name := range removed {
		delete(s.roots, name)
	}
	for i, e := range changed {
		s.roots[e.name] = &Root{Declared: e.typ, Value: staged[i]}
		delta.Changed = append(delta.Changed, e.name)
	}
	if fold.sawDefs {
		s.indexDefs = make(map[string]bool, len(fold.defs))
		for _, f := range fold.defs {
			s.indexDefs[f] = true
		}
		s.defsDirty = false
	}
	if fold.sawEpoch {
		// The primary's promotion record flows down the stream like any
		// other record; the follower's epoch tracks the history it holds.
		s.setEpoch(fold.epoch)
	}
	return delta, nil
}
