package intrinsic

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/pmap"
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
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

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
	next := s.epoch.Load() + 1
	var out nodeBuf
	out.WriteByte(recEpoch)
	out.uvarint(next)
	out.WriteByte(recCommit)
	if err := s.stageGroup(&out, 0); err != nil {
		return 0, err
	}
	if _, err := s.syncStaged(); err != nil {
		return 0, err
	}
	// A follower's bookkeeping is a primary's: each value keeps the OID it
	// was materialized from, so the next Commit rewrites only what changed.
	s.replica = false
	s.epoch.Store(next)
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

// rebase moves the offset of corruption scanRaw found in bytes that start
// at log offset at from the scan's to the log's.
func rebase(ce *CorruptError, at int64) *CorruptError {
	ce.Offset += at - HeaderSize
	return ce
}

// ReadGroupsAt reads whole commit groups starting exactly at offset from,
// verifying structure and CRC before returning them — a primary ships only
// its verified prefix. It decodes no type image: the follower's ApplyGroup
// checks what the records mean. It returns the raw bytes, the offset of
// the first byte after them, and how many groups they contain. maxBytes is
// a soft target (<= 0 means 256 KiB): at least one whole group is always
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
		good, groups, cerr := groupBoundary(buf, from)
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

// groupBoundary scans buf, read at log offset at, for structure and
// checksums only, and returns the length of its longest prefix of whole
// valid commit groups and how many groups that prefix holds. A cut final
// group is fine (it just isn't counted); deterministic corruption is an
// error.
func groupBoundary(buf []byte, at int64) (int64, int, error) {
	sum := scanRaw(buf, nil)
	if sum.corrupt != nil {
		return 0, 0, rebase(sum.corrupt, at)
	}
	return sum.goodEnd - HeaderSize, sum.commits, nil
}

// RootChange is one root a replicated group rebound or removed: Old is
// its committed binding before the group (nil when the name is new), New
// its binding after (nil when the group removed it).
type RootChange struct {
	Name     string
	Old, New *dynamic.Dynamic
}

// GroupDelta reports what ApplyGroup changed, in the vocabulary the server
// needs to advance its published state: the roots whose binding is new,
// different or gone, with their bindings on either side.
type GroupDelta struct {
	Start, End int64 // the log offsets the bytes occupy
	Groups     int   // commit groups applied
	// Changes is in name order.
	Changes []RootChange
}

// ApplyGroup verifies raw — one or more whole commit groups that must
// begin exactly at the store's durable end — appends it to the log with
// the same rollback/poison discipline as a local commit, and applies it to
// the committed root table. The first call puts the store in replica mode
// (see EnterReplica); on a store that has bound or unbound handles since
// its last commit group, that call first reverts to the log as Abort does —
// uncommitted local changes are dropped and values obtained earlier are
// detached. Verification is complete before any of that: a torn or
// checksum-corrupt frame is rejected with ErrBadGroup or a *CorruptError
// at the log offset where the damage would land, as is a type ordinal that
// neither the store's table nor an earlier 'T' record of the frame
// defines, and an upserted root that does not conform to its declared type
// with a *ConformanceError, and the store is untouched: the frame's 'T'
// records join the table only once it is durable. A frame is applied in
// place only when it just adds: every node record's OID is past the ones
// the store numbered, and those OIDs are dense, and every node that the
// upserted roots reach is in the frame. Any other frame is published by
// replaying the log once it is durable, and the replay makes the checks
// instead: a failed replay poisons the store. Either way the nodes the
// groups leave unreachable are dropped.
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
	//    before a single byte touches the file. The fold is the scratch's,
	//    kept from one frame to the next.
	fold := &s.sc.fold
	fold.data, fold.types = raw, slices.Clip(s.types) // the frame's 'T' records extend a copy
	defer fold.reset()
	sum := scanRaw(raw, fold)
	if sum.corrupt != nil {
		return delta, rebase(sum.corrupt, s.end)
	}
	if sum.commits == 0 || sum.goodEnd != HeaderSize+int64(len(raw)) {
		return delta, fmt.Errorf("%w: frame does not end on a commit-group boundary", ErrBadGroup)
	}
	delta.Groups = sum.commits
	nextOID := fold.finish()

	if len(s.touched) > 0 {
		// The store bound or unbound locally since its last commit group:
		// its memory is ahead of its log. A replica's state is its log's,
		// so start from that, as Abort would.
		if err := s.load(); err != nil {
			return delta, s.poison(err)
		}
	}

	// 2. Stage the in-memory effect without touching live state, so a
	//    refused group or a failed append leaves memory exactly at the old
	//    commit. The roots the root deltas upserted — the writer names
	//    every handle whose entry changed — are materialized from the frame
	//    alone, which is the whole change only when the frame just adds: a
	//    serve primary binds freshly decoded values, so its frames write
	//    new nodes, numbered densely from one counter, and name no other.
	//    Every other frame is replayed from the log after the append: one
	//    that writes a node the store numbered (an in-place mutation, which
	//    an untouched handle may share, or a rewrite of a node this store
	//    dropped), one whose new OIDs are scattered, which a durable
	//    frame's counts cannot index densely (see settle), and one whose
	//    roots reach a node it does not carry (errPruned). The fold's
	//    slots are in OID order, so the first and the last bound them.
	replay := false
	frame := s.sc.frame[:0]
	var lo, hi uint64
	if n := len(fold.slots); n > 0 {
		lo, hi = fold.oid(fold.slots[0]), nextOID
		replay = lo < s.nextOID || hi-lo > 2*uint64(n)+64
	}
	if !replay {
		for _, sl := range fold.slots {
			oid, img := nodeAt(raw, sl.at)
			frame = append(frame, nodeRec{oid: oid, at: sl.at, sum: sumOf(img)})
		}
	}
	s.sc.frame = frame
	old, next := s.Committed(), s.Committed()
	names := make([]string, 0, len(fold.upserts)+len(fold.deletes))
	for _, name := range fold.deletes {
		next = next.Delete(name)
		names = append(names, name)
	}
	var m *materializer
	if !replay {
		m = &materializer{s: s, fold: fold, types: fold.types}
		for _, e := range fold.upserts {
			v, err := m.root(e.inline)
			if errors.Is(err, errPruned) {
				replay, names = true, names[:len(fold.deletes)]
				break
			}
			var d *dynamic.Dynamic
			if err == nil {
				d, err = makeRoot(e.name, v, e.typ)
			}
			if err != nil {
				return delta, err
			}
			next = next.Set(e.name, d)
			names = append(names, e.name)
		}
	}
	// 3. Durable append — the shared write path with local commits.
	if err := s.appendBytes(raw); err != nil {
		return delta, err
	}
	delta.End = s.end

	// 4. Publish to memory.
	if replay {
		// The log now holds the group; replay it. Memory that cannot be
		// rebuilt from the durable log is unusable, so a failed replay
		// poisons the store as a failed append would. Every root the
		// replay leaves is rebound.
		if err := s.load(); err != nil {
			return delta, s.poison(err)
		}
		next = s.Committed()
		names = append(names, s.namesLocked()...)
	} else {
		s.defineTypes(fold.types)
		s.nextOID = max(s.nextOID, nextOID)
		m.keep()
		s.logNodes += fold.nodeRecs
		s.settleDurable(names, next, raw, frame, lo, hi, nil)
		s.roots = next
		s.committed.Store(&next)
		if fold.sawDefs {
			s.indexDefs = sortedSet(fold.defs)
			s.durableDefs, s.defsDirty = s.indexDefs, false
		}
	}
	if fold.sawEpoch {
		// The primary's promotion record flows down the stream like any
		// other record; the follower's epoch tracks the history it holds.
		s.epoch.Store(fold.epoch)
	}
	delta.Changes = changesOf(old, next, names)
	return delta, nil
}

// changesOf lists, in name order, each name's binding in prev and in
// next, leaving out the names neither binds.
func changesOf(prev, next pmap.Map[*dynamic.Dynamic], names []string) []RootChange {
	sort.Strings(names)
	changes := make([]RootChange, 0, len(names))
	for _, name := range names {
		was, _ := prev.Get(name)
		is, _ := next.Get(name)
		if was != nil || is != nil {
			changes = append(changes, RootChange{Name: name, Old: was, New: is})
		}
	}
	return changes
}
