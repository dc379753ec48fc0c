// Package intrinsic implements the paper's third and preferred form of
// persistence: *intrinsic* persistence, where "every value in a program is
// persistent" and survival is determined by reachability from named
// handles, with no extern/intern movement and no distinction in the
// language between primary and secondary storage. PS-algol and GemStone
// implemented forms of this model; like PS-algol the store provides an
// explicit commit, before which "the persistent value and the value being
// used by the program can diverge".
//
// The store is an append-only log of shallow node images keyed by OID (see
// format.go). Key properties, each exercised by the tests:
//
//   - Sharing and cycles survive: two handles reaching one value still
//     share it after reopening — the defect of replicating persistence does
//     not arise.
//   - Commit is incremental: a commit group holds the nodes whose image
//     changed and a root-table delta naming the handles that were bound,
//     unbound or enriched since the last group — its size follows the
//     change, not the store. Commit still *walks* everything reachable, so
//     in-place mutation of any persistent value is found; StageBound walks
//     only the handles written since the last group, for callers that
//     never mutate a bound value in place (see StageBound).
//   - Garbage collection: memory follows reachability at each durable
//     boundary. A batch that becomes durable (syncStaged), a replicated
//     frame (ApplyGroup) and a reopen (load) drop every node that no
//     committed root entry and no committed node image names any more —
//     its digest, its references and its OID entry — so the value it
//     replaced can be collected. A primary and a follower keep the same
//     bookkeeping, and one function settles a batch and a frame (see
//     refs.go), so a store changes role without converting any of it.
//     References are counted, so a garbage cycle keeps itself until a
//     reopen, which keeps only what the roots reach, or Compact, which
//     also leaves it out of the rewritten log.
//     Memory holds no committed image: a live node is its image's 128-bit
//     digest, which tells a changed image from an unchanged one, and the
//     OIDs its image names, if any (see refs.go).
//   - Crash recovery: a torn final commit group is ignored on reopen.
//   - Transient fields (label prefix "_") are not persisted — the paper's
//     memoization fields on persistent Part values.
//   - Schema evolution at handles: opening at a supertype is a view;
//     opening at a *consistent* type enriches the handle's schema to the
//     meet; inconsistent types are rejected (the paper's DBType/DBType'
//     discussion).
package intrinsic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/pmap"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Errors returned by store operations.
var (
	ErrNoRoot            = errors.New("intrinsic: no such handle")
	ErrNotConforming     = errors.New("intrinsic: value does not conform to declared type")
	ErrInconsistent      = errors.New("intrinsic: stored and requested types are inconsistent")
	ErrMigrationRequired = errors.New("intrinsic: schema enrichment requires value migration")
	ErrClosed            = errors.New("intrinsic: store is closed")
	// ErrPoisoned is returned by Commit and Compact after a failed commit
	// whose torn bytes could not be rolled back: the log tail is in an
	// unknown state, so further appends are refused until Abort (which
	// replays and re-trims) or a reopen.
	ErrPoisoned = errors.New("intrinsic: store poisoned by a failed commit; Abort or reopen to recover")
	// ErrReplica is returned by every local mutation (Bind, Commit,
	// DeclareIndex, Compact, ...) on a store in replica mode: its log is a
	// byte-for-byte prefix of a primary's, and a local commit group would
	// diverge it forever. See EnterReplica and ApplyGroup in repl.go.
	ErrReplica = errors.New("intrinsic: store is a replication follower; writes must go to the primary")
)

// TransientPrefix is the record-field label prefix marking fields that must
// not persist across Commit.
const TransientPrefix = "_"

// Root is a named handle: a declared type and the value it names. "The sole
// purpose of the handle is to provide a name for the value that is global
// to the program." The store holds each as a *dynamic.Dynamic.
type Root struct {
	Declared types.Type
	Value    value.Value
}

// ConformanceError names a root whose value does not conform to its
// declared type, as Bind, Open and ApplyGroup refuse it. It unwraps to
// ErrNotConforming and the dynamic.CoerceError.
type ConformanceError struct {
	Root string
	Err  error
}

func (e *ConformanceError) Error() string {
	return fmt.Sprintf("intrinsic: root %q does not conform to its declared type: %v", e.Root, e.Err)
}

func (e *ConformanceError) Unwrap() []error { return []error{ErrNotConforming, e.Err} }

// makeRoot pairs a root's value with its declared type: the conformance
// check of every way into the store.
func makeRoot(name string, v value.Value, t types.Type) (*dynamic.Dynamic, error) {
	d, err := dynamic.MakeAt(v, t)
	if err != nil {
		return nil, &ConformanceError{Root: name, Err: err}
	}
	return d, nil
}

// CommitStats reports what a Commit wrote.
type CommitStats struct {
	NodesReachable int // containers reachable from the roots
	NodesWritten   int // nodes whose image changed (or were new)
	BytesWritten   int // log bytes appended, including the root-table delta
}

// CompactStats reports the effect of a Compact.
type CompactStats struct {
	BytesBefore int64
	BytesAfter  int64
	NodesKept   int
	NodesFreed  int
}

// Store is an intrinsically persistent heap backed by an append-only log
// file. It is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	fs     iofault.FS
	path   string
	f      iofault.File
	closed bool

	// end is the offset just past the last durable commit group — the
	// only legal append position. endA mirrors it for lock-free readers
	// (DurableEnd): health reporting must not block behind a commit wedged
	// on a dying disk, which holds mu through the fsync.
	end  int64
	endA atomic.Int64
	// tailDirty records that the file extends past end with torn bytes
	// (crash leftovers); the next append truncates them first.
	tailDirty bool
	// broken poisons the store after a commit failure that could not be
	// rolled back; see ErrPoisoned.
	broken error

	// roots is the working root table, edited in place where owner built
	// it; committed is the last durable group's, which a durable commit
	// replaces in O(1) by the table it staged (staging takes a new owner).
	roots     pmap.Map[*dynamic.Dynamic]
	owner     *pmap.Owner
	committed atomic.Pointer[pmap.Map[*dynamic.Dynamic]]
	// nodes holds the digest of the last committed image of each node some
	// committed root entry or node image names — 16 bytes, not the image —
	// and refs, for the nodes whose image names others, their OIDs in
	// image order. oids maps their values to their OIDs, on a primary and
	// on a follower alike: a primary's committer re-encodes by it, and
	// either role finds the OID of a root entry it replaces by it. fresh
	// lists the containers numbered since the last durable group, which
	// AbortBound forgets. logNodes counts the node records the durable log
	// holds, superseded images included (Compact reports what it drops).
	oids     map[value.Value]uint64
	nodes    map[uint64]nodeSum
	refs     map[uint64][]uint64
	nextOID  uint64
	fresh    []value.Value
	logNodes int
	// shared holds, for each node that two or more committed references
	// name, how many it has past the first: a node of nodes that is not in
	// shared has exactly one, so a store whose values are never shared
	// pays nothing here. A durable boundary counts the references its
	// groups added before it drops the ones they removed (see settle).
	// nodesA mirrors len(nodes) for lock-free readers (Nodes).
	shared map[uint64]int32
	nodesA atomic.Int64
	// types is the log's type table: the type each ordinal names, the
	// staged groups' ordinals included, and typeIDs its inverse, which the
	// writer numbers a type by. durableTypes counts the ordinals the
	// durable groups define; a rolled-back batch forgets the rest (see
	// forgetTypes), so its retry writes their 'T' records again.
	types        []types.Type
	typeIDs      map[*types.Interned]uint64
	durableTypes int

	// epoch is the promotion epoch: 0 until the first Promote, bumped by
	// every Promote and recovered from the last committed 'E' record on
	// open. Writers hold s.mu; it is atomic for lock-free readers (Epoch):
	// health and fencing decisions must not block behind a commit wedged
	// on a dying disk.
	epoch atomic.Uint64

	// indexDefs is the declared field-index set (see DeclareIndex), sorted
	// and replaced on change, durable as an 'X' record in the next commit
	// group after a change. Only the *definitions* persist — index contents
	// always rebuild from the committed roots, so they can never run ahead
	// of the durable state.
	indexDefs []string
	// defsDirty records that indexDefs changed since the last commit that
	// persisted them; durableDefs is the set the log holds.
	defsDirty   bool
	durableDefs []string

	// Batch staging (group commit). StageCommit appends an encoded commit
	// group to the file *without* syncing it; SyncBatch makes every staged
	// group durable with one fsync. Between the two, the file extends past
	// end by whole (but volatile) commit groups:
	//
	//   staged      — groups written since the last durable boundary
	//   stagedEnd   — file offset just past the last staged group
	//   staging     — those groups' bytes and where their node records lie;
	//                 settled into nodes and refs only when the batch is
	//                 durable, so a failed batch leaves the bookkeeping
	//                 exactly at the durable state
	//   stagedRoots — the root table the last staged group wrote, or nil
	//   stagedRecs  — the node records those groups wrote
	//   stagedDefs  — the index-definition table a staged group wrote, or
	//                 nil (defsDirty is restored if the batch fails)
	//
	// The invariant every recovery path preserves: while staged > 0 the file
	// may hold complete-but-unsynced groups past end, and they must be
	// truncated away (rollbackStaged, or Abort) before any replay — a replay
	// would otherwise resurrect groups whose writers were told they failed.
	staged      int
	stagedEnd   int64
	staging     stagedNodes
	stagedRoots *pmap.Map[*dynamic.Dynamic]
	stagedRecs  int
	stagedDefs  []string

	// touched holds the handles whose table entry changed since the last
	// staged commit group. Bind, Unbind and OpenAs's enrichment record the
	// name; nothing else can change an entry (a root atom is immutable, a
	// bound container keeps its OID while an entry names it), but reach
	// still touches a root whose container it has to number afresh. The
	// next group's root delta is computed from touched and StageBound
	// walks only these roots. stagedTouched is what the open batch's
	// groups consumed: a failed batch puts it back, exactly as stagedDefs
	// restores defsDirty, so a retry re-emits the whole delta.
	touched       map[string]bool
	stagedTouched map[string]bool

	// sc is the committer's scratch for one commit group, kept from one
	// group to the next; see scratch.
	sc scratch

	// replica marks a store fed by ApplyGroup (a replication follower):
	// local mutations are refused with ErrReplica. It is all that a role
	// changes; the bookkeeping is the same in both.
	replica bool
}

// Open opens (or creates) a store at path, replaying the log to the last
// complete commit.
func Open(path string) (*Store, error) {
	return OpenFS(iofault.OS{}, path)
}

// OpenFS is Open over an explicit file system — the seam the fault and
// crash tests inject through.
func OpenFS(fsys iofault.FS, path string) (*Store, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &Store{
		fs:    fsys,
		path:  path,
		f:     f,
		owner: new(pmap.Owner),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Close closes the underlying file without committing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// setEnd moves the durable end, keeping the lock-free mirror in step.
// Callers hold s.mu.
func (s *Store) setEnd(v int64) {
	s.end = v
	s.endA.Store(v)
}

// Committed returns the root table of the last durable commit group, an
// immutable map. Lock-free, like DurableEnd.
func (s *Store) Committed() pmap.Map[*dynamic.Dynamic] { return *s.committed.Load() }

// Nodes returns how many live nodes the store keeps a digest of: one for
// each container its committed roots reach, and the garbage cycles a
// reopen or Compact has not yet dropped. Lock-free, like DurableEnd.
func (s *Store) Nodes() int { return int(s.nodesA.Load()) }

// rootEntry is a parsed but not yet materialized root-table entry.
type rootEntry struct {
	name   string
	typ    types.Type
	inline []byte // the inline value bytes (atom or ref)
}

// load replays the log and materializes the root graph. Replay applies
// whole valid commit groups only; a torn tail is remembered (and trimmed
// before the next append), deterministic corruption fails the open with a
// CorruptError naming the offset, a log of another version fails it with
// a LogVersionError, untouched, and a non-conforming root with a
// ConformanceError. The log is read whole into one buffer, which the
// scan's records and the materializer's images are slices of, and which
// nothing holds once load returns.
func (s *Store) load() error {
	data, err := readLog(s.f)
	if err != nil {
		return err
	}
	s.indexDefs, s.durableDefs = nil, nil
	s.defsDirty = false
	s.touched, s.stagedTouched = nil, nil
	s.nodes, s.refs, s.nextOID, s.fresh = map[uint64]nodeSum{}, map[uint64][]uint64{}, 0, nil
	s.shared = map[uint64]int32{}
	s.types, s.typeIDs, s.durableTypes = nil, map[*types.Interned]uint64{}, 0
	var tab []types.Type
	fold := groupFold{data: data}
	sum, err := scanLog(data, fold.sink(&tab))
	if err != nil {
		return err
	}
	s.defineTypes(tab)
	if sum.empty || (sum.corrupt == nil && sum.version == 0) {
		// Fresh file — or a torn header fragment from a crash during store
		// creation, which cannot contain any commit and is safe to clear.
		header := append([]byte(logMagic), logVersion)
		if !sum.empty {
			if err := s.f.Truncate(0); err != nil {
				return &iofault.IOError{Op: iofault.OpTruncate, Path: s.path, Err: err}
			}
			if _, err := s.f.Seek(0, io.SeekStart); err != nil {
				return &iofault.IOError{Op: iofault.OpSeek, Path: s.path, Err: err}
			}
		}
		if _, err := s.f.Write(header); err != nil {
			return &iofault.IOError{Op: iofault.OpWrite, Path: s.path, Err: err}
		}
		if err := s.f.Sync(); err != nil {
			return &iofault.IOError{Op: iofault.OpSync, Path: s.path, Err: err}
		}
		s.setEnd(int64(len(header)))
		s.tailDirty = false
		s.epoch.Store(0)
		s.logNodes = 0
		s.nodesA.Store(0)
		s.oids = map[value.Value]uint64{}
		s.roots = pmap.Map[*dynamic.Dynamic]{}
		s.committed.Store(new(pmap.Map[*dynamic.Dynamic]))
		return nil
	}
	if sum.corrupt != nil {
		return sum.corrupt
	}
	s.setEnd(sum.goodEnd)
	s.tailDirty = sum.torn
	s.epoch.Store(fold.epoch)

	s.indexDefs = sortedSet(fold.defs)
	s.durableDefs = s.indexDefs
	s.logNodes = fold.nodeRecs
	// OIDs are numbered past every node the log ever held, reachable or
	// not, so a later group never reuses one an older group wrote.
	s.nextOID = fold.index()
	// Materialize the committed roots — the fold of every root delta from
	// the empty table — remembering each node the roots reach by its
	// digest and references, and counting each reference past its first.
	names := make([]string, 0, len(fold.upserts))
	for name := range fold.upserts {
		names = append(names, name)
	}
	sort.Strings(names)
	dyns := make([]*dynamic.Dynamic, len(names))
	s.nodes = make(map[uint64]nodeSum, len(fold.nodes))
	m := s.newMaterializer(len(fold.nodes), &fold, s.types)
	m.load = true
	for i, name := range names {
		e := fold.upserts[name]
		v, err := m.root(e.inline)
		if err != nil {
			return err
		}
		if dyns[i], err = makeRoot(name, v, e.typ); err != nil {
			return err
		}
	}
	// Register what the roots reach.
	s.oids = make(map[value.Value]uint64, len(m.cache))
	m.keep()
	s.nodesA.Store(int64(len(s.nodes)))
	roots := pmap.Build(names, dyns)
	s.roots = roots
	s.committed.Store(&roots)
	// Position the write handle at the end of durable data: a torn tail,
	// if any, is overwritten by the next append (after truncation).
	if _, err := s.f.Seek(s.end, io.SeekStart); err != nil {
		return err
	}
	return nil
}

// readLog reads the whole file f, from its start, into one buffer of its
// size.
func readLog(f iofault.File) ([]byte, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	data := make([]byte, size)
	n, err := io.ReadFull(f, data)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		err = nil // the file is shorter than it was: scan what it holds
	}
	return data[:n], err
}

// defineTypes makes tab, which extends the store's type table, the table
// of the durable log, and numbers its new types for the writer. Callers
// hold s.mu.
func (s *Store) defineTypes(tab []types.Type) {
	for id := len(s.types); id < len(tab); id++ {
		h := types.Intern(tab[id])
		if _, ok := s.typeIDs[h]; !ok {
			s.typeIDs[h] = uint64(id)
		}
	}
	s.types, s.durableTypes = tab, len(tab)
}

// forgetTypes drops the ordinals from n on: no group in the file defines
// them any more. Callers hold s.mu.
func (s *Store) forgetTypes(n int) {
	for id := n; id < len(s.types); id++ {
		h := types.Intern(s.types[id])
		if s.typeIDs[h] == uint64(id) {
			delete(s.typeIDs, h)
		}
	}
	s.types = s.types[:n]
}

// typeID returns t's ordinal, numbering the type next when no group
// defines it yet: the group being encoded then writes its 'T' record.
// Callers hold s.mu.
func (s *Store) typeID(t types.Type) uint64 {
	h := types.Intern(t)
	if id, ok := s.typeIDs[h]; ok {
		return id
	}
	id := uint64(len(s.types))
	s.typeIDs[h] = id
	s.types = append(s.types, h.Type())
	return id
}

// errPruned is ApplyGroup's signal that a frame names a node the store
// numbered and the frame does not carry: one the store holds, or one it
// dropped, which a writer's batch can leave unreachable in one group and
// name again in a later one. ApplyGroup publishes such a frame by
// replaying the log.
var errPruned = errors.New("intrinsic: frame names a node it does not carry")

// materializer decodes node images into live values for one load or
// ApplyGroup, reading them from fold: a replay's every node, an
// ApplyGroup's incoming ones. cache shares each node among every parent
// that reaches it; busy holds the set, tag and dynamic nodes being decoded
// — a cycle back into one is corrupt — and is allocated at the first of
// them. types is the type table with the incoming groups' 'T' records.
// load marks a replay's materializer, which records each node it decodes
// in nodes and refs and counts in shared each reference past a node's
// first; refs is its stack of the references of the nodes being decoded,
// innermost last. ApplyGroup's reads only the frame (see errPruned) and
// records nothing: the frame's settle does, once it is durable. Either
// registers each value it decoded in oids (keep).
type materializer struct {
	s       *Store
	fold    *groupFold
	types   []types.Type
	cache   map[uint64]value.Value
	busy    map[uint64]bool
	resolve func(oid uint64) (value.Value, error) // m.node, bound once
	recs    value.RecordDecoder
	refs    []uint64
	load    bool
}

// keep registers each value m decoded.
func (m *materializer) keep() {
	for oid, v := range m.cache {
		m.s.oids[v] = oid
	}
}

// newMaterializer returns a materializer sized for n nodes.
func (s *Store) newMaterializer(n int, fold *groupFold, tab []types.Type) *materializer {
	m := &materializer{s: s, fold: fold, types: tab, cache: make(map[uint64]value.Value, n)}
	m.resolve = m.node
	return m
}

// root decodes a root entry's inline value.
func (m *materializer) root(inline []byte) (value.Value, error) {
	r := nodeReader{buf: inline, types: m.types}
	return r.inlineValue(m.resolve)
}

// enter marks a non-record node as being decoded.
func (m *materializer) enter(oid uint64) {
	if m.busy == nil {
		m.busy = map[uint64]bool{}
	}
	m.busy[oid] = true
}

// node decodes the node oid (and, recursively, its children) into a live
// value, with sharing through the cache.
func (m *materializer) node(oid uint64) (value.Value, error) {
	s := m.s
	if v, ok := m.cache[oid]; ok {
		if m.load {
			s.shared[oid]++
		}
		return v, nil
	}
	img, ok := m.fold.image(oid)
	if !ok {
		if !m.load && oid < s.nextOID {
			return nil, errPruned
		}
		return nil, fmt.Errorf("%w: dangling oid %d", ErrCorrupt, oid)
	}
	if m.busy[oid] {
		return nil, fmt.Errorf("%w: cycle through a non-record node %d", ErrCorrupt, oid)
	}
	if !m.load {
		return m.decode(oid, img)
	}
	start := len(m.refs)
	v, err := m.decode(oid, img)
	if err == nil {
		s.nodes[oid] = sumOf(img)
		if refs := m.refs[start:]; len(refs) > 0 {
			s.refs[oid] = slices.Clone(refs)
		}
	}
	m.refs = m.refs[:start]
	return v, err
}

// decode decodes img, the image of the node oid.
func (m *materializer) decode(oid uint64, img []byte) (value.Value, error) {
	r := nodeReader{buf: img, types: m.types}
	if m.load {
		r.refs = &m.refs
	}
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	resolve := m.resolve
	switch tag {
	case inRecord:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rec := new(value.Record)
		m.cache[oid] = rec // before children: record cycles are supported
		m.recs.Begin(rec, make([]value.Value, 0, capCount(int(n))))
		for i := uint64(0); i < n; i++ {
			l, err := r.bytes()
			if err != nil {
				return nil, err
			}
			f, err := r.inlineValue(resolve)
			if err != nil {
				return nil, err
			}
			m.recs.Field(l, f)
		}
		return m.recs.End(), nil
	case inList:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		lst := &value.List{Elems: make([]value.Value, 0, capCount(int(n)))}
		m.cache[oid] = lst
		for i := uint64(0); i < n; i++ {
			el, err := r.inlineValue(resolve)
			if err != nil {
				return nil, err
			}
			lst.Append(el)
		}
		return lst, nil
	case inSet:
		set := value.NewSet()
		m.cache[oid] = set
		m.enter(oid)
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			el, err := r.inlineValue(resolve)
			if err != nil {
				return nil, err
			}
			set.Add(el)
		}
		delete(m.busy, oid)
		return set, nil
	case inTag:
		m.enter(oid)
		label, err := r.bytes()
		if err != nil {
			return nil, err
		}
		payload, err := r.inlineValue(resolve)
		if err != nil {
			return nil, err
		}
		delete(m.busy, oid)
		tv := value.NewTag(string(label), payload)
		m.cache[oid] = tv
		return tv, nil
	case inDynamic:
		m.enter(oid)
		t, err := r.typ()
		if err != nil {
			return nil, err
		}
		inner, err := r.inlineValue(resolve)
		if err != nil {
			return nil, err
		}
		delete(m.busy, oid)
		m.recs.Flush() // the check reads the records around it as read so far
		d, err := dynamic.MakeAt(inner, t)
		if err != nil {
			return nil, fmt.Errorf("%w: persisted dynamic no longer conforms: %v", ErrCorrupt, err)
		}
		m.cache[oid] = d
		return d, nil
	default:
		return nil, fmt.Errorf("%w: node tag %d", ErrCorrupt, tag)
	}
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

// Bind creates (or replaces) a handle naming v at the declared type; nil
// declares the value's most specific type. Binding is in-memory until the
// next Commit, matching PS-algol's pre-commit divergence.
func (s *Store) Bind(name string, v value.Value, declared types.Type) error {
	var d *dynamic.Dynamic
	if declared == nil {
		d = dynamic.Make(v)
	} else {
		var err error
		if d, err = makeRoot(name, v, declared); err != nil {
			return err
		}
	}
	_, err := s.Rebind(name, d)
	return err
}

// Rebind is Bind of a dynamic, whose construction checked it, or Unbind
// when d is nil; it returns the binding it replaced, or nil.
func (s *Store) Rebind(name string, d *dynamic.Dynamic) (*dynamic.Dynamic, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica {
		return nil, ErrReplica
	}
	prev, bound := s.roots.Get(name)
	if d == nil && !bound {
		return nil, nil
	}
	s.touch(name)
	if d == nil {
		s.roots = s.roots.DeleteOwned(name, s.owner)
	} else {
		s.roots = s.roots.SetOwned(name, d, s.owner)
	}
	return prev, nil
}

// touch records that name's root-table entry changes. Callers hold s.mu.
func (s *Store) touch(name string) {
	if s.touched == nil {
		s.touched = map[string]bool{}
	}
	s.touched[name] = true
}

// Unbind removes a handle; the values it named become garbage unless
// reachable from another handle, and leave the store's memory when the
// commit group that removes the handle is durable — a garbage cycle at the
// next reopen or Compact. On
// a replica it changes nothing and reports false: the handle table is the
// log's, and only ApplyGroup moves it.
func (s *Store) Unbind(name string) bool {
	prev, _ := s.Rebind(name, nil)
	return prev != nil
}

// Root returns the handle's declared type and value.
func (s *Store) Root(name string) (*Root, bool) {
	s.mu.Lock()
	d, ok := s.roots.Get(name)
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &Root{Declared: d.Type(), Value: d.Value()}, true
}

// Names returns all handle names in sorted order.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.namesLocked()
}

func (s *Store) namesLocked() []string {
	out := make([]string, 0, s.roots.Len())
	s.roots.Range(func(n string, _ *dynamic.Dynamic) bool {
		out = append(out, n)
		return true
	})
	return out
}

// DeclareIndex adds a field-value index definition, durable from the next
// Commit. It reports whether the field was newly declared.
// Like Bind, the declaration is in-memory until Commit.
func (s *Store) DeclareIndex(field string) bool { return s.setIndexDef(field, true) }

// DropIndexDef removes a field-value index definition, reporting whether
// it was declared.
func (s *Store) DropIndexDef(field string) bool { return s.setIndexDef(field, false) }

// setIndexDef declares field (on) or drops it, reporting whether the set
// changed. It replaces the set, never writing into one a snapshot holds.
func (s *Store) setIndexDef(field string, on bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, had := slices.BinarySearch(s.indexDefs, field)
	if had == on {
		return false
	}
	if defs := slices.Clip(s.indexDefs); on {
		s.indexDefs = slices.Insert(defs, i, field)
	} else {
		s.indexDefs = append(defs[:i:i], defs[i+1:]...)
	}
	s.defsDirty = true
	return true
}

// IndexDefs returns the declared index fields in sorted order.
func (s *Store) IndexDefs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string{}, s.indexDefs...)
}

// sortedSet returns the distinct strings of a, sorted, in a new slice.
func sortedSet(a []string) []string {
	out := slices.Clone(a)
	slices.Sort(out)
	return slices.Compact(out)
}

// OpenAs opens a handle at the type a (re)compiled program declares for it,
// implementing the paper's schema-evolution rules:
//
//   - stored ≤ want: the program sees a *view* of the richer data; the
//     stored schema is unchanged.
//   - stored and want merely *consistent* (a common subtype exists): the
//     handle's schema is enriched to the meet — "provided we never
//     contradict any of our previous definitions, we can continue to
//     enrich the type, or schema, of the database". If the current value
//     does not yet conform to the meet, ErrMigrationRequired is returned
//     and nothing changes.
//   - otherwise: ErrInconsistent.
//
// On a replica a view still opens, but an enrichment is a local write and
// is refused with ErrReplica.
func (s *Store) OpenAs(name string, want types.Type) (value.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.roots.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRoot, name)
	}
	if types.Subtype(r.Type(), want) {
		return r.Value(), nil // a view of the (possibly richer) stored data
	}
	meet, ok := types.Meet(r.Type(), want)
	if !ok {
		return nil, fmt.Errorf("%w: stored %s, requested %s", ErrInconsistent, r.Type(), want)
	}
	if s.replica {
		return nil, fmt.Errorf("%w: enriching %q", ErrReplica, name)
	}
	enriched, err := dynamic.MakeAt(r.Value(), meet) // schema enrichment
	if err != nil {
		return nil, fmt.Errorf("%w: value %s does not conform to %s",
			ErrMigrationRequired, value.TypeOf(r.Value()), meet)
	}
	s.touch(name)
	s.roots = s.roots.SetOwned(name, enriched, s.owner)
	return r.Value(), nil
}

// ---------------------------------------------------------------------------
// Commit, abort, compaction
// ---------------------------------------------------------------------------

// reach walks the container graph from the named roots, in the order
// given, assigning OIDs to new containers, and returns the reachable
// containers in that deterministic order, in the scratch's order slice.
// Transient record fields are not traversed. A root whose own container
// has no OID yet is touched: its table entry is about to name a fresh one.
func (s *Store) reach(names []string) []value.Value {
	if s.sc.seen == nil {
		s.sc.seen = map[value.Value]bool{}
	}
	for _, n := range names {
		d, _ := s.roots.Get(n)
		v := d.Value()
		if isContainer(v) {
			if _, ok := s.oids[v]; !ok {
				s.touch(n)
			}
		}
		s.walk(v)
	}
	return s.sc.order
}

// walk is reach's step: it numbers v when v is a container that has no
// OID yet, appends it to the order and walks its children, once per
// container.
func (s *Store) walk(v value.Value) {
	if !isContainer(v) || s.sc.seen[v] {
		return
	}
	s.sc.seen[v] = true
	if _, ok := s.oids[v]; !ok {
		s.oids[v] = s.nextOID
		s.nextOID++
		s.fresh = append(s.fresh, v)
	}
	s.sc.order = append(s.sc.order, v)
	switch vv := v.(type) {
	case *value.Record:
		vv.Each(func(l string, f value.Value) {
			if !isTransient(l, TransientPrefix) {
				s.walk(f)
			}
		})
	case *value.List:
		for _, el := range vv.Elems {
			s.walk(el)
		}
	case *value.Set:
		for _, el := range vv.Elems() {
			s.walk(el)
		}
	case *value.Tag:
		s.walk(vv.Payload)
	case *dynamic.Dynamic:
		s.walk(vv.Value())
	}
}

// encodeRootEntries writes a count and one root-table entry per name.
func (s *Store) encodeRootEntries(b *nodeBuf, names []string) error {
	b.uvarint(uint64(len(names)))
	for _, n := range names {
		d, _ := s.roots.Get(n)
		b.str(n)
		b.uvarint(s.typeID(d.Type()))
		start := b.Len()
		if err := encodeInline(b, d.Value(), s); err != nil {
			return err
		}
		b.prefixLen(start)
	}
	return nil
}

// rootDelta turns the touched set into the two sorted halves of the next
// group's 'D' record, in the scratch's slices: the touched handles that
// are bound now, and those that are not but were in the table the
// previous group wrote.
func (s *Store) rootDelta() (upserts, deletes []string) {
	prev := s.Committed()
	if s.stagedRoots != nil {
		prev = *s.stagedRoots
	}
	upserts, deletes = s.sc.upserts[:0], s.sc.deletes[:0]
	for name := range s.touched {
		if _, ok := s.roots.Get(name); ok {
			upserts = append(upserts, name)
		} else if _, was := prev.Get(name); was {
			deletes = append(deletes, name)
		}
	}
	slices.Sort(upserts)
	slices.Sort(deletes)
	s.sc.upserts, s.sc.deletes = upserts, deletes
	return upserts, deletes
}

// encodeRootDelta writes a 'D' record into b, or nothing when both halves
// are empty.
func (s *Store) encodeRootDelta(b *nodeBuf, upserts, deletes []string) error {
	if len(upserts)+len(deletes) == 0 {
		return nil
	}
	b.WriteByte(recRootDelta)
	if err := s.encodeRootEntries(b, upserts); err != nil {
		return err
	}
	b.uvarint(uint64(len(deletes)))
	for _, n := range deletes {
		b.str(n)
	}
	return nil
}

// encodeTypes writes a 'T' record for each ordinal from from on.
func (s *Store) encodeTypes(b *nodeBuf, from int) error {
	for _, t := range s.types[from:] {
		b.WriteByte(recType)
		if err := b.typ(t); err != nil {
			return err
		}
	}
	return nil
}

// encodeIndexDefs writes the index-definition table record into b.
func encodeIndexDefs(b *nodeBuf, defs []string) {
	b.WriteByte(recIndex)
	b.uvarint(uint64(len(defs)))
	for _, f := range defs {
		b.str(f)
	}
}

// wrapIO wraps cause in the shared I/O taxonomy.
func wrapIO(op iofault.Op, path string, cause error) error {
	return iofault.Wrap(op, path, cause)
}

// poison marks the store unusable for further appends until Abort or a
// reopen, and returns cause.
func (s *Store) poison(cause error) error {
	s.broken = fmt.Errorf("%w (cause: %v)", ErrPoisoned, cause)
	return cause
}

// appendPos is the file handle's append position: past the last staged
// group while a batch is open, else the durable end. Callers hold s.mu.
func (s *Store) appendPos() int64 {
	if s.staged > 0 {
		return s.stagedEnd
	}
	return s.end
}

// resetStaging discards the in-memory staging state once the staged bytes
// are gone from the file. A batch that persisted the index-definition
// table and then failed must mark the defs dirty again, so the next commit
// re-writes them; likewise the handles its root deltas covered are touched
// again, and the types its 'T' records defined are numbered anew. Callers
// hold s.mu.
func (s *Store) resetStaging() {
	s.staged = 0
	s.stagedEnd = s.end
	s.staging.reset()
	s.stagedRoots, s.stagedRecs = nil, 0
	s.forgetTypes(s.durableTypes)
	if s.stagedDefs != nil {
		s.defsDirty = true
		s.stagedDefs = nil
	}
	s.touched, s.stagedTouched = merged(s.touched, s.stagedTouched)
}

// trim cuts the file back to the durable end and repositions the write
// handle there, dropping the open batch's staging state. Callers hold s.mu.
func (s *Store) trim() error {
	if err := s.f.Truncate(s.end); err != nil {
		return wrapIO(iofault.OpTruncate, s.path, err)
	}
	if _, err := s.f.Seek(s.end, io.SeekStart); err != nil {
		return wrapIO(iofault.OpSeek, s.path, err)
	}
	s.resetStaging()
	return nil
}

// rollbackStaged trims every staged-but-unsynced group (and any torn bytes
// of the failed write) back to the pre-batch durable end, so a later
// append or replay can never resurrect a batch whose writers were told it
// failed. If the trim itself fails the store is poisoned: the file holds
// complete groups past the durable end that cannot be removed, and only a
// successful Abort (which retries the trim) recovers. Returns cause.
func (s *Store) rollbackStaged(cause error) error {
	if s.trim() != nil {
		return s.poison(cause)
	}
	return cause
}

// stageGroup stages one encoded commit group, the bytes of out from
// start, adding its CRC-32C trailer, via stageBytes.
func (s *Store) stageGroup(out *nodeBuf, start int) error {
	var tr [checksumSize]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(out.Bytes()[start:], crcTable))
	out.Write(tr[:])
	return s.stageBytes(out.Bytes()[start:])
}

// stageBytes appends raw past the last staged group *without* syncing,
// clearing any torn crash tail first. The bytes are volatile until
// syncStaged promotes them; a write failure rolls the whole open batch
// back (rollbackStaged), so staged groups fail together.
func (s *Store) stageBytes(raw []byte) error {
	if s.tailDirty {
		if err := s.f.Truncate(s.end); err != nil {
			return s.poison(wrapIO(iofault.OpTruncate, s.path, err))
		}
		if _, err := s.f.Seek(s.end, io.SeekStart); err != nil {
			return s.poison(wrapIO(iofault.OpSeek, s.path, err))
		}
		s.tailDirty = false
	}
	if s.staged == 0 {
		s.stagedEnd = s.end
	}
	if _, err := s.f.Write(raw); err != nil {
		return s.rollbackStaged(wrapIO(iofault.OpWrite, s.path, err))
	}
	s.stagedEnd += int64(len(raw))
	s.staged++
	return nil
}

// syncStaged fsyncs the file, promoting every staged group to durable at
// once — the one shared fsync group commit exists to amortize — and only
// then settles the staged node records and root entries into the committed
// bookkeeping. On a sync failure the batch is rolled back to the pre-batch
// durable end (or the store is poisoned if even that fails): all staged
// groups fail together, with the same cause, and no count moves. Returns
// the number of groups made durable.
func (s *Store) syncStaged() (int, error) {
	if s.staged == 0 {
		return 0, nil
	}
	if err := s.f.Sync(); err != nil {
		return 0, s.rollbackStaged(wrapIO(iofault.OpSync, s.path, err))
	}
	n := s.staged
	s.setEnd(s.stagedEnd)
	s.durableTypes = len(s.types)
	s.logNodes += s.stagedRecs
	if s.stagedRoots != nil {
		s.settleStaged()
		s.committed.Store(s.stagedRoots)
	}
	if s.stagedDefs != nil {
		s.durableDefs = s.stagedDefs
	}
	s.staging.reset()
	s.stagedRoots, s.stagedDefs = nil, nil
	s.staged, s.stagedRecs = 0, 0
	s.stagedTouched = keptMap(s.stagedTouched)
	s.fresh = keptSlice(s.fresh)
	return n, nil
}

// appendBytes appends raw (already checksummed) at the append position
// and advances s.end only when the bytes are fully durable — stage + sync
// as a batch of one. This is the
// single write path shared by local commits and replicated groups
// (ApplyGroup), so both get the identical rollback/poison discipline.
func (s *Store) appendBytes(raw []byte) error {
	if err := s.stageBytes(raw); err != nil {
		return err
	}
	_, err := s.syncStaged()
	return err
}

// Commit makes the current state of every handle durable. Only nodes whose
// shallow image differs from the last committed image (by its digest),
// and the root-table entries of handles written since, are appended — the
// incremental property benchmarked in experiment E4. Commit is stage + sync as a batch
// of one: the group-commit primitives below share every byte of its write
// path.
//
// Commit is crash-consistent: on a write or sync failure the log is
// truncated back to the pre-commit offset (and the node bookkeeping is
// left at the last committed state), so a failed commit can never bury a
// torn tail under later appends. If even the truncation fails, the store
// is poisoned (ErrPoisoned) until Abort or a reopen.
func (s *Store) Commit() (CommitStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return CommitStats{}, err
	}
	stats, err := s.stageCommitLocked(true)
	if err != nil {
		return stats, err
	}
	_, err = s.syncStaged()
	return stats, err
}

// StageCommit encodes the current state of every handle as one commit
// group and appends it to the log *without* syncing: the group is staged,
// not durable, and must not be acknowledged to anyone until a SyncBatch
// succeeds. Repeated StageCommit calls build a batch that one SyncBatch
// promotes with a single shared fsync — group commit's amortization. A
// staged group is volatile (a crash may lose it) but never torn-visible:
// recovery applies whole groups only, so a reopen lands on a group
// boundary — some serial prefix of the staged batch, never part of one
// group.
func (s *Store) StageCommit() (CommitStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return CommitStats{}, err
	}
	return s.stageCommitLocked(true)
}

// StageBound is StageCommit for a caller that only ever changes the store
// by binding and unbinding handles: it walks the handles written since the
// last staged group instead of everything reachable, so staging costs what
// the commit changed. The contract is that no value under an *untouched*
// handle was mutated in place since it was committed — such a mutation is
// not found, and persists only when a later Commit or StageCommit walks
// it. A server whose published state is immutable and which binds freshly
// decoded values meets it by construction. The group written is the one
// StageCommit would write under that contract, byte for byte.
func (s *Store) StageBound() (CommitStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return CommitStats{}, err
	}
	return s.stageCommitLocked(false)
}

// SyncBatch makes every staged commit group durable with one fsync and
// reports how many groups it promoted (0, trivially succeeding, when
// nothing is staged). On failure the whole batch has been rolled back to
// the pre-batch durable end — every staged group failed, with this error
// as the shared cause — or, if even the rollback failed, the store is
// poisoned until Abort re-trims and replays.
func (s *Store) SyncBatch() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return 0, err
	}
	return s.syncStaged()
}

// writable is the shared precondition of every local append path. Callers
// hold s.mu.
func (s *Store) writable() error {
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if s.replica {
		return ErrReplica
	}
	return nil
}

// stageCommitLocked encodes and stages one commit group. Incremental
// encoding compares against the staged image when one exists — within a
// batch each group diffs against its predecessor, exactly as if the
// groups had been committed singly — which is why a batched log is
// byte-identical to a serial one (the property test). The root delta
// likewise covers the handles touched since the previous *staged* group.
// The roots searched for changed nodes are every handle when walkAll is
// set (Commit's reachability semantics), else only the touched ones that
// are bound (StageBound): the upserts of the root delta, which the walk
// cannot change, since it touches only a root it walks. Callers hold s.mu.
func (s *Store) stageCommitLocked(walkAll bool) (CommitStats, error) {
	defer s.sc.reset()
	var order []value.Value
	if walkAll {
		order = s.reach(s.namesLocked())
	}
	upserts, deletes := s.rootDelta() // after a walk of all, which may touch
	if !walkAll {
		order = s.reach(upserts)
	}
	stats := CommitStats{NodesReachable: len(order)}
	from := len(s.types)
	st := &s.staging
	start, recs := st.buf.Len(), len(st.recs)
	group, at, err := s.encodeGroup(order, upserts, deletes, from, &stats)
	if err != nil {
		// The group never reached the file, so neither did its types or
		// its records.
		s.forgetTypes(from)
		st.buf.Truncate(start)
		st.recs = st.recs[:recs]
		return stats, err
	}
	// A failed stage rolls the whole batch back, and the rollback forgets
	// every type the batch numbered (resetStaging).
	if err := s.stageGroup(group, at); err != nil {
		return stats, err
	}
	stats.BytesWritten = group.Len() - at
	s.stagedRecs += stats.NodesWritten
	if st.last != nil {
		st.index(recs)
	}
	roots := s.roots
	s.stagedRoots, s.owner = &roots, new(pmap.Owner)
	if s.defsDirty {
		s.defsDirty = false
		s.stagedDefs = append([]string{}, s.indexDefs...)
	}
	// Hand the touched set to the batch.
	s.stagedTouched, s.touched = merged(s.stagedTouched, s.touched)
	return stats, nil
}

// encodeGroup encodes one commit group over the nodes of order whose
// digest differs from their staged or committed image's, the root delta
// and, if dirty, the index definitions. The types it numbers past from are
// defined by 'T' records at the group's head. The group is encoded into
// the batch's buffer, which keeps the node records until the batch is
// durable, each noted in the batch's records; when it needs 'T' records it
// is copied behind them into the scratch's. encodeGroup returns the buffer
// that holds the group, without its checksum, and where in it the group
// starts.
func (s *Store) encodeGroup(order []value.Value, upserts, deletes []string, from int, stats *CommitStats) (*nodeBuf, int, error) {
	st := &s.staging
	if s.staged > 0 && st.last == nil {
		st.index(0) // a second group diffs against the first
	}
	out := &st.buf
	start := out.Len()
	for _, v := range order {
		oid := s.oids[v]
		at := out.Len()
		out.WriteByte(recNode)
		out.uvarint(oid)
		img := out.Len()
		if err := encodeNode(out, v, s, TransientPrefix); err != nil {
			return nil, 0, err
		}
		sum := sumOf(out.Bytes()[img:])
		if prev, ok := s.sumBefore(oid); ok && prev == sum {
			out.Truncate(at) // unchanged: no I/O
			continue
		}
		out.prefixLen(img)
		st.recs = append(st.recs, nodeRec{oid: oid, at: at, sum: sum})
		stats.NodesWritten++
	}
	if err := s.encodeRootDelta(out, upserts, deletes); err != nil {
		return nil, 0, err
	}
	if s.defsDirty {
		encodeIndexDefs(out, s.indexDefs)
	}
	out.WriteByte(recCommit)
	if len(s.types) == from {
		return out, start, nil
	}
	group := &s.sc.group
	if err := s.encodeTypes(group, from); err != nil {
		return nil, 0, err
	}
	group.Write(out.Bytes()[start:])
	return group, 0, nil
}

// scratch is the committer's working memory for one commit group: the
// walk's seen set and order, the root delta's two halves and the buffer a
// group that defines types is assembled in — and, when a batch or a frame
// is durable, the names settle compares, its references gained and lost,
// its counts of the nodes it added, the values it released and a frame's
// records. The log has one writer, which holds s.mu, and each group is
// done with all of it once staged (the file holds the bytes, and staging
// the node records), so it is kept from one group to the next instead of
// allocated per group. reset drops whatever grew past maxKeptScratch or
// maxKeptGroup, so that a first commit's walk of every root leaves none of
// it behind. spare holds the reference lists release emptied, which
// setRefs fills again (see keepRefs).
type scratch struct {
	seen             map[value.Value]bool
	order            []value.Value
	upserts, deletes []string
	group            nodeBuf
	names            []string
	gained, lost     []uint64
	born             []int32
	released         []value.Value
	frame            []nodeRec
	spare            [][]uint64
}

// The scratch kept between groups is at most maxKeptScratch entries in
// each set and slice, maxKeptGroup bytes in each buffer and maxSpareRefs
// spare reference lists.
const (
	maxKeptScratch = 256
	maxKeptGroup   = 64 << 10
	maxSpareRefs   = 64
)

// reset empties the scratch for the next group, so that it holds no value,
// name or image of the last.
func (sc *scratch) reset() {
	sc.seen = keptMap(sc.seen)
	sc.order = keptSlice(sc.order)
	sc.upserts = keptSlice(sc.upserts)
	sc.deletes = keptSlice(sc.deletes)
	sc.group.keep()
}

// resetSettle empties what settling a durable batch used.
func (sc *scratch) resetSettle() {
	sc.names = keptSlice(sc.names)
	sc.gained = keptSlice(sc.gained)
	sc.lost = keptSlice(sc.lost)
	sc.born = keptSlice(sc.born)
	sc.released = keptSlice(sc.released)
	sc.frame = keptSlice(sc.frame)
}

// keptMap returns m emptied, or nil when it held more than maxKeptScratch
// entries. The scratch maps only grow between resets, so their length is
// their peak.
func keptMap[M ~map[K]V, K comparable, V any](m M) M {
	if len(m) > maxKeptScratch {
		return nil
	}
	clear(m)
	return m
}

// keptSlice returns s emptied, its elements zeroed, or nil when its
// capacity is over maxKeptScratch.
func keptSlice[S ~[]E, E any](s S) S {
	if cap(s) > maxKeptScratch {
		return nil
	}
	clear(s)
	return s[:0]
}

// merged returns into with the keys of from added, and from emptied (see
// keptMap): from itself, when into is empty, so that the hand-over of a
// one-group batch copies nothing.
func merged(into, from map[string]bool) (map[string]bool, map[string]bool) {
	if len(into) == 0 {
		into, from = from, into
	} else {
		for name := range from {
			into[name] = true
		}
	}
	return into, keptMap(from)
}

// Abort discards all uncommitted changes by replaying the log: handles and
// their values revert to the last commit. Values obtained before the abort
// are detached from the store afterwards. The replay is what finds a value
// mutated in place since its commit; a caller that never does that can
// roll back in O(change) with AbortBound.
func (s *Store) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Staged-but-unsynced groups must leave the file before the replay
	// below: they are complete, valid groups, so a replay would resurrect
	// them as committed even though their writers were told the batch
	// failed. This is also how a poisoned batch rollback recovers — Abort
	// retries the trim it could not do.
	if s.staged > 0 {
		if err := s.trim(); err != nil {
			return s.poison(err)
		}
	}
	s.broken = nil // a poisoned store recovers by replaying the log
	if err := s.load(); err != nil {
		// A replay cut short leaves memory that no longer matches the
		// file — the type table among it — so nothing may append until a
		// replay succeeds.
		return s.poison(err)
	}
	return nil
}

// AbortBound is Abort for a caller that keeps StageBound's contract — no
// value under a handle was mutated in place since its commit — and reads
// nothing from the log. It trims the staged groups still in the file, then
// restores the working root table, the index definitions and the touched
// set to the last durable group, and forgets the OIDs numbered since,
// rewinding nextOID, as the trim forgets the type ordinals the staged
// groups defined: the store is the one a reopen of the file would give,
// at the cost of what the rolled-back batch changed. A store poisoned by a
// trim that failed stays poisoned and AbortBound returns its error: only
// Abort (which retries the trim and replays) or a reopen recovers it.
func (s *Store) AbortBound() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	if s.staged > 0 {
		if err := s.trim(); err != nil {
			return s.poison(err)
		}
	}
	s.roots = s.Committed()
	s.indexDefs, s.defsDirty = s.durableDefs, false
	s.touched, s.stagedTouched = nil, nil
	for _, v := range s.fresh {
		delete(s.oids, v)
	}
	s.nextOID -= uint64(len(s.fresh))
	s.fresh = nil
	return nil
}

// Compact garbage-collects the log: it rewrites the file with only the
// nodes reachable from the current handles, at their current images, and
// drops the rest from memory too — the garbage cycles a durable commit
// leaves behind. NodesFreed counts the node records of the old log that
// the rewrite dropped, superseded images included. The store must have no
// uncommitted changes worth keeping — Compact performs a Commit first so
// the result is the current state, minimally stored.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staged > 0 {
		// Rewriting the file would silently bake staged-but-unacked groups
		// into the compacted image (or drop them). The batch owner decides
		// their fate first.
		return CompactStats{}, fmt.Errorf("intrinsic: a staged commit batch is open; SyncBatch or Abort before Compact")
	}
	if err := s.writable(); err != nil {
		return CompactStats{}, err
	}
	if _, err := s.stageCommitLocked(true); err != nil {
		return CompactStats{}, err
	}
	if _, err := s.syncStaged(); err != nil {
		return CompactStats{}, err
	}
	before := s.end
	names := s.namesLocked()
	order := s.reach(names)
	defer s.sc.reset()

	tmp, err := s.fs.CreateTemp(iofault.Dir(s.path), ".compact-*")
	if err != nil {
		return CompactStats{}, wrapIO(iofault.OpCreateTemp, s.path, err)
	}
	tmpName := tmp.Name()
	defer s.fs.Remove(tmpName)
	// The rewritten log numbers its types afresh, as a first group does:
	// only the types the live nodes and roots name get a 'T' record. The
	// old table comes back unless the rename makes the new file the log.
	oldTypes, oldIDs := s.types, s.typeIDs
	s.types, s.typeIDs = nil, map[*types.Interned]uint64{}
	renamed := false
	defer func() {
		if !renamed {
			s.types, s.typeIDs = oldTypes, oldIDs
		}
	}()
	var body nodeBuf
	// The types are numbered afresh, so an image that names one may change:
	// each kept node is remembered by the digest of its rewritten image.
	kept := make(map[uint64]nodeSum, len(order))
	for _, v := range order {
		oid := s.oids[v]
		body.WriteByte(recNode)
		body.uvarint(oid)
		img := body.Len()
		if err := encodeNode(&body, v, s, TransientPrefix); err != nil {
			tmp.Close()
			return CompactStats{}, err
		}
		kept[oid] = sumOf(body.Bytes()[img:])
		body.prefixLen(img)
	}
	// The rewritten log's one group states the whole table as a delta
	// against the empty one.
	if err := s.encodeRootDelta(&body, names, nil); err != nil {
		tmp.Close()
		return CompactStats{}, err
	}
	if len(s.indexDefs) > 0 {
		encodeIndexDefs(&body, s.indexDefs)
	}
	if e := s.epoch.Load(); e > 0 {
		// Carry the promotion epoch into the rewritten log.
		body.WriteByte(recEpoch)
		body.uvarint(e)
	}
	body.WriteByte(recCommit)
	headerLen := len(logMagic) + 1
	var out nodeBuf
	out.WriteString(logMagic)
	out.WriteByte(logVersion)
	if err := s.encodeTypes(&out, 0); err != nil {
		tmp.Close()
		return CompactStats{}, err
	}
	out.Write(body.Bytes())
	// The group checksum covers everything after the header.
	var tr [checksumSize]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(out.Bytes()[headerLen:], crcTable))
	out.Write(tr[:])
	if _, err := tmp.Write(out.Bytes()); err != nil {
		tmp.Close()
		return CompactStats{}, wrapIO(iofault.OpWrite, tmpName, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return CompactStats{}, wrapIO(iofault.OpSync, tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return CompactStats{}, wrapIO(iofault.OpClose, tmpName, err)
	}
	if err := s.fs.Rename(tmpName, s.path); err != nil {
		return CompactStats{}, wrapIO(iofault.OpRename, s.path, err)
	}
	renamed = true
	s.durableTypes = len(s.types)
	// From here the on-disk log is the compacted file. Swap the handle
	// before anything else can fail, so appends never target the unlinked
	// old inode; failure to swap poisons the store.
	f, err := s.fs.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return CompactStats{}, s.poison(wrapIO(iofault.OpOpen, s.path, err))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return CompactStats{}, s.poison(wrapIO(iofault.OpSeek, s.path, err))
	}
	s.f.Close()
	s.f = f
	s.setEnd(int64(out.Len()))
	s.tailDirty = false
	s.defsDirty = false // the rewrite persisted the definitions
	freed := s.logNodes - len(kept)
	s.logNodes = len(kept)
	// The nodes the rewrite left out are garbage cycles, which no count
	// reaches: their references leave the counts of the nodes they named,
	// and their values leave oids.
	var lost []uint64
	for oid := range s.nodes {
		if _, ok := kept[oid]; !ok {
			lost = append(lost, s.refs[oid]...)
			delete(s.refs, oid)
			delete(s.shared, oid)
		}
	}
	s.nodes = kept
	s.release(lost)
	s.nodesA.Store(int64(len(s.nodes)))
	for v, oid := range s.oids {
		if _, ok := kept[oid]; !ok {
			delete(s.oids, v)
		}
	}
	// fsync the containing directory: without it the rename itself — the
	// whole compaction — can be undone by a crash.
	if err := s.fs.SyncDir(iofault.Dir(s.path)); err != nil {
		return CompactStats{}, wrapIO(iofault.OpSyncDir, s.path, err)
	}
	return CompactStats{
		BytesBefore: before,
		BytesAfter:  int64(out.Len()),
		NodesKept:   len(kept),
		NodesFreed:  freed,
	}, nil
}
