package intrinsic

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file implements the single structural reader of the log, shared by
// Open (replay) and Fsck (verification). It distinguishes, byte for byte:
//
//   - a clean log (every group ends in a valid commit marker);
//   - a *torn tail* (the file ends inside a group — the signature of a
//     crash mid-commit, recoverable by ignoring the tail);
//   - *corruption* (a complete group whose CRC-32C does not match, or
//     structurally impossible bytes mid-file — the signature of bit rot,
//     reported deterministically with an offset, never applied).
//
// The classification rule is: an anomaly that manifests as end of input is
// torn (a crash can only shorten an fsynced append-only log); any other
// anomaly is corruption. A header naming another version is neither: the
// scan stops there with a *LogVersionError.
//
// A scan given a type table also checks what the records mean for it: it
// decodes each 'T' record's image onto the table, and checks each root
// entry, and each node image that may name a type, against the table as
// it stands, so an ordinal that no earlier 'T' record defines is
// corruption at its offset. A scan without one checks structure and
// checksums only.

// crcTable is the Castagnoli polynomial table; CRC-32C has hardware
// support (SSE4.2 / ARMv8 CRC) through hash/crc32.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError is deterministically detected log corruption: where in the
// file and why. It unwraps to ErrCorrupt.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("intrinsic: corrupt log at offset %d: %s", e.Offset, e.Reason)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// scanSink receives log records as they parse. Records arrive *before*
// their group is validated: a sink buffers per group and applies only on
// commit (which fires only for valid groups). A nil sink scans structure
// and checksums only.
type scanSink interface {
	// node receives where in the scanned bytes a node record starts; see
	// nodeAt.
	node(at int)
	// delta receives a 'D' root-table delta. Its inline values are slices
	// of the scanned bytes.
	delta(op rootOp)
	indexDefs(fields []string)
	newEpoch(e uint64)
	commit(end int64)
	// typeTable, if not nil, is the type table the scan extends and
	// checks ordinals against. It starts as the table of the log before
	// the scanned bytes, and ends as the table of the valid groups: a torn
	// or corrupt group's 'T' records are dropped from it.
	typeTable() *[]types.Type
}

// rootOp is one root-table delta's effect on the running table: upsert,
// then delete.
type rootOp struct {
	upserts []rootEntry
	deletes []string
}

// groupFold accumulates what the valid commit groups of one scan did — the
// single fold replay (load), ApplyGroup and Fsck share. It is the scan's
// sink: records land in flat slices as they parse, and a group's commit
// marker only moves the mark that says how many of them valid groups
// wrote, so a torn or corrupt group contributes nothing, and feeding the
// fold allocates only as those slices grow.
//
// finish turns what the valid groups wrote into two tables. The root
// deltas resolve into name-sorted upserts and deletes, the last op on a
// name winning: the table after the scan holds (before − deletes) ∪
// upserts, and the two are disjoint. The node records, when the fold
// keeps the scanned bytes in data, become slots, one an OID, sorted by
// OID: where its last record lies in data and, once a materializer
// decoded it, its value. A fold without data only counts node records.
//
// types is the type table the scan extends and checks ordinals against:
// the table of the log before the scanned bytes, and after the scan the
// table of the valid groups.
type groupFold struct {
	data     []byte
	types    []types.Type
	slots    []nodeSlot
	ops      []rootOp
	nodeRecs int
	// The valid groups wrote slots[:valid], ops[:validOps] and nodeRecs
	// records; pend holds what the open group wrote besides.
	valid, validOps int
	pend            openGroup
	upserts         []rootEntry
	deletes         []string
	defs            []string
	sawDefs         bool
	epoch           uint64
	sawEpoch        bool
}

// openGroup is what the group being scanned wrote besides its node
// records and root deltas.
type openGroup struct {
	nodeRecs          int
	defs              []string
	epoch             uint64
	sawDefs, sawEpoch bool
}

// reset empties f for the next scan, keeping its slices unless they grew
// past what the scratch keeps.
func (f *groupFold) reset() {
	*f = groupFold{slots: keptSlice(f.slots), ops: keptSlice(f.ops)}
}

// nodeSlot is a node of a fold's OID table: where its last record lies in
// the fold's data, which holds its OID (see groupFold.oid), and its value
// once decoded (see materializer).
type nodeSlot struct {
	at int
	v  value.Value
}

// bytesPerNodeRec is about how many log bytes a node record takes, which
// sizes a fold's slots by its input: a benchmark-shaped node record takes
// 37, so the slice is seldom grown.
const bytesPerNodeRec = 32

func (f *groupFold) node(at int) {
	f.pend.nodeRecs++
	if f.data == nil {
		return
	}
	if f.slots == nil {
		f.slots = make([]nodeSlot, 0, len(f.data)/bytesPerNodeRec)
	}
	f.slots = append(f.slots, nodeSlot{at: at})
}

func (f *groupFold) delta(op rootOp)           { f.ops = append(f.ops, op) }
func (f *groupFold) indexDefs(fields []string) { f.pend.defs, f.pend.sawDefs = fields, true }
func (f *groupFold) newEpoch(e uint64)         { f.pend.epoch, f.pend.sawEpoch = e, true }
func (f *groupFold) typeTable() *[]types.Type  { return &f.types }

func (f *groupFold) commit(int64) {
	f.valid, f.validOps = len(f.slots), len(f.ops)
	f.nodeRecs += f.pend.nodeRecs
	if f.pend.sawDefs {
		f.defs, f.sawDefs = f.pend.defs, true
	}
	if f.pend.sawEpoch {
		f.epoch, f.sawEpoch = f.pend.epoch, true
	}
	f.pend = openGroup{}
}

// finish drops what the open group wrote, resolves the valid groups' root
// deltas and builds the OID table, and returns one past the largest OID
// the valid groups wrote.
func (f *groupFold) finish() (next uint64) {
	f.slots, f.ops = f.slots[:f.valid], f.ops[:f.validOps]
	f.resolveRoots()
	if len(f.slots) == 0 {
		return 0
	}
	// A writer numbers its nodes from one counter, so the records mostly
	// come in OID order, each OID once, which one pass confirms. Any
	// others are sorted, and each OID keeps its last record: the one at
	// the largest position.
	if !f.increasing() {
		slices.SortFunc(f.slots, func(a, b nodeSlot) int {
			return cmp.Or(cmp.Compare(f.oid(a), f.oid(b)), cmp.Compare(a.at, b.at))
		})
		last, prev := f.slots[:0], uint64(0)
		for i, sl := range f.slots {
			oid := f.oid(sl)
			if i > 0 && oid == prev {
				last[len(last)-1] = sl
				continue
			}
			last, prev = append(last, sl), oid
		}
		f.slots = last
	}
	return f.oid(f.slots[len(f.slots)-1]) + 1
}

// increasing reports whether f's slots are in strictly increasing OID
// order.
func (f *groupFold) increasing() bool {
	prev := f.oid(f.slots[0])
	for _, sl := range f.slots[1:] {
		oid := f.oid(sl)
		if oid <= prev {
			return false
		}
		prev = oid
	}
	return true
}

// oid returns the OID of sl's node.
func (f *groupFold) oid(sl nodeSlot) uint64 {
	oid, _ := binary.Uvarint(f.data[sl.at+1:]) // past the record kind
	return oid
}

// slot returns oid's slot, or nil when no valid group wrote it. A table
// whose OIDs are dense up to oid finds it where it would lie; any other
// is searched.
func (f *groupFold) slot(oid uint64) *nodeSlot {
	if len(f.slots) == 0 || oid < f.oid(f.slots[0]) {
		return nil
	}
	if i := oid - f.oid(f.slots[0]); i < uint64(len(f.slots)) && f.oid(f.slots[i]) == oid {
		return &f.slots[i]
	}
	i, ok := slices.BinarySearchFunc(f.slots, oid, func(sl nodeSlot, oid uint64) int { return cmp.Compare(f.oid(sl), oid) })
	if !ok {
		return nil
	}
	return &f.slots[i]
}

// image returns the last image the valid groups wrote for sl's node.
func (f *groupFold) image(sl *nodeSlot) []byte {
	_, img := nodeAt(f.data, sl.at)
	return img
}

// resolveRoots folds ops into name-sorted upserts and deletes, the last op
// on a name winning. One delta whose halves are sorted and disjoint — a
// bulk load's, or a one-group frame's, as the writer emits them — is its
// own result. Any other sequence goes through a map from each name to its
// last op, sized by the largest delta, and only the names that survive it
// are sorted: a write-commit-shaped log holds thousands of one-name deltas
// over a thousand names, and sorting every op by name cost a sixth of its
// open.
func (f *groupFold) resolveRoots() {
	f.upserts, f.deletes = nil, nil
	if len(f.ops) == 1 && resolved(f.ops[0]) {
		f.upserts, f.deletes = f.ops[0].upserts, f.ops[0].deletes
		return
	}
	largest := 0
	for _, op := range f.ops {
		largest = max(largest, len(op.upserts)+len(op.deletes))
	}
	last := make(map[string]*rootEntry, largest) // nil: a delete
	for i := range f.ops {
		op := &f.ops[i]
		for j := range op.upserts {
			last[op.upserts[j].name] = &op.upserts[j]
		}
		for _, name := range op.deletes {
			last[name] = nil
		}
	}
	ups := 0
	for _, e := range last {
		if e != nil {
			ups++
		}
	}
	f.upserts, f.deletes = make([]rootEntry, 0, ups), make([]string, 0, len(last)-ups)
	for name, e := range last {
		if e != nil {
			f.upserts = append(f.upserts, *e)
		} else {
			f.deletes = append(f.deletes, name)
		}
	}
	slices.SortFunc(f.upserts, func(a, b rootEntry) int { return strings.Compare(a.name, b.name) })
	slices.Sort(f.deletes)
}

// resolved reports whether op's upserts and deletes are each strictly
// sorted by name and share none.
func resolved(op rootOp) bool {
	for i := 1; i < len(op.upserts); i++ {
		if op.upserts[i-1].name >= op.upserts[i].name {
			return false
		}
	}
	for i := 1; i < len(op.deletes); i++ {
		if op.deletes[i-1] >= op.deletes[i] {
			return false
		}
	}
	for i, j := 0, 0; i < len(op.upserts) && j < len(op.deletes); {
		switch c := strings.Compare(op.upserts[i].name, op.deletes[j]); {
		case c == 0:
			return false
		case c < 0:
			i++
		default:
			j++
		}
	}
	return true
}

// nodeAt reads the node record a scan found at at in data: its OID and
// its image, a slice of data.
func nodeAt(data []byte, at int) (oid uint64, img []byte) {
	b := data[at+1:] // past the record kind
	oid, n := binary.Uvarint(b)
	b = b[n:]
	size, n := binary.Uvarint(b)
	return oid, b[n : n+int(size)]
}

// scanSummary is the structural verdict over a whole log.
type scanSummary struct {
	empty   bool  // zero-length file (fresh store)
	version byte  // header version: logVersion, or 0 when empty or torn
	goodEnd int64 // offset just past the last valid commit group
	commits int   // valid commit groups
	torn    bool  // trailing bytes past goodEnd that a crash explains
	corrupt *CorruptError
}

// logScanner reads log bytes held in memory, tracking the position and
// the log offset of buf[0]. What it returns are slices of buf.
type logScanner struct {
	buf  []byte
	pos  int
	base int64
}

// off is the log offset of the next byte.
func (s *logScanner) off() int64 { return s.base + int64(s.pos) }

// uvarint and bytes report a read past the end of the input, which a torn
// tail explains, as io.ErrUnexpectedEOF.
func (s *logScanner) uvarint() (uint64, error) {
	x, n := binary.Uvarint(s.buf[s.pos:])
	if n == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if n < 0 {
		s.pos -= n
		return 0, fmt.Errorf("%w: uvarint overflows 64 bits", ErrCorrupt)
	}
	s.pos += n
	return x, nil
}

// bytes returns the next n bytes.
func (s *logScanner) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(s.buf)-s.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	b := s.buf[s.pos : s.pos+int(n)]
	s.pos += int(n)
	return b, nil
}

// isEOF reports whether err is an end-of-input condition — the only
// anomaly a crash can produce on an append-only log.
func isEOF(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// scanRootEntries parses a counted list of root-table entries — the upsert
// half of a 'D' record — validating lengths, and each entry's type ordinal
// and inline value against tab when it is set. Its group's checksum is
// not yet checked, so the entries are parsed twice: checked first, then
// kept in a slice of exactly count. A count that a flipped bit inflated
// fails before anything is allocated.
func scanRootEntries(s *logScanner, tab *[]types.Type) ([]rootEntry, error) {
	count, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxRecordSize {
		return nil, fmt.Errorf("%w: oversized root table", ErrCorrupt)
	}
	start := s.pos
	for range count {
		if _, _, _, err := rootEntryAt(s, tab, true); err != nil {
			return nil, err
		}
	}
	s.pos = start
	entries := make([]rootEntry, count)
	for i := range entries {
		name, typ, inline, _ := rootEntryAt(s, tab, false)
		entries[i] = rootEntry{name: string(name), typ: typ, inline: inline}
	}
	return entries, nil
}

// rootEntryAt parses the root-table entry at s's position; its name and
// inline value are slices of the input. The entry's type is looked up in
// tab when tab is set, and check also validates its inline value.
func rootEntryAt(s *logScanner, tab *[]types.Type, check bool) (name []byte, typ types.Type, inline []byte, err error) {
	n, err := s.uvarint()
	if err != nil {
		return nil, nil, nil, err
	}
	if n > maxRecordSize {
		return nil, nil, nil, fmt.Errorf("%w: bad root name length", ErrCorrupt)
	}
	if name, err = s.bytes(n); err != nil {
		return nil, nil, nil, err
	}
	typeOff := s.off()
	id, err := s.uvarint()
	if err != nil {
		return nil, nil, nil, err
	}
	if tab != nil {
		if id >= uint64(len(*tab)) {
			return nil, nil, nil, &CorruptError{Offset: typeOff, Reason: fmt.Sprintf("root %q names type ordinal %d, which no 'T' record defines (%d do)", name, id, len(*tab))}
		}
		typ = (*tab)[id]
	}
	vn, err := s.uvarint()
	if err != nil {
		return nil, nil, nil, err
	}
	if vn > maxRecordSize {
		return nil, nil, nil, fmt.Errorf("%w: bad root value length", ErrCorrupt)
	}
	inlineOff := s.off()
	if inline, err = s.bytes(vn); err != nil {
		return nil, nil, nil, err
	}
	if check && tab != nil {
		r := nodeReader{buf: inline, types: *tab}
		if err := r.skipInline(true); err != nil || r.pos != len(inline) {
			return nil, nil, nil, badImage(inlineOff, r, err, "root value")
		}
	}
	return name, typ, inline, nil
}

// mayNameType reports whether a node image can name a type ordinal: as a
// dynamic node's type, or as a type atom, whose tag byte it then holds. An
// image that cannot need not be walked for ordinals.
func mayNameType(img []byte) bool {
	return len(img) > 0 && (img[0] == inDynamic || bytes.IndexByte(img[1:], inTypeVal) >= 0)
}

// badImage is the corruption a node image or inline value read by r at
// offset off shows: err, or bytes left after the value.
func badImage(off int64, r nodeReader, err error, what string) *CorruptError {
	if err == nil {
		err = fmt.Errorf("%d bytes after the value", len(r.buf)-r.pos)
	}
	return &CorruptError{Offset: off + int64(r.pos), Reason: fmt.Sprintf("bad %s: %v", what, err)}
}

// scanNames parses a counted list of names: an index-definition table, or
// the delete half of a root delta. Like scanRootEntries it checks every
// name before it allocates the list.
func scanNames(s *logScanner) ([]string, error) {
	count, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxRecordSize {
		return nil, fmt.Errorf("%w: oversized name list", ErrCorrupt)
	}
	start := s.pos
	for range count {
		if _, err := nameAt(s); err != nil {
			return nil, err
		}
	}
	s.pos = start
	names := make([]string, count)
	for i := range names {
		name, _ := nameAt(s)
		names[i] = string(name)
	}
	return names, nil
}

// nameAt parses the length-prefixed name at s's position, a slice of the
// input.
func nameAt(s *logScanner) ([]byte, error) {
	n, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxRecordSize {
		return nil, fmt.Errorf("%w: bad name length", ErrCorrupt)
	}
	return s.bytes(n)
}

// scanLog scans a whole log held in data, firing sink callbacks, and
// returns the structural summary. The returned error is reserved for a
// header naming another version (*LogVersionError); corruption and torn
// tails are reported in the summary.
func scanLog(data []byte, sink scanSink) (scanSummary, error) {
	var sum scanSummary
	switch {
	case len(data) == 0:
		sum.empty = true
		return sum, nil
	case len(data) < int(HeaderSize):
		// Fewer bytes than a header: a crash during store creation — the
		// header write itself was torn. Recoverable.
		sum.torn = true
		return sum, nil
	case string(data[:len(logMagic)]) != logMagic:
		sum.corrupt = &CorruptError{Offset: 0, Reason: "bad magic"}
		return sum, nil
	case data[len(logMagic)] != logVersion:
		return sum, &LogVersionError{Found: data[len(logMagic)]}
	}
	sum.version = logVersion
	scanGroups(&logScanner{buf: data, pos: int(HeaderSize)}, sink, &sum)
	return sum, nil
}

// scanRaw scans commit groups held in raw as if they followed a log
// header: offsets in the summary count from HeaderSize, as in a real
// file, and the positions the sink receives index raw.
func scanRaw(raw []byte, sink scanSink) scanSummary {
	sum := scanSummary{version: logVersion}
	scanGroups(&logScanner{buf: raw, base: HeaderSize}, sink, &sum)
	return sum
}

// scanGroups scans the commit groups from s's position to the end of its
// bytes into sum.
func scanGroups(s *logScanner, sink scanSink, sum *scanSummary) {
	sum.goodEnd = s.off()
	groupStart := s.pos
	// validTypes is the type table's length at the last valid commit: the
	// open group's 'T' records define nothing until its marker validates.
	var tab *[]types.Type
	if sink != nil {
		tab = sink.typeTable()
	}
	validTypes := 0
	if tab != nil {
		validTypes = len(*tab)
		defer func() { *tab = (*tab)[:validTypes] }()
	}

	// anomaly classifies a parse failure at offset off: torn when a crash
	// explains it, corrupt otherwise — at the offset err names, if it is a
	// *CorruptError.
	anomaly := func(off int64, reason string, err error) {
		if err != nil && isEOF(err) {
			sum.torn = true
			return
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			sum.corrupt = ce
			return
		}
		sum.corrupt = &CorruptError{Offset: off, Reason: reason}
	}

	for {
		at := s.pos
		kindOff := s.off()
		if at == len(s.buf) {
			if at > groupStart {
				sum.torn = true // mid-group end of input
			}
			return
		}
		kind := s.buf[at]
		s.pos++

		switch kind {
		case recType:
			n, err := s.uvarint()
			if err != nil {
				anomaly(s.off(), "bad type record length", err)
				return
			}
			if n > maxRecordSize {
				anomaly(s.off(), fmt.Sprintf("oversized type record (%d bytes)", n), nil)
				return
			}
			imgOff := s.off()
			img, err := s.bytes(n)
			if err != nil {
				anomaly(s.off(), "short type image", err)
				return
			}
			if tab != nil {
				t, err := codec.DecodeType(img)
				if err != nil {
					anomaly(imgOff, fmt.Sprintf("bad image of type ordinal %d: %v", len(*tab), err), nil)
					return
				}
				*tab = append(*tab, t)
			}
		case recNode:
			oid, err := s.uvarint()
			if err != nil {
				anomaly(s.off(), "bad node oid", err)
				return
			}
			n, err := s.uvarint()
			if err != nil {
				anomaly(s.off(), "bad node length", err)
				return
			}
			if n > maxRecordSize {
				anomaly(s.off(), fmt.Sprintf("oversized node (%d bytes)", n), nil)
				return
			}
			imgOff := s.off()
			img, err := s.bytes(n)
			if err != nil {
				anomaly(s.off(), "short node image", err)
				return
			}
			if tab != nil && mayNameType(img) {
				r := nodeReader{buf: img, types: *tab}
				if err := r.checkNode(); err != nil {
					sum.corrupt = badImage(imgOff, r, err, fmt.Sprintf("node %d", oid))
					return
				}
			}
			if sink != nil {
				sink.node(at)
			}
		case recRootDelta:
			var op rootOp
			var err error
			op.upserts, err = scanRootEntries(s, tab)
			if err == nil {
				op.deletes, err = scanNames(s)
			}
			if err != nil {
				anomaly(s.off(), fmt.Sprintf("bad root table: %v", err), err)
				return
			}
			if sink != nil {
				sink.delta(op)
			}
		case recIndex:
			fields, err := scanNames(s)
			if err != nil {
				anomaly(s.off(), fmt.Sprintf("bad index-definition table: %v", err), err)
				return
			}
			if sink != nil {
				sink.indexDefs(fields)
			}
		case recEpoch:
			e, err := s.uvarint()
			if err != nil {
				anomaly(s.off(), "bad epoch record", err)
				return
			}
			if sink != nil {
				sink.newEpoch(e)
			}
		case recCommit:
			want := crc32.Checksum(s.buf[groupStart:s.pos], crcTable)
			stored, err := s.bytes(checksumSize)
			if err != nil {
				anomaly(s.off(), "short commit checksum", err)
				return
			}
			if got := binary.LittleEndian.Uint32(stored); got != want {
				off := s.base + int64(groupStart)
				sum.corrupt = &CorruptError{
					Offset: off,
					Reason: fmt.Sprintf("checksum mismatch in commit group at offset %d (stored %08x, computed %08x)", off, got, want),
				}
				return
			}
			if sink != nil {
				sink.commit(s.off())
			}
			if tab != nil {
				validTypes = len(*tab)
			}
			sum.commits++
			sum.goodEnd = s.off()
			groupStart = s.pos
		default:
			anomaly(kindOff, fmt.Sprintf("unknown record kind 0x%02x", kind), nil)
			return
		}
	}
}
