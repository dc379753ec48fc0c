package intrinsic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
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
// their group is validated: callers must buffer per group and apply only
// on commit (which fires only for valid groups).
type scanSink struct {
	// node receives where in the scanned bytes a node record starts; see
	// nodeAt.
	node func(at int)
	// roots receives a 'D' root-table delta. Its inline values are slices
	// of the scanned bytes.
	roots     func(op rootOp)
	indexDefs func(fields []string)
	epoch     func(e uint64)
	commit    func(end int64)
	// types, if set, is the type table the scan extends and checks
	// ordinals against. It starts as the table of the log before the
	// scanned bytes, and ends as the table of the valid groups: a torn or
	// corrupt group's 'T' records are dropped from it.
	types *[]types.Type
}

// rootOp is one root-table delta's effect on the running table: upsert,
// then delete.
type rootOp struct {
	upserts []rootEntry
	deletes []string
}

// groupFold accumulates what the valid commit groups of one scan did — the
// single fold replay (load), ApplyGroup and Fsck share. Records buffer per
// group and fold in only when the group's commit marker validates, so a
// torn or corrupt group contributes nothing. The root-table effect is
// relative to the table before the scan, which afterwards holds
// (before − deletes) ∪ upserts; the two are disjoint.
//
// A fold given the scanned bytes in data keeps where its node records lie
// in them, not copies of the images: recs holds the records in log order,
// the first valid of them the valid groups', and index turns those into
// nodes, where each OID's last record lies. A fold without data only
// counts them.
type groupFold struct {
	data     []byte
	recs     []int
	valid    int
	nodes    map[uint64]int
	nodeRecs int
	upserts  map[string]rootEntry
	deletes  map[string]bool
	defs     []string
	sawDefs  bool
	epoch    uint64
	sawEpoch bool
}

// bytesPerNodeRec is about how many log bytes a node record takes, which
// sizes a fold's record list by its input: a benchmark-shaped node record
// takes 37, so the list is seldom grown.
const bytesPerNodeRec = 32

func (f *groupFold) applyRootOp(op rootOp) {
	if f.upserts == nil {
		f.upserts = make(map[string]rootEntry, len(op.upserts))
		f.deletes = map[string]bool{}
	}
	for _, e := range op.upserts {
		f.upserts[e.name] = e
		delete(f.deletes, e.name)
	}
	for _, name := range op.deletes {
		delete(f.upserts, name)
		f.deletes[name] = true
	}
}

// sink returns the scanSink that feeds f, extending and checking against
// the type table tab.
func (f *groupFold) sink(tab *[]types.Type) scanSink {
	if f.data != nil {
		f.recs = make([]int, 0, len(f.data)/bytesPerNodeRec)
	}
	// The open group's records, folded into f on its commit marker: its
	// node records past f.valid in f.recs, and the rest here.
	var (
		nodeRecs int
		rootOps  []rootOp
		defs     []string
		epoch    uint64
		sawDefs  bool
		sawEpoch bool
	)
	return scanSink{
		node: func(at int) {
			nodeRecs++
			if f.data != nil {
				f.recs = append(f.recs, at)
			}
		},
		roots:     func(op rootOp) { rootOps = append(rootOps, op) },
		indexDefs: func(fields []string) { defs, sawDefs = fields, true },
		epoch:     func(e uint64) { epoch, sawEpoch = e, true },
		types:     tab,
		commit: func(int64) {
			f.nodeRecs += nodeRecs
			f.valid = len(f.recs)
			for _, op := range rootOps {
				f.applyRootOp(op)
			}
			nodeRecs, rootOps = 0, rootOps[:0]
			if sawDefs {
				f.defs, f.sawDefs, sawDefs = defs, true, false
			}
			if sawEpoch {
				f.epoch, f.sawEpoch, sawEpoch = epoch, true, false
			}
		},
	}
}

// index maps each OID the valid groups wrote to where its last record lies
// in f.data, and returns one past the largest.
func (f *groupFold) index() (next uint64) {
	f.nodes = make(map[uint64]int, f.valid)
	for _, at := range f.recs[:f.valid] {
		oid, _ := nodeAt(f.data, at)
		f.nodes[oid] = at
		next = max(next, oid+1)
	}
	f.recs = nil
	return next
}

// image returns the last image the valid groups wrote for oid.
func (f *groupFold) image(oid uint64) ([]byte, bool) {
	at, ok := f.nodes[oid]
	if !ok {
		return nil, false
	}
	_, img := nodeAt(f.data, at)
	return img, true
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
// and inline value against tab when it is set.
func scanRootEntries(s *logScanner, tab *[]types.Type) ([]rootEntry, error) {
	count, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxRecordSize {
		return nil, fmt.Errorf("%w: oversized root table", ErrCorrupt)
	}
	entries := make([]rootEntry, 0, capCount(int(count)))
	for i := uint64(0); i < count; i++ {
		n, err := s.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxRecordSize {
			return nil, fmt.Errorf("%w: bad root name length", ErrCorrupt)
		}
		name, err := s.bytes(n)
		if err != nil {
			return nil, err
		}
		e := rootEntry{name: string(name)}
		typeOff := s.off()
		id, err := s.uvarint()
		if err != nil {
			return nil, err
		}
		if tab != nil {
			if id >= uint64(len(*tab)) {
				return nil, &CorruptError{Offset: typeOff, Reason: fmt.Sprintf("root %q names type ordinal %d, which no 'T' record defines (%d do)", e.name, id, len(*tab))}
			}
			e.typ = (*tab)[id]
		}
		vn, err := s.uvarint()
		if err != nil {
			return nil, err
		}
		if vn > maxRecordSize {
			return nil, fmt.Errorf("%w: bad root value length", ErrCorrupt)
		}
		inlineOff := s.off()
		if e.inline, err = s.bytes(vn); err != nil {
			return nil, err
		}
		if tab != nil {
			r := nodeReader{buf: e.inline, types: *tab}
			if err := r.skipInline(true); err != nil || r.pos != len(e.inline) {
				return nil, badImage(inlineOff, r, err, "root value")
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
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
// the delete half of a root delta.
func scanNames(s *logScanner) ([]string, error) {
	count, err := s.uvarint()
	if err != nil {
		return nil, err
	}
	if count > maxRecordSize {
		return nil, fmt.Errorf("%w: oversized name list", ErrCorrupt)
	}
	names := make([]string, 0, capCount(int(count)))
	for i := uint64(0); i < count; i++ {
		n, err := s.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxRecordSize {
			return nil, fmt.Errorf("%w: bad name length", ErrCorrupt)
		}
		name, err := s.bytes(n)
		if err != nil {
			return nil, err
		}
		names = append(names, string(name))
	}
	return names, nil
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
	validTypes := 0
	if sink.types != nil {
		validTypes = len(*sink.types)
		defer func() { *sink.types = (*sink.types)[:validTypes] }()
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
			if sink.types != nil {
				t, err := codec.DecodeType(img)
				if err != nil {
					anomaly(imgOff, fmt.Sprintf("bad image of type ordinal %d: %v", len(*sink.types), err), nil)
					return
				}
				*sink.types = append(*sink.types, t)
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
			if sink.types != nil && mayNameType(img) {
				r := nodeReader{buf: img, types: *sink.types}
				if err := r.checkNode(); err != nil {
					sum.corrupt = badImage(imgOff, r, err, fmt.Sprintf("node %d", oid))
					return
				}
			}
			if sink.node != nil {
				sink.node(at)
			}
		case recRootDelta:
			var op rootOp
			var err error
			op.upserts, err = scanRootEntries(s, sink.types)
			if err == nil {
				op.deletes, err = scanNames(s)
			}
			if err != nil {
				anomaly(s.off(), fmt.Sprintf("bad root table: %v", err), err)
				return
			}
			if sink.roots != nil {
				sink.roots(op)
			}
		case recIndex:
			fields, err := scanNames(s)
			if err != nil {
				anomaly(s.off(), fmt.Sprintf("bad index-definition table: %v", err), err)
				return
			}
			if sink.indexDefs != nil {
				sink.indexDefs(fields)
			}
		case recEpoch:
			e, err := s.uvarint()
			if err != nil {
				anomaly(s.off(), "bad epoch record", err)
				return
			}
			if sink.epoch != nil {
				sink.epoch(e)
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
			if sink.commit != nil {
				sink.commit(s.off())
			}
			if sink.types != nil {
				validTypes = len(*sink.types)
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
