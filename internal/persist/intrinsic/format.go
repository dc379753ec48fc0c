package intrinsic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dbpl/internal/dynamic"
	"dbpl/internal/persist/codec"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// This file defines the on-disk format: an append-only log of *shallow*
// node images. Each container value (record, list, set, tag, dynamic) is a
// node identified by an OID; a node's image encodes its atoms inline and
// its child containers as OID references. Because parents reference
// children by OID, structure sharing and cycles survive commits, and a
// commit need only append the nodes whose images changed.
//
// Log layout:
//
//	"DBPLLOG" version
//	repeated groups of records, each group terminated by a commit marker:
//	  'T' len typeImage          -- defines the next type ordinal
//	  'N' oid len imageBytes     -- a node (re)definition
//	  'D' nUpsert {entry} nDelete {name}  -- a root-table delta
//	  'X' count {name}           -- the index-definition table
//	  'E' epoch                  -- the promotion epoch
//	  'C' crc32c                 -- commit marker
//
//	entry = name typeOrdinal valueLen valueInline
//
// Principle P2 keeps a type beside every persistent value, and the log
// writes each distinct type once: a 'T' record holds its codec image and
// defines the next ordinal, numbered from 0 in file order. Every type
// reference — a root entry's declared type, a dynamic node's type, a type
// atom — is that ordinal. A group writes its new types' 'T' records before
// its other records, so a reader resolves an ordinal against the 'T'
// records of the valid groups before it and of its own group; any other
// ordinal is corruption. A 'T' in a torn or refused group defines nothing.
// Compact numbers the rewritten log's types afresh, keeping only the types
// the live nodes and roots name.
//
// The root table is a running fold over the log: a 'D' record upserts its
// entries into the table and then removes its deleted names, so a commit
// group's size follows what the commit changed, not how many handles the
// store has. The writer omits the record when nothing changed: a fresh
// log's first commit and Compact emit one 'D' against the empty table.
//
// The 'C' is followed by the little-endian CRC-32C of the whole commit
// group — every byte from the end of the previous group through the 'C'
// itself — so bit rot is *detected* with an offset (CorruptError) instead
// of surfacing as an arbitrary decode failure.
//
// The version byte is 4. Any other version is refused at the header with a
// *LogVersionError and the file is left as it is: a reader of this grammar
// does not guess at an older one (version 1 had no checksums, version 2
// logs could carry whole-table 'R' records, and version 3 wrote a type
// image in place of every ordinal).
//
// Replay applies whole groups only: a torn final group (crash mid-commit)
// is ignored, so the store always reopens at the last complete commit.
// See scan.go for the torn-versus-corrupt classification rule.

// Errors returned by log decoding.
var (
	ErrCorrupt = errors.New("intrinsic: corrupt log")
	// ErrLogVersion: the log's header names a format other than the one
	// this package reads and writes. LogVersionError carries the version.
	ErrLogVersion = errors.New("intrinsic: unsupported log version")
)

// LogVersionError reports a log whose header version is not logVersion.
// It unwraps to ErrLogVersion. Open, Fsck and Salvage return it without
// modifying the file.
type LogVersionError struct {
	Found byte
}

func (e *LogVersionError) Error() string {
	return fmt.Sprintf("intrinsic: log version %d is not supported (this build reads and writes version %d only)", e.Found, logVersion)
}

func (e *LogVersionError) Unwrap() error { return ErrLogVersion }

const (
	logMagic = "DBPLLOG"
	// logVersion is the one format this package reads and writes.
	logVersion = 4

	recNode   byte = 'N'
	recCommit byte = 'C'
	// recType defines the next type ordinal; see the layout above.
	recType byte = 'T'
	// recRootDelta is the root-table delta every commit that changed a
	// handle carries; see the layout above.
	recRootDelta byte = 'D'
	// recIndex is the index-definition table: the declared field indexes,
	// written whenever the set changes (a delta in time, a full table in
	// content). Layout: 'X' count {len fieldName}.
	// Extent and index *contents* are never
	// logged: they rebuild from the committed roots on open, which is what
	// keeps an index from ever running ahead of the durable state.
	recIndex byte = 'X'
	// recEpoch is the promotion epoch: a monotone counter bumped by
	// Promote() when a replication follower takes over as primary, so two
	// histories that fork at a failover are distinguishable forever.
	// Layout: 'E' uvarint(epoch). Like 'X' it is a delta in time — the
	// last committed record wins. Appended durably inside its own commit
	// group by Promote, and carried forward by Compact.
	recEpoch byte = 'E'

	// checksumSize is the CRC-32C trailer length after a commit marker.
	checksumSize = 4

	// maxRecordSize bounds single node and type images as a corruption
	// guard during replay.
	maxRecordSize = 1 << 30
)

// fits bounds the initial capacity of a slice of count elements that an
// image claims, each taking at least one of the left bytes that follow:
// the slice is sized once when the claim holds, and memory stays bounded
// by the input when it does not.
func fits(count uint64, left int) int {
	return int(min(count, uint64(left)))
}

// Inline value tags used inside node images and root entries.
const (
	inBottom byte = iota
	inUnit
	inInt
	inFloat
	inString
	inBoolTrue
	inBoolFalse
	inRef // child container: uvarint OID follows
	inRecord
	inList
	inSet
	inTag
	inDynamic // type ordinal, then the inline value
	inTypeVal // type ordinal follows
)

// nodeBuf is a growable encoding buffer.
type nodeBuf struct {
	bytes.Buffer
}

// keep empties b for the next group, or drops its buffer when it grew
// past maxKeptGroup.
func (b *nodeBuf) keep() {
	if b.Cap() > maxKeptGroup {
		*b = nodeBuf{}
		return
	}
	b.Reset()
}

func (b *nodeBuf) uvarint(x uint64) { b.Write(binary.AppendUvarint(b.AvailableBuffer(), x)) }

func (b *nodeBuf) varint(x int64) { b.Write(binary.AppendVarint(b.AvailableBuffer(), x)) }

func (b *nodeBuf) str(s string) {
	b.uvarint(uint64(len(s)))
	b.WriteString(s)
}

// prefixLen turns the bytes written since offset start into a
// length-prefixed field, shifting them right to make room for the uvarint
// — so a field of unknown length is encoded straight into b, with no
// scratch buffer per field.
func (b *nodeBuf) prefixLen(start int) {
	n := b.Len() - start
	var tmp [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(tmp[:], uint64(n))
	b.Write(tmp[:k])
	field := b.Bytes()[start:]
	copy(field[k:], field[:n])
	copy(field, tmp[:k])
}

// typ writes t's length-prefixed codec image: a 'T' record's body.
func (b *nodeBuf) typ(t types.Type) error {
	start := b.Len()
	img, err := codec.AppendType(b.AvailableBuffer(), t)
	if err != nil {
		return err
	}
	b.Write(img)
	b.prefixLen(start)
	return nil
}

// isContainer reports whether v is stored as its own node.
func isContainer(v value.Value) bool {
	switch v.(type) {
	case *value.Record, *value.List, *value.Set, *value.Tag, *dynamic.Dynamic:
		return true
	}
	return false
}

// encodeInline writes an atom inline, a container as a reference to the
// OID s assigned it, and a type atom as its ordinal in s's type table.
func encodeInline(b *nodeBuf, v value.Value, s *Store) error {
	switch vv := v.(type) {
	case value.Int:
		b.WriteByte(inInt)
		b.varint(int64(vv))
	case value.Float:
		b.WriteByte(inFloat)
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(float64(vv)))
		b.Write(tmp[:])
	case value.String:
		b.WriteByte(inString)
		b.str(string(vv))
	case value.Bool:
		if vv {
			b.WriteByte(inBoolTrue)
		} else {
			b.WriteByte(inBoolFalse)
		}
	case *value.TypeVal:
		b.WriteByte(inTypeVal)
		b.uvarint(s.typeID(vv.T))
	default:
		if isContainer(v) {
			b.WriteByte(inRef)
			b.uvarint(s.oids[v])
			return nil
		}
		switch v.Kind() {
		case value.KindBottom:
			b.WriteByte(inBottom)
		case value.KindUnit:
			b.WriteByte(inUnit)
		default:
			return fmt.Errorf("intrinsic: unsupported value kind %T", v)
		}
	}
	return nil
}

// encodeNode appends the shallow image of a container to b. Record fields
// whose label begins with transientPrefix are skipped — the paper's
// "transient information attached to a persistent structure" (the memo
// fields of the bill-of-materials example), which must not persist. Set
// elements are emitted in canonical key order so images are deterministic.
func encodeNode(b *nodeBuf, v value.Value, s *Store, transientPrefix string) error {
	var err error
	switch vv := v.(type) {
	case *value.Record:
		b.WriteByte(inRecord)
		// Count the persistent fields first.
		n := 0
		vv.Each(func(l string, _ value.Value) {
			if !isTransient(l, transientPrefix) {
				n++
			}
		})
		b.uvarint(uint64(n))
		vv.Each(func(l string, f value.Value) {
			if err != nil || isTransient(l, transientPrefix) {
				return
			}
			b.str(l)
			err = encodeInline(b, f, s)
		})
	case *value.List:
		b.WriteByte(inList)
		b.uvarint(uint64(len(vv.Elems)))
		for _, el := range vv.Elems {
			if err = encodeInline(b, el, s); err != nil {
				break
			}
		}
	case *value.Set:
		b.WriteByte(inSet)
		// Elements go in key order, each key computed once.
		type keyed struct {
			key string
			v   value.Value
		}
		elems := make([]keyed, 0, vv.Len())
		vv.Each(func(el value.Value) { elems = append(elems, keyed{value.Key(el), el}) })
		sort.Slice(elems, func(i, j int) bool { return elems[i].key < elems[j].key })
		b.uvarint(uint64(len(elems)))
		for _, el := range elems {
			if err = encodeInline(b, el.v, s); err != nil {
				break
			}
		}
	case *value.Tag:
		b.WriteByte(inTag)
		b.str(vv.Label)
		err = encodeInline(b, vv.Payload, s)
	case *dynamic.Dynamic:
		b.WriteByte(inDynamic)
		b.uvarint(s.typeID(vv.Type()))
		err = encodeInline(b, vv.Value(), s)
	default:
		return fmt.Errorf("intrinsic: %T is not a container", v)
	}
	return err
}

func isTransient(label, prefix string) bool {
	return prefix != "" && len(label) >= len(prefix) && label[:len(prefix)] == prefix
}

// nodeReader decodes node images and inline values, resolving type
// ordinals through types, the table of the 'T' records read so far. refs,
// when set, collects the OIDs of the references it reads, in order.
type nodeReader struct {
	buf   []byte
	pos   int
	types []types.Type
	refs  *[]uint64
}

func (r *nodeReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("%w: short node", ErrCorrupt)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *nodeReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	r.pos += n
	return x, nil
}

func (r *nodeReader) varint() (int64, error) {
	x, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	r.pos += n
	return x, nil
}

// bytes reads a length-prefixed string, returning it in place.
func (r *nodeReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, fmt.Errorf("%w: short string", ErrCorrupt)
	}
	r.pos += int(n)
	return r.buf[r.pos-int(n) : r.pos], nil
}

// typ reads a type ordinal. One that no 'T' record defines is corrupt,
// and leaves pos at it.
func (r *nodeReader) typ() (types.Type, error) {
	start := r.pos
	id, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if id >= uint64(len(r.types)) {
		r.pos = start
		return nil, fmt.Errorf("%w: type ordinal %d is not defined (%d are)", ErrCorrupt, id, len(r.types))
	}
	return r.types[id], nil
}

// inlineValue decodes an inline value; container refs are resolved
// through m, which materializes (or returns the already-materialized)
// node.
func (r *nodeReader) inlineValue(m *materializer) (value.Value, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case inBottom:
		return value.Bottom, nil
	case inUnit:
		return value.Unit, nil
	case inInt:
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		return value.Int(x), nil
	case inFloat:
		if r.pos+8 > len(r.buf) {
			return nil, fmt.Errorf("%w: short float", ErrCorrupt)
		}
		bits := binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		return value.Float(math.Float64frombits(bits)), nil
	case inString:
		b, err := r.bytes()
		if err != nil {
			return nil, err
		}
		return value.String(b), nil
	case inBoolTrue:
		return value.Bool(true), nil
	case inBoolFalse:
		return value.Bool(false), nil
	case inTypeVal:
		t, err := r.typ()
		if err != nil {
			return nil, err
		}
		return value.NewTypeVal(t), nil
	case inRef:
		oid, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if r.refs != nil {
			*r.refs = append(*r.refs, oid)
		}
		return m.node(oid)
	default:
		return nil, fmt.Errorf("%w: inline tag %d", ErrCorrupt, tag)
	}
}

// checkNode reads a node image as the materializer does, to resolve every
// type ordinal it names against r.types. The scanner runs it on each node
// that may name a type as the node arrives, so an ordinal is resolved
// against the 'T' records before it.
func (r *nodeReader) checkNode() error { return r.skipNode(true) }

// appendRefs appends the OIDs img references, in order. It reads what
// skipNode can and stops there: a malformed image names no more nodes.
func appendRefs(dst []uint64, img []byte) []uint64 {
	r := nodeReader{buf: img, refs: &dst}
	r.skipNode(false)
	return dst
}

// inlineRef returns the OID a root entry's inline value references, when
// it is a reference.
func inlineRef(inline []byte) (uint64, bool) {
	if len(inline) == 0 || inline[0] != inRef {
		return 0, false
	}
	oid, n := binary.Uvarint(inline[1:])
	return oid, n > 0
}

// skipNode reads past a node image as the materializer decodes it, each
// inline value skipped rather than built, and like the materializer
// ignores bytes after the value. It resolves each type ordinal against
// r.types when check is set. Its node layout follows encodeNode, as
// materializer.node does.
func (r *nodeReader) skipNode(check bool) error {
	tag, err := r.byte()
	if err != nil {
		return err
	}
	var n uint64 = 1
	switch tag {
	case inRecord, inList, inSet:
		if n, err = r.uvarint(); err != nil {
			return err
		}
	case inTag:
		_, err = r.bytes()
	case inDynamic:
		err = r.skipType(check)
	default:
		return fmt.Errorf("%w: node tag %d", ErrCorrupt, tag)
	}
	for i := uint64(0); err == nil && i < n; i++ {
		if tag == inRecord {
			if _, err = r.bytes(); err != nil {
				break
			}
		}
		err = r.skipInline(check)
	}
	return err
}

// skipInline reads past one inline value as inlineValue decodes it; see
// skipNode.
func (r *nodeReader) skipInline(check bool) error {
	tag, err := r.byte()
	if err != nil {
		return err
	}
	switch tag {
	case inBottom, inUnit, inBoolTrue, inBoolFalse:
	case inInt:
		_, err = r.varint()
	case inFloat:
		if r.pos+8 > len(r.buf) {
			return fmt.Errorf("%w: short float", ErrCorrupt)
		}
		r.pos += 8
	case inString:
		_, err = r.bytes()
	case inTypeVal:
		err = r.skipType(check)
	case inRef:
		var oid uint64
		if oid, err = r.uvarint(); err == nil && r.refs != nil {
			*r.refs = append(*r.refs, oid)
		}
	default:
		err = fmt.Errorf("%w: inline tag %d", ErrCorrupt, tag)
	}
	return err
}

// skipType reads past a type ordinal, resolving it when check is set.
func (r *nodeReader) skipType(check bool) error {
	if check {
		_, err := r.typ()
		return err
	}
	_, err := r.uvarint()
	return err
}
