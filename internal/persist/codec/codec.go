// Package codec implements the serialization substrate for persistence: a
// compact, self-describing binary encoding of values and of their types.
// The paper's second principle of persistence — "while a value persists, so
// should its description (type)" — is realized by the tagged forms, which
// write the type descriptor alongside the value, so a database file can
// never be read back at the wrong type silently (the classical file-system
// failure the principle guards against).
//
// Shared substructure is preserved: a value referenced from two places is
// written once and referenced thereafter, and cyclic records round-trip.
// This matters for replicating persistence, whose update anomalies the
// paper attributes to the *loss* of sharing between separately externed
// handles — sharing must survive within one image for the comparison to be
// meaningful.
//
// There is one implementation, over a byte slice: an Encoder appends to a
// []byte, and a Decoder reads one at a cursor, checking every claimed length
// against the bytes that remain before it allocates. AppendTagged,
// DecodeTagged, AppendType and DecodeType are the entry points. The
// Marshal/Unmarshal helpers wrap them, and NewEncoder and NewDecoder are
// stream wrappers, for an image of many values sharing references.
//
// Principle P2 puts a type image beside every value, so a process meets a
// few distinct type images many times: the witness types of every reply,
// the query type of every GET, the declared type of every PUT. Every
// top-level type image a Decoder reads goes through one process-wide type
// table, which maps the image's exact bytes to the canonical type they
// decode to: an image met before costs a skip that allocates nothing, a
// hash and one atomic load. The table is bounded (see typeSlots), and the
// plain decoder it sits on stays the reference its tests hold it to.
// A reply to a GET or a JOIN states each of its witness types once: a
// ReplyWriter writes a reply's types and then its rows, and DecodeReply
// reads one, its rows through one reused Decoder, and builds their values
// from memory shared by the reply: slabs, and the rows field itself. A
// row that is a record of exactly its witness's labels, each field an
// atom, is read with the record program kept on the witness's type table
// entry, and any other row by the plain decoder. The
// slabs hold the reply's records, their value slices and its atoms: an
// Int outside 0–255, a Float or a String is boxed over its slab element
// rather than copied to an allocation of its own. The codec uses unsafe
// twice, both for replies: unsafe.String makes the rows field the string
// atoms slice, and box makes a slab element an interface's data word.
package codec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Errors returned by decoding.
var (
	ErrBadMagic      = errors.New("codec: bad magic (not a dbpl image)")
	ErrBadVersion    = errors.New("codec: unsupported version")
	ErrCorrupt       = errors.New("codec: corrupt image")
	ErrUnsupported   = errors.New("codec: unsupported value kind")
	ErrLimitExceeded = errors.New("codec: size limit exceeded")
)

const (
	magic   = "DBPL"
	version = 1

	// maxCount bounds decoded collection sizes as a corruption guard.
	maxCount = 1 << 28
)

// Nesting bounds. Encoding and decoding recurse once per level, and a
// goroutine that outgrows its stack kills the process, so an image nested
// past a bound is refused with ErrLimitExceeded — by the decoder, which a
// 16 MiB frame of nested list tags would otherwise crash, and by the
// encoder, so nothing writes an image its reader refuses.
const (
	// MaxValueDepth bounds value nesting, generously: a linked list of
	// 10 000 records round-trips.
	MaxValueDepth = 1 << 15
	// MaxTypeDepth bounds type nesting. An inferred type is as deep as
	// its value — TypeOf of a linked list is as deep as the list — plus
	// one for an empty list's or set's Bottom, so any value within
	// MaxValueDepth round-trips at its most specific type.
	MaxTypeDepth = MaxValueDepth + 1
)

// Value tags.
const (
	vBottom byte = iota
	vUnit
	vInt
	vFloat
	vString
	vBoolTrue
	vBoolFalse
	vRecord
	vList
	vSet
	vTag
	vTypeVal
	vDynamic
	vRef // back-reference to an already-encoded container
)

// Type tags.
const (
	tInt byte = iota
	tFloat
	tString
	tBool
	tUnit
	tTop
	tBottom
	tDynamic
	tTypeRep
	tRecord
	tVariant
	tList
	tSet
	tFunc
	tVar
	tForAll
	tExists
	tRec
)

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

// Encoder appends values and types to one image. A single Encoder shares
// container references across everything it writes.
type Encoder struct {
	buf []byte
	// w, for a stream Encoder, receives buf at Flush and whenever buf passes
	// flushAt between top-level values.
	w io.Writer
	// first is the first container written, id 0. ids maps every container
	// to its id once a second one is met, so an image with a single
	// container, such as a flat record, builds no map.
	first value.Value
	ids   map[value.Value]uint64
	next  uint64
	err   error
	// valueDepth and typeDepth count the levels being encoded; see
	// MaxValueDepth and MaxTypeDepth.
	valueDepth, typeDepth int
}

// flushAt is the buffered size past which a stream Encoder hands its
// buffer to its writer after a top-level value or type.
const flushAt = 64 << 10

// NewEncoder returns an encoder that writes a stream of values and types
// to w as one image, starting with the image header.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{buf: appendHeader(nil), w: w}
}

func appendHeader(dst []byte) []byte { return append(append(dst, magic...), version) }

// image returns the encoded image, or dst and the first error.
func (e *Encoder) image(dst []byte) ([]byte, error) {
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

// AppendTagged appends the image of v together with its type descriptor
// (principle P2) to dst. If declared is nil the value's most specific type
// is used.
func AppendTagged(dst []byte, v value.Value, declared types.Type) ([]byte, error) {
	if declared == nil {
		declared = value.TypeOf(v)
	}
	e := Encoder{buf: appendHeader(dst)}
	e.encodeType(declared)
	e.encodeValue(v)
	return e.image(dst)
}

// AppendType appends the standalone image of t to dst.
func AppendType(dst []byte, t types.Type) ([]byte, error) {
	e := Encoder{buf: appendHeader(dst)}
	e.encodeType(t)
	return e.image(dst)
}

// Flush hands the buffered image to the writer and returns the first error
// encountered, the writer's included.
func (e *Encoder) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
		e.buf = e.buf[:0]
	}
	return e.err
}

// spill flushes a stream Encoder whose buffer has passed flushAt.
func (e *Encoder) spill() error {
	if e.w != nil && len(e.buf) >= flushAt {
		return e.Flush()
	}
	return e.err
}

func (e *Encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *Encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// ref registers a container and reports whether it was already written; if
// so a back-reference has been emitted.
func (e *Encoder) ref(v value.Value) bool {
	id, seen := uint64(0), e.next > 0 && v == e.first
	if e.ids != nil {
		id, seen = e.ids[v]
	}
	if seen {
		e.byte(vRef)
		e.uvarint(id)
		return true
	}
	switch e.next {
	case 0:
		e.first = v
	case 1:
		e.ids = map[value.Value]uint64{e.first: 0, v: 1}
	default:
		e.ids[v] = e.next
	}
	e.next++
	return false
}

// Value writes one value.
func (e *Encoder) Value(v value.Value) error {
	e.encodeValue(v)
	return e.spill()
}

func (e *Encoder) encodeValue(v value.Value) {
	if e.err != nil {
		return
	}
	if e.valueDepth == MaxValueDepth {
		e.err = fmt.Errorf("%w: value nested deeper than %d", ErrLimitExceeded, MaxValueDepth)
		return
	}
	e.valueDepth++
	e.encodeValueBody(v)
	e.valueDepth--
}

func (e *Encoder) encodeValueBody(v value.Value) {
	switch vv := v.(type) {
	case value.Int:
		e.byte(vInt)
		e.buf = binary.AppendVarint(e.buf, int64(vv))
	case value.Float:
		e.byte(vFloat)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(float64(vv)))
	case value.String:
		e.byte(vString)
		e.str(string(vv))
	case value.Bool:
		if vv {
			e.byte(vBoolTrue)
		} else {
			e.byte(vBoolFalse)
		}
	case *value.Record:
		if e.ref(v) {
			return
		}
		e.byte(vRecord)
		e.uvarint(uint64(vv.Len()))
		vv.Each(func(l string, f value.Value) {
			e.str(l)
			e.encodeValue(f)
		})
	case *value.List:
		if e.ref(v) {
			return
		}
		e.byte(vList)
		e.uvarint(uint64(len(vv.Elems)))
		for _, el := range vv.Elems {
			e.encodeValue(el)
		}
	case *value.Set:
		if e.ref(v) {
			return
		}
		e.byte(vSet)
		e.uvarint(uint64(vv.Len()))
		vv.Each(e.encodeValue)
	case *value.Tag:
		if e.ref(v) {
			return
		}
		e.byte(vTag)
		e.str(vv.Label)
		e.encodeValue(vv.Payload)
	case *value.TypeVal:
		e.byte(vTypeVal)
		e.encodeType(vv.T)
	case *dynamic.Dynamic:
		if e.ref(v) {
			return
		}
		e.byte(vDynamic)
		e.encodeType(vv.Type())
		e.encodeValue(vv.Value())
	default:
		switch v.Kind() {
		case value.KindBottom:
			e.byte(vBottom)
		case value.KindUnit:
			e.byte(vUnit)
		default:
			e.err = fmt.Errorf("%w: %T", ErrUnsupported, v)
		}
	}
}

// Type writes one type descriptor.
func (e *Encoder) Type(t types.Type) error {
	e.encodeType(t)
	return e.spill()
}

func (e *Encoder) encodeType(t types.Type) {
	if e.err != nil {
		return
	}
	if e.typeDepth == MaxTypeDepth {
		e.err = fmt.Errorf("%w: type nested deeper than %d", ErrLimitExceeded, MaxTypeDepth)
		return
	}
	e.typeDepth++
	e.encodeTypeBody(t)
	e.typeDepth--
}

func (e *Encoder) encodeTypeBody(t types.Type) {
	switch tt := t.(type) {
	case *types.Basic:
		switch tt.Kind() {
		case types.KindInt:
			e.byte(tInt)
		case types.KindFloat:
			e.byte(tFloat)
		case types.KindString:
			e.byte(tString)
		case types.KindBool:
			e.byte(tBool)
		case types.KindUnit:
			e.byte(tUnit)
		case types.KindTop:
			e.byte(tTop)
		case types.KindBottom:
			e.byte(tBottom)
		case types.KindDynamic:
			e.byte(tDynamic)
		case types.KindTypeRep:
			e.byte(tTypeRep)
		default:
			e.err = fmt.Errorf("%w: basic kind %v", ErrUnsupported, tt.Kind())
		}
	case *types.Record:
		e.byte(tRecord)
		e.uvarint(uint64(tt.Len()))
		for i := 0; i < tt.Len(); i++ {
			f := tt.Field(i)
			e.str(f.Label)
			e.encodeType(f.Type)
		}
	case *types.Variant:
		e.byte(tVariant)
		e.uvarint(uint64(tt.Len()))
		for i := 0; i < tt.Len(); i++ {
			f := tt.Tag(i)
			e.str(f.Label)
			e.encodeType(f.Type)
		}
	case *types.List:
		e.byte(tList)
		e.encodeType(tt.Elem)
	case *types.Set:
		e.byte(tSet)
		e.encodeType(tt.Elem)
	case *types.Func:
		e.byte(tFunc)
		e.uvarint(uint64(len(tt.Params)))
		for _, p := range tt.Params {
			e.encodeType(p)
		}
		e.encodeType(tt.Result)
	case *types.Var:
		e.byte(tVar)
		e.str(tt.Name)
	case *types.Quant:
		if tt.Kind() == types.KindForAll {
			e.byte(tForAll)
		} else {
			e.byte(tExists)
		}
		e.str(tt.Param)
		e.encodeType(tt.Bound)
		e.encodeType(tt.Body)
	case *types.Rec:
		e.byte(tRec)
		e.str(tt.Param)
		e.encodeType(tt.Body)
	default:
		e.err = fmt.Errorf("%w: type %T", ErrUnsupported, t)
	}
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

// Decoder reads values and types written by an Encoder from one image.
type Decoder struct {
	src  []byte
	pos  int // next byte of src to read
	refs []value.Value
	// rep, if set, is the reply whose rows the decoder reads; see
	// DecodeReply.
	rep *reply
	// recs builds the records the decoder reads.
	recs value.RecordDecoder
	// typeDepth tracks Type's recursion so only complete top-level types are
	// canonicalized (open subterms under a binder should not be interned),
	// and, with valueDepth, enforces the nesting bounds.
	typeDepth, valueDepth int

	// open is the stack of containers being decoded, innermost last. Each
	// enters refs before its children, so a child can refer back to a
	// record, list or set still open and close a cycle. openBuf backs it
	// for the common shallow image.
	open    []openContainer
	openBuf [4]openContainer
	// cyclic has bit id set when the completed container refs[id] may reach
	// a cycle; nil until an image has one. See setElem.
	cyclic []uint64
}

// openContainer is one entry of Decoder.open.
type openContainer struct {
	id   int  // index in refs; ascending up the stack
	kind byte // its value tag
	// reaches is set once the container may reach a cycle.
	reaches bool
}

// errTruncated reports an image that ends early or claims a length past its end.
var errTruncated = fmt.Errorf("%w: %v", ErrCorrupt, io.ErrUnexpectedEOF)

// errVarint reports a varint cut short or longer than 64 bits.
var errVarint = fmt.Errorf("%w: bad varint", ErrCorrupt)

// headerLen is the length of the image header: magic and version.
const headerLen = len(magic) + 1

// checkHeader checks img's header.
func checkHeader(img []byte) error {
	if len(img) < headerLen {
		return fmt.Errorf("%w: %v", ErrBadMagic, io.ErrUnexpectedEOF)
	}
	if string(img[:len(magic)]) != magic {
		return ErrBadMagic
	}
	if img[len(magic)] != version {
		return fmt.Errorf("%w: %d", ErrBadVersion, img[len(magic)])
	}
	return nil
}

// newDecoder checks img's header and returns a decoder positioned after it.
func newDecoder(img []byte) (*Decoder, error) {
	if err := checkHeader(img); err != nil {
		return nil, err
	}
	d := &Decoder{src: img, pos: headerLen}
	d.open = d.openBuf[:0]
	return d, nil
}

// NewDecoder reads r to its end and returns a decoder of the image read,
// its header checked.
func NewDecoder(r io.Reader) (*Decoder, error) {
	img, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return newDecoder(img)
}

// DecodeTagged decodes an image written by AppendTagged, returning the
// value and the type that persisted with it.
func DecodeTagged(img []byte) (value.Value, types.Type, error) {
	if err := checkHeader(img); err != nil {
		return nil, nil, err
	}
	d := decoders.Get().(*Decoder)
	d.reset(img)
	v, t, err := d.tagged()
	d.reset(nil)
	decoders.Put(d)
	return v, t, err
}

// decoders holds the Decoders DecodeTagged reuses, with the slices they
// grew.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// reset readies d to read img, keeping the slices it grew and dropping
// what they held; reset(nil) lets go of everything d read.
func (d *Decoder) reset(img []byte) {
	clear(d.refs)
	d.recs.Reset()
	*d = Decoder{src: img, pos: headerLen, refs: d.refs[:0], recs: d.recs}
	d.open = d.openBuf[:0]
}

// tagged reads a type and then a value.
func (d *Decoder) tagged() (value.Value, types.Type, error) {
	t, err := d.Type()
	if err != nil {
		return nil, nil, err
	}
	v, err := d.Value()
	if err != nil {
		return nil, nil, err
	}
	return v, t, nil
}

// DecodeType decodes a standalone type image written by AppendType. An
// image the type table holds costs no allocation.
func DecodeType(img []byte) (types.Type, error) {
	if err := checkHeader(img); err != nil {
		return nil, err
	}
	d := Decoder{src: img, pos: headerLen}
	return d.Type()
}

// The type table. It has typeSets sets of typeWays entries each, every
// entry immutable, the bytes of a top-level type image and its canonical
// type, and an image hashes to one set. A lookup is an atomic load a way
// and takes no lock. A store puts the image in the set's first way and
// moves what that held to the second, dropping what the second held, so
// the two images a set stored last both stay, and any images that share
// a set decode correctly, an evicted one costing a decode. An image
// longer than typeImageMax bytes is decoded but never stored. So the
// table holds at most typeSets × typeWays entries and retains at most
// typeSets × typeWays × typeImageMax image bytes, whatever a peer sends;
// the types are types.Canon's, which holds them anyway.
const (
	typeSets     = 1 << 9
	typeWays     = 2
	typeImageMax = 512
)

// typeEntry is an entry of the table: a type image's bytes and its type,
// and, once a reply has read the image, the program it reads its rows at
// that type with.
type typeEntry struct {
	img string
	t   types.Type
	rec atomic.Pointer[recordProgram] // noProgram if t has none
}

// noProgram marks an entry whose type has no record program.
var noProgram recordProgram

// program returns e's record program, or nil if its type has none. The
// first call compiles it; of calls that race, one's program is kept.
func (e *typeEntry) program() *recordProgram {
	p := e.rec.Load()
	if p == nil {
		if p = compileRecord(e.t); p == nil {
			p = &noProgram
		}
		if !e.rec.CompareAndSwap(nil, p) {
			p = e.rec.Load()
		}
	}
	if p == &noProgram {
		return nil
	}
	return p
}

var (
	typeTable [typeSets][typeWays]atomic.Pointer[typeEntry]
	typeSeed  = maphash.MakeSeed()
)

// typeSet returns the set the type image img hashes to.
func typeSet(img []byte) *[typeWays]atomic.Pointer[typeEntry] {
	return &typeTable[maphash.Bytes(typeSeed, img)%typeSets]
}

// tableType reads the top-level type image at d's cursor through the type
// table, and returns its type and its entry, or no entry for an image the
// table does not keep. It measures the image with a skip; a stored image
// costs no more, and any other is decoded, and stored if it decodes to
// exactly the bytes skipped.
func (d *Decoder) tableType() (types.Type, *typeEntry, error) {
	start := d.pos
	if err := d.skipType(0); err != nil {
		// The decoder reports the first fault in image order, and the skip
		// does not look for duplicate labels.
		d.pos = start
		if _, derr := d.decodeType(); derr != nil {
			return nil, nil, derr
		}
		return nil, nil, err
	}
	img := d.src[start:d.pos]
	d.pos = start
	if len(img) > typeImageMax {
		t, err := d.decodeType()
		return t, nil, err
	}
	set := typeSet(img)
	for i := range set {
		if e := set[i].Load(); e != nil && e.img == string(img) {
			d.pos += len(img)
			return e.t, e, nil
		}
	}
	t, err := d.decodeType()
	if err != nil || d.pos != start+len(img) {
		return t, nil, err
	}
	e := &typeEntry{img: string(img), t: t}
	set[1].Store(set[0].Load())
	set[0].Store(e)
	return t, e, nil
}

// A recordProgram reads a reply's row at a record witness whose fields
// are all of atom types: by Get's typing and principle P2 such a row is
// most often a record of exactly the witness's labels. It holds the bytes
// the encoder writes for such a record ahead of each atom, so a row is
// checked with one comparison a field and built at the witness's interned
// shape, without a label key or a probe of the shape table. A program is
// compiled once, when a reply first reads its type image from the type
// table, is kept on the image's entry and is immutable; the table's bound
// is its bound.
type recordProgram struct {
	head   string   // the record's tag and field count
	labels []string // each field's label, its uvarint length and bytes, ascending
	shape  *value.Shape
}

// compileRecord returns the program of t, or nil unless t is a record
// type whose every field type is an atom's, Top or Bottom: a row at any
// other type would fall back at its first container.
func compileRecord(t types.Type) *recordProgram {
	r, ok := t.(*types.Record)
	if !ok {
		return nil
	}
	p := &recordProgram{
		head:   string(binary.AppendUvarint([]byte{vRecord}, uint64(r.Len()))),
		labels: make([]string, r.Len()),
	}
	names := make([]string, r.Len())
	for i := range names {
		f := r.Field(i)
		if k := f.Type.Kind(); k < types.KindInt || k > types.KindBottom {
			return nil
		}
		names[i] = f.Label
		p.labels[i] = string(binary.AppendUvarint(nil, uint64(len(f.Label)))) + f.Label
	}
	p.shape = value.InternShape(names) // a record type's labels ascend
	return p
}

func (d *Decoder) byte() (byte, error) {
	if d.pos == len(d.src) {
		return 0, errTruncated
	}
	d.pos++
	return d.src[d.pos-1], nil
}

func (d *Decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.src[d.pos:])
	if n <= 0 {
		return 0, errVarint
	}
	d.pos += n
	return x, nil
}

// count reads a collection size or string length. Each element or byte it
// counts takes at least one byte of the image, so a count past the bytes
// that remain is refused before anything is allocated.
func (d *Decoder) count() (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > maxCount {
		return 0, fmt.Errorf("%w: count %d", ErrLimitExceeded, x)
	}
	if x > uint64(len(d.src)-d.pos) {
		return 0, errTruncated
	}
	return int(x), nil
}

// bytes reads a counted byte string, returning it in place.
func (d *Decoder) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	d.pos += n
	return d.src[d.pos-n : d.pos], nil
}

func (d *Decoder) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

// capCount bounds an initial slice capacity derived from untrusted input.
func capCount(n int) int {
	if n > 1024 {
		return 1024
	}
	return n
}

// Cycles. Set.Add keys each element by its whole structure as it is
// added, and a set element on a cycle through the set reaches a container
// the decoder has not finished: its key would be written over a partly
// decoded value and go stale as the rest is read. value.Key terminates on
// cycles; the refusal is about when the key is taken. The rule is kept
// simple and sound: a set element that may reach any cycle is refused.
// Each open container notes whether it may reach one: it refers back to a
// container still open, or to a completed one that may, or has a child that
// may — a dynamic, opaque to Key, passes nothing on. A back reference from
// inside a dynamic's value to a container outside it need not close a cycle
// Key follows; counting it anyway keeps the check sound, at the price of
// refusing a set that holds such a value. Every other cycle decodes.

// push marks refs[id], a container of the given tag, as being decoded.
func (d *Decoder) push(id int, kind byte) {
	d.open = append(d.open, openContainer{id: id, kind: kind})
}

// pop marks the innermost container being decoded as complete. One that
// may reach a cycle passes that on to its parent, unless it is a dynamic.
func (d *Decoder) pop() {
	n := len(d.open) - 1
	c := d.open[n]
	d.open = d.open[:n]
	if !c.reaches || c.kind == vDynamic {
		return
	}
	for len(d.cyclic) <= c.id/64 {
		d.cyclic = append(d.cyclic, 0)
	}
	d.cyclic[c.id/64] |= 1 << (c.id % 64)
	if n > 0 {
		d.open[n-1].reaches = true
	}
}

// ref notes a reference to refs[id] from the innermost open container.
func (d *Decoder) ref(id int) {
	if len(d.open) == 0 {
		return
	}
	_, open := slices.BinarySearchFunc(d.open, id, func(c openContainer, id int) int { return cmp.Compare(c.id, id) })
	if open || id/64 < len(d.cyclic) && d.cyclic[id/64]&(1<<(id%64)) != 0 {
		d.open[len(d.open)-1].reaches = true
	}
}

// setElem vets the element just decoded into the innermost open container,
// a set, before Set.Add keys it.
func (d *Decoder) setElem() error {
	if d.open[len(d.open)-1].reaches {
		return fmt.Errorf("%w: a set element reaching a cycle", ErrCorrupt)
	}
	return nil
}

// Value reads one value.
func (d *Decoder) Value() (value.Value, error) {
	if d.valueDepth == MaxValueDepth {
		return nil, fmt.Errorf("%w: value nested deeper than %d", ErrLimitExceeded, MaxValueDepth)
	}
	d.valueDepth++
	v, err := d.value()
	d.valueDepth--
	return v, err
}

func (d *Decoder) value() (value.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vBottom:
		return value.Bottom, nil
	case vUnit:
		return value.Unit, nil
	case vInt:
		x, n := binary.Varint(d.src[d.pos:])
		if n <= 0 {
			return nil, errVarint
		}
		d.pos += n
		// Go boxes an Int in 0–255 without an allocation; a reply boxes
		// the others in its slab.
		if d.rep != nil && uint64(x) > 255 {
			return boxIn(&d.rep.ints, value.Int(x), d), nil
		}
		return value.Int(x), nil
	case vFloat:
		if len(d.src)-d.pos < 8 {
			return nil, errTruncated
		}
		d.pos += 8
		f := value.Float(math.Float64frombits(binary.LittleEndian.Uint64(d.src[d.pos-8:])))
		if d.rep != nil {
			return boxIn(&d.rep.floats, f, d), nil
		}
		return f, nil
	case vString:
		s, err := d.atom()
		if err != nil {
			return nil, err
		}
		if d.rep != nil {
			return boxIn(&d.rep.strs, value.String(s), d), nil
		}
		return value.String(s), nil
	case vBoolTrue:
		return value.Bool(true), nil
	case vBoolFalse:
		return value.Bool(false), nil
	case vRecord:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		// A reply's records and values come from its slabs.
		var rec *value.Record
		var vals []value.Value
		if d.rep != nil {
			rec, vals = &d.rep.recs.take(1, d)[0], d.rep.vals.take(n, d)
		} else {
			rec, vals = new(value.Record), make([]value.Value, 0, capCount(n))
		}
		d.refs = append(d.refs, rec) // register before children: cycles
		d.push(len(d.refs)-1, vRecord)
		d.recs.Begin(rec, vals)
		for i := 0; i < n; i++ {
			l, err := d.bytes()
			if err != nil {
				return nil, err
			}
			f, err := d.Value()
			if err != nil {
				return nil, err
			}
			d.recs.Field(l, f)
		}
		d.pop()
		return d.recs.End(), nil
	case vList:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		lst := &value.List{Elems: make([]value.Value, 0, capCount(n))}
		d.refs = append(d.refs, lst)
		d.push(len(d.refs)-1, vList)
		for i := 0; i < n; i++ {
			el, err := d.Value()
			if err != nil {
				return nil, err
			}
			lst.Append(el)
		}
		d.pop()
		return lst, nil
	case vSet:
		set := value.NewSet()
		d.refs = append(d.refs, set)
		d.push(len(d.refs)-1, vSet)
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			el, err := d.Value()
			if err != nil {
				return nil, err
			}
			if err := d.setElem(); err != nil {
				return nil, err
			}
			set.Add(el)
		}
		d.pop()
		return set, nil
	case vTag:
		// Reserve the slot first so ids line up with encoding order.
		idx := len(d.refs)
		d.refs = append(d.refs, nil)
		d.push(idx, vTag)
		label, err := d.str()
		if err != nil {
			return nil, err
		}
		payload, err := d.Value()
		if err != nil {
			return nil, err
		}
		d.pop()
		tv := value.NewTag(label, payload)
		d.refs[idx] = tv
		return tv, nil
	case vTypeVal:
		t, err := d.Type()
		if err != nil {
			return nil, err
		}
		return value.NewTypeVal(t), nil
	case vDynamic:
		idx := len(d.refs)
		d.refs = append(d.refs, nil)
		d.push(idx, vDynamic)
		t, err := d.Type()
		if err != nil {
			return nil, err
		}
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		d.pop()
		d.recs.Flush() // the check reads the records around it as read so far
		dyn, err := dynamic.MakeAt(v, t)
		if err != nil {
			return nil, fmt.Errorf("%w: dynamic no longer conforms to %s", ErrCorrupt, t)
		}
		d.refs[idx] = dyn
		return dyn, nil
	case vRef:
		id, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if id >= uint64(len(d.refs)) || d.refs[id] == nil {
			return nil, fmt.Errorf("%w: dangling reference %d", ErrCorrupt, id)
		}
		d.ref(int(id))
		return d.refs[id], nil
	default:
		return nil, fmt.Errorf("%w: value tag %d", ErrCorrupt, tag)
	}
}

// Type reads one type descriptor. Top-level types are routed through
// types.Canon, so every image of a schema decodes to the one canonical
// in-memory representation — and hence one entry in every type-keyed cache
// and one extent handle in the database engine — and through the type
// table.
func (d *Decoder) Type() (types.Type, error) {
	if d.typeDepth == 0 {
		t, _, err := d.tableType()
		return t, err
	}
	return d.decodeType()
}

// decodeType reads one type descriptor without the type table: the
// reference the table is held to.
func (d *Decoder) decodeType() (types.Type, error) {
	if d.typeDepth == MaxTypeDepth {
		return nil, fmt.Errorf("%w: type nested deeper than %d", ErrLimitExceeded, MaxTypeDepth)
	}
	d.typeDepth++
	t, err := d.typeInner()
	d.typeDepth--
	if err == nil && d.typeDepth == 0 {
		t = types.Canon(t)
	}
	return t, err
}

func (d *Decoder) typeInner() (types.Type, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tInt:
		return types.Int, nil
	case tFloat:
		return types.Float, nil
	case tString:
		return types.String, nil
	case tBool:
		return types.Bool, nil
	case tUnit:
		return types.Unit, nil
	case tTop:
		return types.Top, nil
	case tBottom:
		return types.Bottom, nil
	case tDynamic:
		return types.Dynamic, nil
	case tTypeRep:
		return types.TypeRep, nil
	case tRecord, tVariant:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		fs := make([]types.Field, 0, capCount(n))
		seen := make(map[string]bool, capCount(n))
		for i := 0; i < n; i++ {
			l, err := d.str()
			if err != nil {
				return nil, err
			}
			// NewRecord/NewVariant panic on duplicate labels; a corrupted
			// image must surface as an error instead.
			if seen[l] {
				return nil, fmt.Errorf("%w: duplicate label %q", ErrCorrupt, l)
			}
			seen[l] = true
			ft, err := d.Type()
			if err != nil {
				return nil, err
			}
			fs = append(fs, types.Field{Label: l, Type: ft})
		}
		if tag == tRecord {
			return types.NewRecord(fs...), nil
		}
		return types.NewVariant(fs...), nil
	case tList:
		el, err := d.Type()
		if err != nil {
			return nil, err
		}
		return types.NewList(el), nil
	case tSet:
		el, err := d.Type()
		if err != nil {
			return nil, err
		}
		return types.NewSet(el), nil
	case tFunc:
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		ps := make([]types.Type, 0, capCount(n))
		for i := 0; i < n; i++ {
			p, err := d.Type()
			if err != nil {
				return nil, err
			}
			ps = append(ps, p)
		}
		res, err := d.Type()
		if err != nil {
			return nil, err
		}
		return types.NewFunc(ps, res), nil
	case tVar:
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		return types.NewVar(name), nil
	case tForAll, tExists:
		param, err := d.str()
		if err != nil {
			return nil, err
		}
		bound, err := d.Type()
		if err != nil {
			return nil, err
		}
		body, err := d.Type()
		if err != nil {
			return nil, err
		}
		if tag == tForAll {
			return types.NewForAll(param, bound, body), nil
		}
		return types.NewExists(param, bound, body), nil
	case tRec:
		param, err := d.str()
		if err != nil {
			return nil, err
		}
		body, err := d.Type()
		if err != nil {
			return nil, err
		}
		return types.NewRec(param, body), nil
	default:
		return nil, fmt.Errorf("%w: type tag %d", ErrCorrupt, tag)
	}
}

// skipType moves past one type image, nested depth levels down, without
// decoding it. It allocates nothing and refuses what Type refuses for
// nesting and counts.
func (d *Decoder) skipType(depth int) error {
	if depth == MaxTypeDepth {
		return fmt.Errorf("%w: type nested deeper than %d", ErrLimitExceeded, MaxTypeDepth)
	}
	tag, err := d.byte()
	if err != nil {
		return err
	}
	n := 0 // the nested types that follow
	switch tag {
	case tInt, tFloat, tString, tBool, tUnit, tTop, tBottom, tDynamic, tTypeRep:
	case tRecord, tVariant:
		if n, err = d.count(); err != nil {
			return err
		}
		for ; n > 0; n-- { // label, type
			if _, err := d.bytes(); err != nil {
				return err
			}
			if err := d.skipType(depth + 1); err != nil {
				return err
			}
		}
	case tList, tSet:
		n = 1
	case tFunc:
		if n, err = d.count(); err != nil {
			return err
		}
		n++ // the parameters and the result
	case tVar:
		_, err = d.bytes()
		return err
	case tRec, tForAll, tExists: // a name, then the body or the bound and the body
		if _, err := d.bytes(); err != nil {
			return err
		}
		n = 2
		if tag == tRec {
			n = 1
		}
	default:
		return fmt.Errorf("%w: type tag %d", ErrCorrupt, tag)
	}
	for ; n > 0; n-- {
		if err := d.skipType(depth + 1); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

// A reply is the answer to a GET or a JOIN: values, each at its witness
// type, where a bulk answer has few distinct witnesses. A reply of no rows
// is no fields. Any other is two:
//
//   - the reply's types: an image header, the row count, the type count,
//     and each distinct witness type's image once, in order of first use;
//   - the rows, back to back: each the uvarint ordinal of its witness in
//     the types, then its value's image, with no header.
//
// Back-references are scoped to their row, so row i decodes as
// DecodeTagged does the image of a header, its witness's type image and its
// value's bytes.

// ReplyWriter writes the fields of one reply. Reset readies a writer, the
// zero one included, for a reply, which it writes into the buffer of the
// last; add each row with Row, then take the fields with Fields.
type ReplyWriter struct {
	// buf holds the rows, and after them the reply's types once Fields
	// has run.
	buf  []byte
	rows int
	// want is the number of rows the writer was made for.
	want int
	// types are the distinct witnesses in order of first use, canonical;
	// typeBuf backs them for a reply of a few. index maps each witness met
	// to its ordinal once there are more than len(typeBuf).
	types   []types.Type
	typeBuf [4]types.Type
	index   map[types.Type]int
	err     error
	// fields is what Fields returns.
	fields [2][]byte
}

// Bounds on a reply buffer's reservations: the first row goes into
// replyFirst bytes, and the rest are reserved at the first row's size, up
// to replyReserveMax bytes; past that the buffer grows as it fills.
const (
	replyFirst      = 256
	replyReserveMax = 64 << 10
)

// Reset readies w for a reply of rows rows, and keeps the buffer of the
// reply w wrote last when its capacity is at most keep bytes. The fields
// Fields returned before are no longer valid.
func (w *ReplyWriter) Reset(rows, keep int) {
	buf := w.buf[:0]
	if cap(buf) > keep {
		buf = nil
	}
	*w = ReplyWriter{buf: buf, want: rows}
}

// Row adds the value v at its witness type t. The first error is kept for
// Fields.
func (w *ReplyWriter) Row(v value.Value, t types.Type) {
	if w.err != nil {
		return
	}
	e := Encoder{buf: w.ordinalOf(t)}
	e.encodeValue(v)
	w.buf, w.err = e.buf, e.err
	w.rowDone()
}

// RowBytes adds a row at the witness type t whose value bytes are img,
// as ValueBytes wrote them: the row Row writes for the value.
func (w *ReplyWriter) RowBytes(img []byte, t types.Type) {
	if w.err != nil {
		return
	}
	w.buf = append(w.ordinalOf(t), img...)
	w.rowDone()
}

// A Merge is what RowMerged did with a pair of record images.
type Merge int

const (
	// Merged: the row of the records' join was added.
	Merged Merge = iota
	// Conflict: the records hold unequal atoms at a label, so they do not
	// join; no row was added.
	Conflict
	// Undecided: an image is not a record of atoms written as ValueBytes
	// writes them, so the merge cannot tell; no row was added.
	Undecided
)

// RowMerged adds, at the witness type t, the row Row adds for the join of
// the records whose value bytes (ValueBytes) are a and b, built from the
// bytes: their fields merged in label order, without the joined value.
// It decides only records whose every field is an atom, not ⊥. A label
// on both sides must carry byte-equal atoms, which for atoms written so
// is value.Equal, or the records conflict. The first error is kept for
// Fields, and then RowMerged reports Merged.
func (w *ReplyWriter) RowMerged(a, b []byte, t types.Type) Merge {
	if w.err != nil {
		return Merged
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, replyFirst)
	}
	start := len(w.buf)
	buf, n, m := appendMerged(w.buf, a, b)
	if m != Merged {
		w.buf = buf[:start]
		return m
	}
	// The ordinal and the record's field count go in front of the fields
	// once they are known to join.
	var head [2*binary.MaxVarintLen64 + 1]byte
	h := binary.AppendUvarint(head[:0], uint64(w.ordinal(t)))
	h = binary.AppendUvarint(append(h, vRecord), uint64(n))
	w.buf = slices.Insert(buf, start, h...)
	w.rowDone()
	return Merged
}

// appendMerged appends to dst the fields of the join of the record images
// a and b, and returns their count. The fields are appended as the images
// hold them; the verdict is Merged only when both images read to their
// end and no label conflicts.
func appendMerged(dst, a, b []byte) ([]byte, int, Merge) {
	var fa, fb atomFields
	if !fa.open(a) || !fb.open(b) {
		return dst, 0, Undecided
	}
	sa, sb := fa.next(), fb.next()
	n, conflict := 0, false
	for {
		if sa == fieldBad || sb == fieldBad {
			return dst, 0, Undecided
		}
		if sa == fieldEnd && sb == fieldEnd {
			break
		}
		c := -1 // the side to take: a below 0, b above, both at 0
		switch {
		case sa == fieldEnd:
			c = 1
		case sb != fieldEnd:
			c = bytes.Compare(fa.label, fb.label)
		}
		if c <= 0 {
			dst = append(dst, fa.field...)
		} else {
			dst = append(dst, fb.field...)
		}
		if c == 0 && !bytes.Equal(fa.atom, fb.atom) {
			conflict = true // a later field may still be undecidable
		}
		if c <= 0 {
			sa = fa.next()
		}
		if c >= 0 {
			sb = fb.next()
		}
		n++
	}
	if conflict {
		return dst, 0, Conflict
	}
	return dst, n, Merged
}

// atomFields reads, one field at a time, a record image whose fields are
// atoms as the encoder writes them: counts, lengths and Ints as minimal
// varints, labels strictly ascending, and nothing after the last field.
type atomFields struct {
	rest  []byte // the fields not read yet
	left  uint64 // how many
	field []byte // the field read last: its label's length and bytes, then its atom
	label []byte // its label
	atom  []byte // its atom's tag and bytes
}

// What atomFields.next read.
const (
	fieldRead = iota
	fieldEnd
	fieldBad
)

// open starts reading the record image img, reporting whether it opens
// with a record's tag and field count.
func (f *atomFields) open(img []byte) bool {
	if len(img) == 0 || img[0] != vRecord {
		return false
	}
	n, k := minimalCount(img[1:])
	if k <= 0 {
		return false
	}
	f.rest, f.left = img[1+k:], n
	return true
}

// next reads the next field: fieldRead, fieldEnd after the last, or
// fieldBad for a field that is not an atom written as the encoder writes
// it, a label not past the last one, or bytes after the last field.
func (f *atomFields) next() int {
	if f.left == 0 {
		if len(f.rest) != 0 {
			return fieldBad
		}
		return fieldEnd
	}
	p := f.rest
	l, k := minimalCount(p)
	if k <= 0 || l >= uint64(len(p)-k) { // the label and at least a tag
		return fieldBad
	}
	label := p[k : k+int(l)]
	if f.field != nil && bytes.Compare(label, f.label) <= 0 {
		return fieldBad
	}
	at := k + int(l)
	end := at + 1
	switch p[at] {
	case vUnit, vBoolTrue, vBoolFalse:
	case vInt:
		_, k := binary.Varint(p[end:])
		if k <= 0 || k > 1 && p[end+k-1] == 0 {
			return fieldBad
		}
		end += k
	case vFloat:
		end += 8
	case vString:
		n, k := minimalCount(p[end:])
		if k <= 0 {
			return fieldBad
		}
		end += k + int(n) // n is at most maxCount
	default:
		return fieldBad
	}
	if end > len(p) {
		return fieldBad
	}
	f.field, f.label, f.atom = p[:end], label, p[at:end]
	f.rest, f.left = p[end:], f.left-1
	return fieldRead
}

// minimalCount reads a count or length as binary.Uvarint does, and
// refuses, with k = 0, one past the decoder's bound or longer than its
// value needs.
func minimalCount(p []byte) (x uint64, k int) {
	x, k = binary.Uvarint(p)
	if k > 1 && p[k-1] == 0 || x > maxCount {
		return 0, 0
	}
	return x, k
}

// ordinalOf returns the buffer with the ordinal of a row at t appended.
func (w *ReplyWriter) ordinalOf(t types.Type) []byte {
	if w.buf == nil {
		w.buf = make([]byte, 0, replyFirst)
	}
	return binary.AppendUvarint(w.buf, uint64(w.ordinal(t)))
}

// rowDone counts a row written, and after the first reserves the rest.
func (w *ReplyWriter) rowDone() {
	w.rows++
	if w.rows == 1 && w.want > 1 {
		w.buf = slices.Grow(w.buf, min(len(w.buf)*(w.want-1), replyReserveMax))
	}
}

// ValueBytes returns the bytes a reply's row holds for v after its
// ordinal: v's image with no header, its back-references scoped to it.
// The slice is a copy of its own, sized to the image.
func ValueBytes(v value.Value) ([]byte, error) {
	e := Encoder{buf: make([]byte, 0, replyFirst)}
	e.encodeValue(v)
	if e.err != nil {
		return nil, e.err
	}
	return slices.Clone(e.buf), nil
}

// ordinal returns t's ordinal in the reply's types, adding t if it is new.
// Witnesses are compared as their canonical types, so two equal witnesses
// share one ordinal.
func (w *ReplyWriter) ordinal(t types.Type) int {
	if i, ok := w.lookup(t); ok {
		return i
	}
	c := types.Canon(t)
	i, ok := w.lookup(c)
	if !ok {
		if w.types == nil {
			w.types = w.typeBuf[:0]
		}
		i = len(w.types)
		w.types = append(w.types, c)
		if w.index == nil && len(w.types) > len(w.typeBuf) {
			w.index = make(map[types.Type]int, 2*len(w.types))
			for j, u := range w.types {
				w.index[u] = j
			}
		}
	}
	if w.index != nil {
		w.index[t], w.index[c] = i, i
	}
	return i
}

// lookup returns t's ordinal, if t is among the reply's types or, past
// len(typeBuf) of them, a witness met before.
func (w *ReplyWriter) lookup(t types.Type) (int, bool) {
	if w.index != nil {
		i, ok := w.index[t]
		return i, ok
	}
	for i, u := range w.types {
		if u == t {
			return i, true
		}
	}
	return 0, false
}

// Fields returns the reply's fields, or the first error met. Both fields
// are slices of one buffer, the types appended after the rows, and the
// slice of the two is w's own: all are valid until w is Reset.
func (w *ReplyWriter) Fields() ([][]byte, error) {
	if w.err != nil || w.rows == 0 {
		return nil, w.err
	}
	rows := len(w.buf)
	e := Encoder{buf: appendHeader(w.buf)}
	e.uvarint(uint64(w.rows))
	e.uvarint(uint64(len(w.types)))
	for _, t := range w.types {
		e.encodeType(t)
	}
	if e.err != nil {
		return nil, e.err
	}
	w.buf = e.buf
	w.fields = [2][]byte{w.buf[rows:], w.buf[:rows]}
	return w.fields[:], nil
}

// replyHead checks a reply's fields as far as its counts and returns a
// decoder of its types field positioned at the first type image. Each row
// takes at least two bytes, an ordinal and a value tag, so a row count
// past half the rows field is refused.
func replyHead(fields [][]byte) (d Decoder, rows, ntypes int, err error) {
	if len(fields) != 2 {
		return d, 0, 0, fmt.Errorf("%w: a reply of %d fields", ErrCorrupt, len(fields))
	}
	if err := checkHeader(fields[0]); err != nil {
		return d, 0, 0, err
	}
	d = Decoder{src: fields[0], pos: headerLen}
	n, err := d.uvarint()
	if err != nil {
		return d, 0, 0, err
	}
	if n == 0 {
		return d, 0, 0, fmt.Errorf("%w: a reply's types with no rows", ErrCorrupt)
	}
	if n > uint64(len(fields[1])/2) {
		return d, 0, 0, errTruncated
	}
	ntypes, err = d.count()
	return d, int(n), ntypes, err
}

// ReplyRows returns the number of rows of the reply whose fields are
// fields, checked against the size of its rows field.
func ReplyRows(fields [][]byte) (int, error) {
	if len(fields) == 0 {
		return 0, nil
	}
	_, rows, _, err := replyHead(fields)
	return rows, err
}

// DecodeReply decodes the reply whose fields are fields, such as the
// fields of one VALUES frame, and calls each with each row's index, value
// and witness in order. Each row's outcome is DecodeTagged's on the row's
// image, stopping at the first error; it also refuses a malformed types
// field, an ordinal past the types and bytes after the last type or row.
// Each type image is read once, through the type table. The rows share
// one Decoder. A row at a witness with a record program (recordProgram)
// is read with it when it is a record of exactly the witness's labels
// whose fields are atoms; any other row, and a row the program leaves
// partway, is read from its start by the generic decoder, whose records
// get their labels from the interned value.Shape of their label set. The
// reply's records and their value slices are cut from slabs sized from
// the row count, and so are its atoms: an Int outside 0–255, which Go boxes
// without an allocation, a Float or a String is boxed over an element of a
// slab (box). The rows field is kept, not copied: string atoms are
// substrings of it, so the caller hands it over and must not change it
// afterwards, as the client does the payload of a frame it read. A value
// kept from the reply, an atom included, keeps the rows field and those
// slabs alive. The types keep strings of their own, since a canonical type
// outlives the reply.
func DecodeReply(fields [][]byte, each func(i int, v value.Value, t types.Type)) error {
	if len(fields) == 0 {
		return nil
	}
	td, rows, n, err := replyHead(fields)
	if err != nil {
		return err
	}
	rep := &reply{src: unsafe.String(unsafe.SliceData(fields[1]), len(fields[1])), rows: rows}
	ts := rep.typeBuf[:0]
	if n > len(rep.typeBuf) {
		ts = make([]witness, 0, n)
	}
	for range n {
		t, e, err := td.tableType()
		if err != nil {
			return err
		}
		w := witness{t: t}
		if e != nil {
			w.rec = e.program()
		}
		ts = append(ts, w)
	}
	if td.pos != len(td.src) {
		return fmt.Errorf("%w: bytes after a reply's types", ErrCorrupt)
	}
	d := &rep.d
	d.src, d.rep = fields[1], rep
	d.open, d.refs = d.openBuf[:0], rep.refBuf[:0]
	d.recs.Use(&rep.recScratch)
	for i := range rows {
		ord, err := d.uvarint()
		if err != nil {
			return err
		}
		if ord >= uint64(len(ts)) {
			return fmt.Errorf("%w: type ordinal %d of %d types", ErrCorrupt, ord, len(ts))
		}
		var v value.Value
		if rec := ts[ord].rec; rec != nil {
			v = d.programRow(rec)
		}
		if v == nil {
			if v, err = d.Value(); err != nil {
				return err
			}
		}
		each(i, v, ts[ord].t)
		rep.done++
		d.nextRow()
	}
	if d.pos != len(d.src) {
		return fmt.Errorf("%w: bytes after a reply's rows", ErrCorrupt)
	}
	return nil
}

// programRow reads the row value at the cursor with p, when it is a record
// of p's labels, each written as the encoder writes it, whose every field
// is an atom. Any other row it leaves partway, and returns nil with the
// cursor and the reply's slabs as it found them.
func (d *Decoder) programRow(p *recordProgram) value.Value {
	rep, start := d.rep, d.pos
	if !strings.HasPrefix(rep.src[start:], p.head) {
		return nil
	}
	saved := rep.slabs
	d.pos += len(p.head)
	vals := rep.vals.take(len(p.labels), d)
	for i, l := range p.labels {
		// vBottom up to vBoolFalse are the atoms' tags.
		if at := d.pos + len(l); strings.HasPrefix(rep.src[d.pos:], l) && at < len(rep.src) && rep.src[at] <= vBoolFalse {
			d.pos = at
			if v, err := d.value(); err == nil {
				vals[i] = v
				continue
			}
		}
		d.pos, rep.slabs = start, saved
		return nil
	}
	return value.InitShaped(&rep.recs.take(1, d)[0], p.shape, vals)
}

// nextRow readies d, between the rows of a reply, for the next row: a row
// refers to no container of another.
func (d *Decoder) nextRow() {
	clear(d.refs)
	d.refs = d.refs[:0]
	d.recs.Reset()
	d.open = d.open[:0]
	d.cyclic = d.cyclic[:0]
}

// reply is what the decodes of one reply's rows share.
type reply struct {
	// d is the decoder of the rows.
	d Decoder
	// src is the rows field, which string atoms slice.
	src string
	// rows is the number of rows and done the number decoded.
	rows, done int
	slabs
	// typeBuf backs the reply's types when it has a few.
	typeBuf [4]witness
	// refBuf and recScratch back d's containers and its record decoder
	// when the generic decoder reads a row.
	refBuf     [4]value.Value
	recScratch value.RecordScratch
}

// slabs are the slabs of one reply: its records and their value slices,
// and in ints, floats and strs the atoms it boxes.
type slabs struct {
	recs   slab[value.Record]
	vals   slab[value.Value]
	ints   slab[value.Int]
	floats slab[value.Float]
	strs   slab[value.String]
}

// witness is one of a reply's types, with its record program if it has one.
type witness struct {
	t   types.Type
	rec *recordProgram
}

// slab hands out runs of one reply's records or values.
type slab[T any] struct {
	free []T // the rest of the current chunk
	used int // the elements handed out
}

// take returns n elements. A new chunk holds what the rows still to
// decode will take at the rate the decoded ones took, but no more than n
// for each row left or the elements handed out so far, whichever is more,
// and no more than the bytes left could use, since each element takes at
// least one byte. So a reply of like rows takes one chunk, and one whose
// rows differ wastes at most what it used plus n a row.
func (s *slab[T]) take(n int, d *Decoder) []T {
	if len(s.free) < n {
		rep := d.rep
		rows := rep.rows - rep.done
		size := (s.used + n + rep.done) / (rep.done + 1) * rows
		left := len(d.src) - d.pos
		s.free = make([]T, max(n, min(size, max(n*rows, s.used), n+left)))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	s.used += n
	return out
}

// boxIn returns x as a value.Value boxed in an element taken from s.
func boxIn[T value.Int | value.Float | value.String](s *slab[T], x T, d *Decoder) value.Value {
	p := &s.take(1, d)[0]
	*p = x
	return box(p)
}

// box returns the value.Value holding *p with p itself as its data word:
// the conversion value.Value(*p) without the copy of *p to an allocation
// of its own. The interface is the runtime's pair of words, the itab of
// T's conversion to value.Value and a pointer to the value; it compares,
// hashes, switches, asserts and reflects as the conversion's does, and
// keeps p's slab alive as the conversion keeps its copy. *p must not
// change afterwards. With unsafe.String over a reply's rows field, this
// is the codec's only use of unsafe.
func box[T value.Int | value.Float | value.String](p *T) value.Value {
	var zero T
	v := value.Value(zero) // a zero atom converts without an allocation
	(*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1] = unsafe.Pointer(p)
	return v
}

// atom reads a string atom: in a reply, a substring of the rows field.
func (d *Decoder) atom() (string, error) {
	if d.rep == nil {
		return d.str()
	}
	b, err := d.bytes()
	if err != nil {
		return "", err
	}
	return d.rep.src[d.pos-len(b) : d.pos], nil
}

// ---------------------------------------------------------------------------
// Convenience: tagged and untagged images as fresh slices
// ---------------------------------------------------------------------------

// MarshalTagged returns AppendTagged(nil, v, declared).
func MarshalTagged(v value.Value, declared types.Type) ([]byte, error) {
	return AppendTagged(nil, v, declared)
}

// UnmarshalTagged is DecodeTagged.
func UnmarshalTagged(img []byte) (value.Value, types.Type, error) {
	return DecodeTagged(img)
}

// MarshalValue encodes v without its type descriptor — the ablation of
// principle P2 used by the codec benchmarks.
func MarshalValue(v value.Value) ([]byte, error) {
	e := Encoder{buf: appendHeader(nil)}
	e.encodeValue(v)
	return e.image(nil)
}

// UnmarshalValue decodes an image written by MarshalValue.
func UnmarshalValue(img []byte) (value.Value, error) {
	d, err := newDecoder(img)
	if err != nil {
		return nil, err
	}
	return d.Value()
}
