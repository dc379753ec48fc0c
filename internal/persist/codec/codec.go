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
package codec

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

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

// Encoder writes values and types to an underlying stream. A single Encoder
// shares container references across everything it writes.
type Encoder struct {
	w    *bufio.Writer
	ids  map[value.Value]uint64 // container identity -> id
	next uint64
	err  error
	// valueDepth and typeDepth count the levels being encoded; see
	// MaxValueDepth and MaxTypeDepth.
	valueDepth, typeDepth int
}

// NewEncoder returns an encoder that writes the image header immediately.
func NewEncoder(w io.Writer) *Encoder {
	e := &Encoder{w: bufio.NewWriter(w), ids: map[value.Value]uint64{}}
	e.header()
	return e
}

func (e *Encoder) header() {
	e.bytes([]byte(magic))
	e.byte(version)
}

// typeEncoders recycles the Encoders behind WriteType: each owns a 4 KiB
// bufio.Writer, which is far more garbage than the few dozen bytes of a
// type image when a store writes one per root.
var typeEncoders = sync.Pool{New: func() any { return &Encoder{w: bufio.NewWriter(nil)} }}

// WriteType writes t to w as a standalone image — the bytes NewEncoder,
// Type and Flush produce — without building an Encoder per call.
func WriteType(w io.Writer, t types.Type) error {
	e := typeEncoders.Get().(*Encoder)
	e.w.Reset(w)
	e.err = nil
	e.header()
	e.encodeType(t)
	err := e.Flush()
	e.w.Reset(nil) // do not pin w in the pool
	typeEncoders.Put(e)
	return err
}

// Flush flushes buffered output and returns the first error encountered.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *Encoder) byte(b byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(b)
	}
}

func (e *Encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *Encoder) uvarint(x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	e.bytes(buf[:n])
}

func (e *Encoder) varint(x int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], x)
	e.bytes(buf[:n])
}

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

// ref registers a container and reports whether it was already written; if
// so a back-reference has been emitted.
func (e *Encoder) ref(v value.Value) bool {
	if id, ok := e.ids[v]; ok {
		e.byte(vRef)
		e.uvarint(id)
		return true
	}
	e.ids[v] = e.next
	e.next++
	return false
}

// Value writes one value.
func (e *Encoder) Value(v value.Value) error {
	e.encodeValue(v)
	if e.err != nil {
		return e.err
	}
	return nil
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
		e.varint(int64(vv))
	case value.Float:
		e.byte(vFloat)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(float64(vv)))
		e.bytes(buf[:])
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
		elems := vv.Elems()
		e.uvarint(uint64(len(elems)))
		for _, el := range elems {
			e.encodeValue(el)
		}
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
	return e.err
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

// Decoder reads values and types written by an Encoder.
type Decoder struct {
	r    *bufio.Reader
	refs []value.Value
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

// NewDecoder checks the image header and returns a decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{r: bufio.NewReader(r)}
	d.open = d.openBuf[:0]
	var hdr [len(magic) + 1]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if hdr[len(magic)] != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[len(magic)])
	}
	return d, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	x, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return x, nil
}

func (d *Decoder) count() (int, error) {
	x, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if x > maxCount {
		return 0, fmt.Errorf("%w: count %d", ErrLimitExceeded, x)
	}
	return int(x), nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	buf, err := readN(d.r, n)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return string(buf), nil
}

// readN reads exactly n bytes, growing the buffer incrementally so a
// corrupt image claiming a huge length fails fast at end of input instead
// of pre-allocating gigabytes.
func readN(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	if n <= chunk {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, chunk)
	for len(buf) < n {
		step := n - len(buf)
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// capCount bounds an initial slice capacity derived from untrusted input.
func capCount(n int) int {
	if n > 1024 {
		return 1024
	}
	return n
}

// Cycles. A set keys each element by its whole structure, and value.Key,
// which stops only at a dynamic, recurses forever round a cycle, so a set
// element that reaches one would crash the reader in Set.Add. Each open
// container notes whether it may reach a cycle: it refers back to a
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
	tag, err := d.r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch tag {
	case vBottom:
		return value.Bottom, nil
	case vUnit:
		return value.Unit, nil
	case vInt:
		x, err := binary.ReadVarint(d.r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return value.Int(x), nil
	case vFloat:
		var buf [8]byte
		if _, err := io.ReadFull(d.r, buf[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return value.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))), nil
	case vString:
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	case vBoolTrue:
		return value.Bool(true), nil
	case vBoolFalse:
		return value.Bool(false), nil
	case vRecord:
		rec := value.NewRecord()
		d.refs = append(d.refs, rec) // register before children: cycles
		d.push(len(d.refs)-1, vRecord)
		n, err := d.count()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			l, err := d.str()
			if err != nil {
				return nil, err
			}
			f, err := d.Value()
			if err != nil {
				return nil, err
			}
			rec.Set(l, f)
		}
		d.pop()
		return rec, nil
	case vList:
		lst := value.NewList()
		d.refs = append(d.refs, lst)
		d.push(len(d.refs)-1, vList)
		n, err := d.count()
		if err != nil {
			return nil, err
		}
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
		dyn, err := dynamic.MakeAt(v, t)
		if err != nil {
			return nil, fmt.Errorf("%w: dynamic no longer conforms: %v", ErrCorrupt, err)
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
// and one extent handle in the database engine.
func (d *Decoder) Type() (types.Type, error) {
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
	tag, err := d.r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
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

// ---------------------------------------------------------------------------
// Convenience: tagged and untagged images in memory
// ---------------------------------------------------------------------------

// MarshalTagged encodes v together with its type descriptor (principle P2).
// If declared is nil the value's most specific type is used.
func MarshalTagged(v value.Value, declared types.Type) ([]byte, error) {
	if declared == nil {
		declared = value.TypeOf(v)
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Type(declared); err != nil {
		return nil, err
	}
	if err := e.Value(v); err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalTagged decodes an image written by MarshalTagged, returning the
// value and the type that persisted with it.
func UnmarshalTagged(img []byte) (value.Value, types.Type, error) {
	d, err := NewDecoder(bytes.NewReader(img))
	if err != nil {
		return nil, nil, err
	}
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

// MarshalValue encodes v without its type descriptor — the ablation of
// principle P2 used by the codec benchmarks.
func MarshalValue(v value.Value) ([]byte, error) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Value(v); err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalValue decodes an image written by MarshalValue.
func UnmarshalValue(img []byte) (value.Value, error) {
	d, err := NewDecoder(bytes.NewReader(img))
	if err != nil {
		return nil, err
	}
	return d.Value()
}
