package value

import (
	"encoding/binary"
	"slices"
	"sync"

	"dbpl/internal/types"
)

// Shape is the label set of a record: its labels in ascending order and
// their signature, the OR of types.LabelBit over them. Shapes are interned
// in one process-wide table, as types are by types.Intern, so two records
// have equal labels exactly when they point to one Shape. The one exception
// is a record a RecordDecoder is still reading: it has a shape of its own
// until its end (see RecordDecoder.Flush). The table keeps one entry per
// distinct label set of a record the process finishes building, for the
// life of the process; it has no bound and no option.
type Shape struct {
	labels []string // ascending, without repeats; substrings of the table key
	bits   uint64
}

// emptyShape is the shape of a record without fields, the zero Record's.
var emptyShape = &Shape{}

// shapes is the table, keyed by the labels, each as appendLabelKey writes
// it. A probe takes the read lock only.
var shapes = struct {
	sync.RWMutex
	m map[string]*Shape
}{m: map[string]*Shape{"": emptyShape}}

// appendLabelKey appends l to a shape key: its length, then its bytes.
func appendLabelKey[S ~string | ~[]byte](key []byte, l S) []byte {
	return append(binary.AppendUvarint(key, uint64(len(l))), l...)
}

// shapeOf returns the shape whose key is key, or nil when key's labels are
// not strictly ascending. A key the table holds costs no allocation.
func shapeOf(key []byte) *Shape {
	shapes.RLock()
	s := shapes.m[string(key)]
	shapes.RUnlock()
	if s != nil {
		return s
	}
	k := string(key)
	s = &Shape{}
	for off := 0; off < len(k); {
		n, w := binary.Uvarint(key[off:])
		l := k[off+w : off+w+int(n)]
		if len(s.labels) > 0 && s.labels[len(s.labels)-1] >= l {
			return nil
		}
		s.labels, s.bits, off = append(s.labels, l), s.bits|types.LabelBit(l), off+w+int(n)
	}
	shapes.Lock()
	defer shapes.Unlock()
	if old := shapes.m[k]; old != nil {
		return old
	}
	shapes.m[k] = s
	return s
}

// edit returns the shape of s's labels with l put at position i, or,
// unless add, with the label at position i taken out.
func (s *Shape) edit(i int, l string, add bool) *Shape {
	var buf [keyScratch]byte
	key := buf[:0]
	for j := 0; j <= len(s.labels); j++ {
		if j == i && add {
			key = appendLabelKey(key, l)
		}
		if j < len(s.labels) && (j != i || add) {
			key = appendLabelKey(key, s.labels[j])
		}
	}
	return shapeOf(key)
}

// appendLabels appends the shape key of labels.
func appendLabels(key []byte, labels []string) []byte {
	for _, l := range labels {
		key = appendLabelKey(key, l)
	}
	return key
}

// InternShape returns the shape of labels, or nil when they are not
// strictly ascending. It probes the shape table, adding the shape if the
// table does not hold it.
func InternShape(labels []string) *Shape { return shapeOf(appendLabels(nil, labels)) }

// InitShaped sets r to the fields of shape s, one of InternShape's, whose
// values are values, one a label, and returns it: the record initRecord
// builds over s's labels, without a label key or a probe of the shape
// table. r keeps values itself, capped at its length.
func InitShaped(r *Record, s *Shape, values []Value) *Record {
	if len(values) != len(s.labels) {
		panic("value: InitShaped given a value count unlike its shape's")
	}
	r.shape, r.values = s, values[:len(values):len(values)]
	return r
}

// initRecord sets r to the fields whose labels are key and whose values
// are values, and interns one shape. In ascending order, r keeps values
// itself, capped at its length; in any other order the fields are put as
// Set would put them, so a repeated label's last value stays.
func initRecord(r *Record, key []byte, values []Value) *Record {
	if s := shapeOf(key); s != nil {
		r.shape, r.values = s, values[:len(values):len(values)]
		return r
	}
	r.shape, r.values = &Shape{}, nil
	r.put(key, values)
	r.shape = shapeOf(appendLabels(nil, r.shape.labels))
	return r
}

// put sets in r, whose shape is its own and in no table, the fields whose
// labels are key and whose values are vals, as Set would.
func (r *Record) put(key []byte, vals []Value) {
	s, labels := r.shape, string(key)
	for off, i := 0, 0; off < len(key); i++ {
		n, w := binary.Uvarint(key[off:])
		l := labels[off+w : off+w+int(n)]
		off += w + int(n)
		j, found := slices.BinarySearch(s.labels, l)
		if !found {
			s.labels, r.values = slices.Insert(s.labels, j, l), slices.Insert(r.values, j, nil)
			s.bits |= types.LabelBit(l)
		}
		r.values[j] = vals[i]
	}
}

// RecordDecoder builds the records a decoder reads field by field, a label
// and then a value, as codec images and log node images hold them. It
// collects the labels of the records being read as bytes and gives each
// record its shape at its end, so a record over a label set the table holds
// costs no label string. The zero value is ready to use.
type RecordDecoder struct {
	key  []byte // the labels read of the open records, outermost first
	open []openRecord
	// dirty is the first open record that may hold fields Flush has not
	// put: Field makes the innermost one dirty, Flush makes them all clean.
	dirty int
}

// RecordScratch is backing a RecordDecoder starts its label key and
// open-record stack in (RecordDecoder.Use): room for the labels of a
// record of a dozen short fields, nested four deep. Held inside what
// holds the decoder, it spares a decoder that lives for one image the
// allocations of growing both from nil.
type RecordScratch struct {
	key  [128]byte
	open [4]openRecord
}

// Use starts d's label key and open-record stack, which must be empty, in
// s; either moves to the heap when it outgrows s. s must live as long as
// d is used.
func (d *RecordDecoder) Use(s *RecordScratch) {
	d.key, d.open = s.key[:0], s.open[:0]
}

// openRecord is a record being read: the values read of it, where its
// labels start in RecordDecoder.key, and how many of its fields, and up to
// where in key their labels, Flush has put.
type openRecord struct {
	r          *Record
	vals       []Value
	key        int
	set, setTo int
}

// Begin opens r, a zero Record, to be read into vals, which has room for its
// fields.
func (d *RecordDecoder) Begin(r *Record, vals []Value) {
	d.open = append(d.open, openRecord{r: r, vals: vals[:0], key: len(d.key), setTo: len(d.key)})
}

// Field adds label = v to the innermost open record.
func (d *RecordDecoder) Field(label []byte, v Value) {
	n := len(d.open) - 1
	o := &d.open[n]
	d.key, o.vals, d.dirty = appendLabelKey(d.key, label), append(o.vals, v), min(d.dirty, n)
}

// End closes the innermost open record and returns it.
func (d *RecordDecoder) End() *Record {
	n := len(d.open) - 1
	o, key := d.open[n], d.key[d.open[n].key:]
	d.open[n] = openRecord{}
	d.open, d.key, d.dirty = d.open[:n], d.key[:o.key], min(d.dirty, n)
	return initRecord(o.r, key, o.vals)
}

// Flush sets each open record to the fields read so far, as Set would have,
// for a check that reads them before they end: a dynamic's value conforming
// to its type. Until its end, such a record has a shape of its own, in no
// table, so only finished label sets are interned. Each Flush puts only the
// fields read since the last one.
func (d *RecordDecoder) Flush() {
	for i := d.dirty; i < len(d.open); i++ {
		o, end := &d.open[i], len(d.key)
		if i+1 < len(d.open) {
			end = d.open[i+1].key
		}
		if o.set == len(o.vals) {
			continue
		}
		if o.set == 0 {
			o.r.shape, o.r.values = &Shape{}, nil
		}
		o.r.put(d.key[o.setTo:end], o.vals[o.set:])
		o.set, o.setTo = len(o.vals), end
	}
	d.dirty = len(d.open)
}

// Reset drops the open records, for a decoder starting an image afresh.
func (d *RecordDecoder) Reset() {
	clear(d.open)
	d.key, d.open, d.dirty = d.key[:0], d.open[:0], 0
}
