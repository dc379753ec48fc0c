package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// splitImages cuts a fuzz payload into fields as a frame holds them: each
// a uvarint length, then that many bytes. A prefix that does not fit makes
// the rest one field.
func splitImages(b []byte) [][]byte {
	var imgs [][]byte
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return append(imgs, b)
		}
		imgs = append(imgs, b[k:k+int(n)])
		b = b[k+int(n):]
	}
	return imgs
}

// joinImages is the payload splitImages cuts into the fields imgs.
func joinImages(imgs ...[]byte) []byte {
	var b []byte
	for _, img := range imgs {
		b = binary.AppendUvarint(b, uint64(len(img)))
		b = append(b, img...)
	}
	return b
}

// structural reports whether value.Equal decides v by structure: v reaches
// no cycle, on which Equal does not terminate, and no dynamic, which Equal
// compares by identity. seen holds the containers met: false while they
// are on the search path, true once they are known structural, so a value
// that shares costs its containers, not its unfolding.
func structural(v value.Value, seen map[value.Value]bool) bool {
	switch v.(type) {
	case *dynamic.Dynamic:
		return false
	case *value.Record, *value.List, *value.Set, *value.Tag:
	default:
		return true
	}
	if done, met := seen[v]; met {
		return done
	}
	seen[v] = false
	ok := true
	switch vv := v.(type) {
	case *value.Record:
		vv.Each(func(_ string, f value.Value) { ok = ok && structural(f, seen) })
	case *value.List:
		for _, el := range vv.Elems {
			ok = ok && structural(el, seen)
		}
	case *value.Set:
		vv.Each(func(el value.Value) { ok = ok && structural(el, seen) })
	case *value.Tag:
		ok = structural(vv.Payload, seen)
	}
	seen[v] = ok
	return ok
}

// writeReply is the reply ReplyWriter writes of vals at wits.
func writeReply(tb testing.TB, vals []value.Value, wits []types.Type) [][]byte {
	tb.Helper()
	var w ReplyWriter
	w.Reset(len(vals), 0)
	for i, v := range vals {
		w.Row(v, wits[i])
	}
	fields, err := w.Fields()
	if err != nil {
		tb.Fatal(err)
	}
	return fields
}

// specReply builds the reply of vals at wits from the layout's definition
// and the one-shot encoders: the types field holds each distinct witness
// image once, in order of first use, and each row is an ordinal and the
// value bytes of AppendTagged's image.
func specReply(tb testing.TB, vals []value.Value, wits []types.Type) [][]byte {
	tb.Helper()
	if len(vals) == 0 {
		return nil
	}
	var imgs [][]byte
	var rows []byte
	for i, v := range vals {
		timg, err := AppendType(nil, wits[i])
		if err != nil {
			tb.Fatal(err)
		}
		ord := slices.IndexFunc(imgs, func(img []byte) bool { return bytes.Equal(img, timg) })
		if ord < 0 {
			ord, imgs = len(imgs), append(imgs, timg)
		}
		tagged, err := AppendTagged(nil, v, wits[i])
		if err != nil {
			tb.Fatal(err)
		}
		rows = binary.AppendUvarint(rows, uint64(ord))
		rows = append(rows, tagged[len(timg):]...)
	}
	head := []byte("DBPL\x01")
	head = binary.AppendUvarint(head, uint64(len(vals)))
	head = binary.AppendUvarint(head, uint64(len(imgs)))
	for _, img := range imgs {
		head = append(head, img[headerLen:]...)
	}
	return [][]byte{head, rows}
}

// refRows reads a reply's fields by the layout's definition with the
// plain decoder, and returns each row as the tagged image of a header, its
// witness's type image and its value's bytes, up to the first refusal,
// which it returns.
func refRows(fields [][]byte) ([][]byte, error) {
	if len(fields) == 0 {
		return nil, nil
	}
	if len(fields) != 2 {
		return nil, ErrCorrupt
	}
	if err := checkHeader(fields[0]); err != nil {
		return nil, err
	}
	d := Decoder{src: fields[0], pos: headerLen}
	rows, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if rows == 0 || rows > uint64(len(fields[1])/2) {
		return nil, ErrCorrupt
	}
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	var timgs [][]byte
	for range n {
		start := d.pos
		if _, err := d.decodeType(); err != nil {
			return nil, err
		}
		timgs = append(timgs, fields[0][start:d.pos])
	}
	if d.pos != len(d.src) {
		return nil, ErrCorrupt
	}
	var imgs [][]byte
	pos := 0
	for range rows {
		r := Decoder{src: fields[1], pos: pos}
		ord, err := r.uvarint()
		if err != nil {
			return imgs, err
		}
		if ord >= uint64(len(timgs)) {
			return imgs, ErrCorrupt
		}
		start := r.pos
		r.open = r.openBuf[:0]
		if _, err := r.Value(); err != nil {
			return imgs, err
		}
		pos = r.pos
		imgs = append(imgs, slices.Concat([]byte("DBPL\x01"), timgs[ord], fields[1][start:pos]))
	}
	if pos != len(fields[1]) {
		return imgs, ErrCorrupt
	}
	return imgs, nil
}

// replyValues are values of several records sharing witnesses: nested
// records, lists, a shared sub-value, a cycle, and a dynamic whose value
// refers back to the record around it, with the witness of each.
func replyValues(tb testing.TB) ([]value.Value, []types.Type) {
	shared := value.Rec("City", value.String("Oslo"))
	cyclic := value.Rec("Name", value.String("loop"))
	cyclic.Set("Self", cyclic)
	outer := value.Rec("A", value.Int(1))
	inner, err := dynamic.MakeAt(value.Rec("X", outer), types.MustParse("{X: {A: Int}}"))
	if err != nil {
		tb.Fatal(err)
	}
	outer.Set("D", inner)
	vals := []value.Value{
		value.Rec("Name", value.String("a"), "Id", value.Int(1)),
		value.Rec("Name", value.String("b"), "Id", value.Int(2), "Addr", shared, "Home", shared),
		value.Rec("Name", value.String("c"), "Id", value.Int(3)),
		value.Rec("Items", value.NewList(value.Rec("Sku", value.Int(1)), value.Rec("Sku", value.Int(2)))),
		value.NewSet(value.Rec("K", value.String("k"))),
		cyclic,
		outer,
		value.Rec("Name", value.String("d"), "Id", value.Int(4), "Addr", shared),
	}
	wits := make([]types.Type, len(vals))
	for i, v := range vals {
		wits[i] = value.TypeOf(v)
	}
	wits[5] = types.MustParse("{Name: String}")
	wits[7] = wits[0]
	return vals, wits
}

// replySeeds are payloads of replies, their fields framed as a frame's:
// replies written by ReplyWriter (one of them atomReply's), one with
// hand-made rows whose records repeat a label out of order, the replies
// whose rows leave their record program partway (programReplies), every
// malformed reply, and no reply.
func replySeeds(tb testing.TB) [][]byte {
	vals, wits := replyValues(tb)
	// Two rows at {A: Int}, each a record B = 1, A = 2, B = 3.
	aType, err := AppendType(nil, types.MustParse("{A: Int}"))
	if err != nil {
		tb.Fatal(err)
	}
	aRow := []byte{0, vRecord, 3, 1, 'B', vInt, 2, 1, 'A', vInt, 4, 1, 'B', vInt, 6}
	dup := [][]byte{append([]byte("DBPL\x01\x02\x01"), aType[headerLen:]...), slices.Concat(aRow, aRow)}
	mixed, mixedWits := mixedReply(tb, 64, 4, 256)
	seeds := [][]byte{
		joinImages(atomReply(tb)...),
		joinImages(writeReply(tb, mixed, mixedWits)...),
		joinImages(writeReply(tb, vals, wits)...),
		joinImages(writeReply(tb, vals[:3], wits[:3])...),
		joinImages(writeReply(tb, []value.Value{vals[5], vals[6], vals[0]}, []types.Type{wits[5], wits[6], wits[0]})...),
		joinImages(dup...),
	}
	for _, p := range programReplies(tb) {
		seeds = append(seeds, joinImages(p.fields...))
	}
	for _, m := range malformedReplies(tb) {
		seeds = append(seeds, joinImages(m.fields...))
	}
	return append(seeds, nil)
}

// programReplies are replies whose rows all have the witness {A: Int,
// B: Float, C: String}, and so its record program: a row the program reads
// whole, then the row each is named for, then the first again, except
// that a row whose last atom is cut short ends its reply. read is whether
// the program reads the named row whole; the others it leaves partway.
func programReplies(tb testing.TB) []struct {
	name   string
	read   bool
	fields [][]byte
} {
	row := func(pairs ...any) []byte {
		img, err := ValueBytes(value.Rec(pairs...))
		if err != nil {
			tb.Fatal(err)
		}
		return append([]byte{0}, img...) // ordinal 0
	}
	a, b, c := value.Int(1000), value.Float(0.5), value.String("c")
	dyn, err := dynamic.MakeAt(value.Int(1), types.Int)
	if err != nil {
		tb.Fatal(err)
	}
	good := row("A", a, "B", b, "C", c)
	typeImg, err := AppendType(nil, types.MustParse("{A: Int, B: Float, C: String}"))
	if err != nil {
		tb.Fatal(err)
	}
	typesField := func(rows int) []byte {
		return slices.Concat([]byte("DBPL\x01"), binary.AppendUvarint(nil, uint64(rows)), []byte{1}, typeImg[headerLen:])
	}
	type reply = struct {
		name   string
		read   bool
		fields [][]byte
	}
	var out []reply
	for _, r := range []struct {
		name string
		read bool
		row  []byte
	}{
		{"a label byte changed", false, row("A", a, "B", b, "D", c)},
		{"a field more", false, row("A", a, "B", b, "C", c, "D", a)},
		{"a field fewer", false, row("A", a, "B", b)},
		{"a list last", false, row("A", a, "B", b, "C", value.NewList(c))},
		{"a record last", false, row("A", a, "B", b, "C", value.Rec("X", c))},
		{"a dynamic last", false, row("A", a, "B", b, "C", dyn)},
		{"a label length as a non-minimal varint", false, bytes.Replace(good, []byte{1, 'B'}, []byte{0x81, 0, 'B'}, 1)},
		{"⊥ and an Int at the Float field", true, row("A", value.Bottom, "B", value.Int(3), "C", c)},
	} {
		out = append(out, reply{r.name, r.read, [][]byte{typesField(3), slices.Concat(good, r.row, good)}})
	}
	return append(out, reply{"a truncated last atom", false, [][]byte{typesField(2), slices.Concat(good, good[:len(good)-1])}})
}

// slabMark is where a slab stands: its free chunk's start and length, and
// the elements it has handed out.
func slabMark[T any](s *slab[T]) [3]uintptr {
	return [3]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(s.free))), uintptr(len(s.free)), uintptr(s.used)}
}

// slabMarks is where each of s stands.
func slabMarks(s *slabs) [5][3]uintptr {
	return [...][3]uintptr{slabMark(&s.recs), slabMark(&s.vals), slabMark(&s.ints), slabMark(&s.floats), slabMark(&s.strs)}
}

// TestProgramRowRewinds: each row of programReplies that the record
// program reads whole is built at the witness's interned shape; from each
// other row the program returns with the cursor and every slab of the
// reply as it found them, and the generic decoder reads the row from its
// start, to the refusal of the row cut short.
func TestProgramRowRewinds(t *testing.T) {
	for _, c := range programReplies(t) {
		td, rows, _, err := replyHead(c.fields)
		if err != nil {
			t.Fatal(err)
		}
		_, e, err := td.tableType()
		if err != nil || e == nil || e.program() == nil {
			t.Fatalf("%s: the witness has no program (%v)", c.name, err)
		}
		p := e.program()
		rep := &reply{src: string(c.fields[1]), rows: rows}
		d := &rep.d
		d.src, d.rep, d.open = c.fields[1], rep, d.openBuf[:0]
		for i := range rows {
			d.pos++ // the ordinal
			start := d.pos
			before := slabMarks(&rep.slabs)
			v := d.programRow(p)
			if read := i != 1 || c.read; read != (v != nil) {
				t.Fatalf("%s: row %d read by the program: %v, want %v", c.name, i, v != nil, read)
			}
			if v != nil {
				if v.(*value.Record).Shape() != p.shape {
					t.Errorf("%s: row %d is not at the witness's shape", c.name, i)
				}
			} else {
				if after := slabMarks(&rep.slabs); d.pos != start || after != before {
					t.Fatalf("%s: row %d left at %d, slabs at %v, want %d, %v", c.name, i, d.pos, after, start, before)
				}
				if _, err := d.Value(); err != nil {
					if i != rows-1 || !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: row %d: %v", c.name, i, err)
					}
					break
				}
			}
			rep.done++
			d.nextRow()
		}
	}
}

// malformedReplies are replies a decoder must refuse, each named for its
// fault, built by changing a good reply of three rows at two witnesses.
func malformedReplies(tb testing.TB) []struct {
	name   string
	fields [][]byte
} {
	vals, wits := replyValues(tb)
	good := writeReply(tb, vals[:3], wits[:3])
	// withRows is good's types field claiming n rows.
	withRows := func(n int) []byte {
		return slices.Concat(good[0][:headerLen], binary.AppendUvarint(nil, uint64(n)), good[0][headerLen+1:])
	}
	var old [][]byte
	for i, v := range vals[:3] {
		img, err := AppendTagged(nil, v, wits[i])
		if err != nil {
			tb.Fatal(err)
		}
		old = append(old, img)
	}
	ordinal := slices.Clone(good[1])
	ordinal[0] = 7
	return []struct {
		name   string
		fields [][]byte
	}{
		{"an ordinal past the types", [][]byte{good[0], ordinal}},
		{"a row count past the rows' bytes", [][]byte{withRows(len(good[1])/2 + 1), good[1]}},
		{"a row count past the rows", [][]byte{withRows(4), good[1]}},
		{"bytes after the types", [][]byte{append(slices.Clone(good[0]), 0), good[1]}},
		{"bytes after the rows", [][]byte{good[0], append(slices.Clone(good[1]), vInt)}},
		{"types with no rows", [][]byte{withRows(0), good[1]}},
		{"types and no rows field", good[:1]},
		{"an empty rows field", [][]byte{good[0], nil}},
		{"a third field", [][]byte{good[0], good[1], good[1]}},
		{"bad magic", [][]byte{append([]byte("XBPL"), good[0][4:]...), good[1]}},
		{"one tagged image a row, 3 rows", old},
		{"one tagged image a row, 2 rows", old[:2]},
		{"one tagged image a row, 1 row", old[:1]},
	}
}

// isCodecErr reports whether err is one of the codec's errors.
func isCodecErr(err error) bool {
	return err != nil && slices.Contains([]error{ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrUnsupported, ErrLimitExceeded}, errClass(err))
}

// TestReplyRefusesMalformed: each malformed reply is refused with a
// codec error, and a client sizing its answer from ReplyRows never gets
// more rows than the rows field can hold.
func TestReplyRefusesMalformed(t *testing.T) {
	for _, m := range malformedReplies(t) {
		rows := 0
		err := DecodeReply(m.fields, func(int, value.Value, types.Type) { rows++ })
		if !isCodecErr(err) {
			t.Errorf("%s: DecodeReply returned %v after %d rows, want a codec error", m.name, err, rows)
		}
		if n, err := ReplyRows(m.fields); err == nil && (len(m.fields) != 2 || 2*n > len(m.fields[1])) {
			t.Errorf("%s: ReplyRows accepts %d rows", m.name, n)
		}
	}
}

// mixedReply is the rows of a reply whose first value is a list of recs
// small records and whose other values, strs of them, are strings of size
// bytes, with their witnesses.
func mixedReply(tb testing.TB, recs, strs, size int) ([]value.Value, []types.Type) {
	elems := make([]value.Value, recs)
	for i := range elems {
		elems[i] = value.Rec("Sku", value.Int(int64(i)))
	}
	vals := []value.Value{value.NewList(elems...)}
	for i := 0; i < strs; i++ {
		vals = append(vals, value.String(strings.Repeat("s", size)))
	}
	wits := make([]types.Type, len(vals))
	for i, v := range vals {
		wits[i] = value.TypeOf(v)
	}
	return vals, wits
}

// TestReplyWriterLayout: ReplyWriter writes the layout's bytes: for no
// rows, no fields; for several rows at a few witnesses, at more witnesses
// than the writer keeps inline, and at equal witnesses that are distinct
// pointers, the reply specReply builds from the definition. Each row
// decodes through DecodeReply as its tagged image does through
// DecodeTagged.
func TestReplyWriterLayout(t *testing.T) {
	vals, wits := replyValues(t)
	var many []value.Value
	var manyWits []types.Type
	for i := range 40 {
		v := value.Rec("Id", value.Int(int64(i)), fmt.Sprintf("F%d", i%9), value.Int(1))
		many, manyWits = append(many, v), append(manyWits, value.TypeOf(v))
	}
	twin := types.MustParse("{Name: String, Id: Int}")
	twins := []types.Type{twin, types.MustParse("{Name: String, Id: Int}"), twin}
	for _, c := range []struct {
		name string
		vals []value.Value
		wits []types.Type
	}{
		{"empty", nil, nil},
		{"mixed", vals, wits},
		{"many witnesses", many, manyWits},
		{"equal witnesses", vals[:3], twins},
	} {
		got := writeReply(t, c.vals, c.wits)
		want := specReply(t, c.vals, c.wits)
		if len(got) != len(want) || len(got) == 2 && (!bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1])) {
			t.Errorf("%s: ReplyWriter wrote %x, the layout is %x", c.name, got, want)
			continue
		}
		imgs, err := refRows(got)
		if err != nil || len(imgs) != len(c.vals) {
			t.Fatalf("%s: the reference read %d rows and %v", c.name, len(imgs), err)
		}
		if err := DecodeReply(got, func(i int, v value.Value, ty types.Type) {
			wv, wt, err := DecodeTagged(imgs[i])
			if err != nil || ty != wt || !sameEncoding(t, v, ty, wv, wt) {
				t.Errorf("%s: row %d decodes to %v at %s, its image to %v at %s (%v)", c.name, i, v, ty, wv, wt, err)
			}
		}); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// sameEncoding reports whether v at t and w at u encode to the same tagged
// image.
func sameEncoding(tb testing.TB, v value.Value, t types.Type, w value.Value, u types.Type) bool {
	a, aerr := AppendTagged(nil, v, t)
	b, berr := AppendTagged(nil, w, u)
	return errClass(aerr) == errClass(berr) && bytes.Equal(a, b)
}

// FuzzReplyDecode: a reply decodes through DecodeReply exactly as its
// rows do one by one through the one-shot DecodeTagged, each the tagged
// image of a header, its witness's type image and its value's bytes, as
// refRows reads them from the layout's definition. Both refuse at the
// same row with the same class of error, or the reference refuses the
// layout and so does the reply, before any row; or both accept every row,
// and then each row's witness is the same canonical type and its value
// re-encodes to the same bytes, and is value.Equal where Equal is decided
// by structure; each atom it holds, boxed in the reply's slabs, has the
// dynamic type of the one-shot decode's and is == to it (NaN aside). No
// input panics.
func FuzzReplyDecode(f *testing.F) {
	for _, seed := range replySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fields := splitImages(payload)
		type decoded struct {
			v  value.Value
			ty types.Type
		}
		var got []decoded
		err := DecodeReply(fields, func(i int, v value.Value, ty types.Type) {
			if i != len(got) {
				t.Fatalf("row %d decoded after %d rows", i, len(got))
			}
			got = append(got, decoded{v, ty})
		})
		if err != nil && !isCodecErr(err) {
			t.Fatalf("the reply refuses with an untyped error: %v", err)
		}
		imgs, rerr := refRows(fields)
		if rows, _ := ReplyRows(fields); err == nil && rows != len(got) {
			t.Fatalf("ReplyRows says %d rows; the reply decoded %d", rows, len(got))
		}
		for i, img := range imgs {
			v, ty, werr := DecodeTagged(img)
			if werr != nil {
				t.Fatalf("row %d: the reference's image does not decode: %v", i, werr)
			}
			if i >= len(got) {
				t.Fatalf("row %d: one-shot decodes; the reply decoded %d rows and returned %v", i, len(got), err)
			}
			if got[i].ty != ty {
				t.Fatalf("row %d: witness %s, one-shot canonical %s", i, got[i].ty, ty)
			}
			if !sameEncoding(t, got[i].v, got[i].ty, v, ty) {
				t.Fatalf("row %d re-encodes unlike its one-shot decode %v", i, v)
			}
			if structural(v, map[value.Value]bool{}) && !value.Equal(got[i].v, v) {
				t.Fatalf("row %d decodes to %v, one-shot to %v", i, got[i].v, v)
			}
			ga, wa := atomsOf(got[i].v, map[value.Value]bool{}, nil), atomsOf(v, map[value.Value]bool{}, nil)
			if len(ga) != len(wa) {
				t.Fatalf("row %d holds %d atoms, its one-shot decode %d", i, len(ga), len(wa))
			}
			for j, a := range ga {
				if reflect.TypeOf(a) != reflect.TypeOf(wa[j]) || a != wa[j] && wa[j] == wa[j] {
					t.Fatalf("row %d: atom %d is %#v, one-shot %#v", i, j, a, wa[j])
				}
			}
		}
		switch {
		case rerr == nil && err != nil:
			t.Fatalf("every row decodes one-shot; the reply returned %v", err)
		case rerr != nil && (err == nil || len(got) != len(imgs) || errClass(err) != errClass(rerr)):
			t.Fatalf("the reference refuses after %d rows with %v; the reply decoded %d and returned %v", len(imgs), rerr, len(got), err)
		}
	})
}

// TestReplyStringsAndTypes: a reply's string atoms are substrings of its
// rows field, at the offsets their bytes have there, so no byte of the
// rows is copied; its types and record labels hold none of the payload's
// bytes, since a canonical type and a label set outlive the reply.
func TestReplyStringsAndTypes(t *testing.T) {
	// Labels no other test in the process uses, so the types decoded here
	// become canonical themselves.
	ty := types.MustParse("{ReplyOwnName: String, ReplyOwnTags: List[String], ReplyOwnSub: {ReplyOwnLeaf: Int}}")
	names := []string{"first-atom", "second-atom", "third-atom"}
	var vals []value.Value
	for _, name := range names {
		vals = append(vals, value.Rec("ReplyOwnName", value.String(name),
			"ReplyOwnTags", value.NewList(value.String("tag")),
			"ReplyOwnSub", value.Rec("ReplyOwnLeaf", value.Int(1))))
	}
	// The fields are slices of one buffer, as a frame's are.
	payload := joinImages(writeReply(t, vals, []types.Type{ty, ty, ty})...)
	fields := splitImages(payload)
	rows := fields[1]
	var recs []*value.Record
	var tys []types.Type
	if err := DecodeReply(fields, func(_ int, v value.Value, ty types.Type) {
		recs, tys = append(recs, v.(*value.Record)), append(tys, ty)
	}); err != nil {
		t.Fatal(err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	start := uintptr(unsafe.Pointer(unsafe.SliceData(rows)))
	inRows := func(s string) bool { return len(s) > 0 && addr(s) >= start && addr(s) < start+uintptr(len(rows)) }
	inPayload := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
		return len(s) > 0 && addr(s) >= p && addr(s) < p+uintptr(len(payload))
	}
	for i, r := range recs {
		atom := string(r.MustGet("ReplyOwnName").(value.String))
		tag := string(r.MustGet("ReplyOwnTags").(*value.List).Elems[0].(value.String))
		if atom != names[i] || !inRows(atom) || !inRows(tag) {
			t.Errorf("record %d: string atoms %q, %q are not substrings of the rows field", i, atom, tag)
		}
		if want := start + uintptr(bytes.Index(rows, []byte(atom))); addr(atom) != want {
			t.Errorf("record %d: atom at %#x, want %#x in the rows field", i, addr(atom), want)
		}
	}
	var walk func(ty types.Type)
	walk = func(ty types.Type) {
		switch tt := ty.(type) {
		case *types.Record:
			for _, f := range tt.Fields() {
				if inPayload(f.Label) {
					t.Errorf("type label %q holds the reply's bytes", f.Label)
				}
				walk(f.Type)
			}
		case *types.List:
			walk(tt.Elem)
		}
	}
	for _, ty := range tys {
		walk(ty)
	}
	for _, l := range recs[0].Labels() {
		if inPayload(l) {
			t.Errorf("record label %q holds the reply's bytes", l)
		}
	}
}

// allocBytes is the bytes the process allocates while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplySlabBound: a reply whose rows differ, a list of many small
// records and then many strings, reserves slabs for what its rows hold,
// not for the bytes its strings take. It allocates no more than twice what
// the one-shot decoder does for the rows' tagged images.
func TestReplySlabBound(t *testing.T) {
	vals, wits := mixedReply(t, 2000, 1000, 1<<10)
	fields := splitImages(joinImages(writeReply(t, vals, wits)...))
	imgs, err := refRows(fields)
	if err != nil {
		t.Fatal(err)
	}
	oneShot := allocBytes(func() {
		for _, img := range imgs {
			if _, _, err := DecodeTagged(img); err != nil {
				t.Fatal(err)
			}
		}
	})
	reply := allocBytes(func() {
		if err := DecodeReply(fields, func(int, value.Value, types.Type) {}); err != nil {
			t.Fatal(err)
		}
	})
	if reply > 2*oneShot {
		t.Errorf("the reply decoder allocated %d bytes, the one-shot decoder %d", reply, oneShot)
	}
	t.Logf("reply %d bytes, one-shot %d bytes", reply, oneShot)
}

// TestDynamicSeesEnclosingRecord: a dynamic's value may refer back to the
// record around it, which the dynamic's check reads as decoded so far.
// outer = {A = 1, D = dynamic({X = outer} : {X: {A: Int}})} decodes one-shot
// and in a reply, its cycle closed, though D is not yet set at the check.
func TestDynamicSeesEnclosingRecord(t *testing.T) {
	outer := value.Rec("A", value.Int(1))
	inner, err := dynamic.MakeAt(value.Rec("X", outer), types.MustParse("{X: {A: Int}}"))
	if err != nil {
		t.Fatal(err)
	}
	outer.Set("D", inner)
	img, err := AppendTagged(nil, outer, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(how string, v value.Value) {
		r := v.(*value.Record)
		x := r.MustGet("D").(*dynamic.Dynamic).Value().(*value.Record).MustGet("X")
		if x != v || !value.Equal(r.MustGet("A"), value.Int(1)) {
			t.Errorf("%s: decoded %v, want the cycle back to the outer record", how, v)
		}
	}
	v, _, err := DecodeTagged(img)
	if err != nil {
		t.Fatalf("DecodeTagged: %v", err)
	}
	check("DecodeTagged", v)
	w := value.TypeOf(outer)
	fields := writeReply(t, []value.Value{outer, outer}, []types.Type{w, w})
	if err := DecodeReply(fields, func(_ int, v value.Value, _ types.Type) { check("DecodeReply", v) }); err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
}

// boxAtoms are atoms a reply boxes in its slabs, and around them atoms Go
// boxes without an allocation: Ints at and past the edges of 0–255, the
// Floats whose == differs from value.Equal, and an empty and a long
// String.
func boxAtoms() []value.Value {
	return []value.Value{
		value.Int(0), value.Int(255), value.Int(256), value.Int(-1),
		value.Int(math.MinInt64), value.Int(math.MaxInt64),
		value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(0.625),
		value.String(""), value.String(strings.Repeat("long atom ", 400)),
		value.Bool(true),
	}
}

// atomReply is the reply of boxAtoms, each atom a row of its own at its
// type and then all of them the fields of one record and the elements of
// one list.
func atomReply(tb testing.TB) [][]byte {
	atoms := boxAtoms()
	rec := value.NewRecord()
	for i, a := range atoms {
		rec.Set(fmt.Sprintf("F%02d", i), a)
	}
	vals := append(slices.Clone(atoms), rec, value.NewList(atoms...))
	wits := make([]types.Type, len(vals))
	for i, v := range vals {
		wits[i] = value.TypeOf(v)
	}
	return writeReply(tb, vals, wits)
}

// atomsOf appends the Int, Float, String and Bool atoms v reaches to out,
// in the order the encoder writes them, each container visited once.
func atomsOf(v value.Value, seen map[value.Value]bool, out []value.Value) []value.Value {
	switch vv := v.(type) {
	case value.Int, value.Float, value.String, value.Bool:
		return append(out, v)
	case *value.Record, *value.List, *value.Set, *value.Tag, *dynamic.Dynamic:
		if seen[v] {
			return out
		}
		seen[v] = true
		switch vv := vv.(type) {
		case *value.Record:
			vv.Each(func(_ string, f value.Value) { out = atomsOf(f, seen, out) })
		case *value.List:
			for _, el := range vv.Elems {
				out = atomsOf(el, seen, out)
			}
		case *value.Set:
			vv.Each(func(el value.Value) { out = atomsOf(el, seen, out) })
		case *value.Tag:
			out = atomsOf(vv.Payload, seen, out)
		case *dynamic.Dynamic:
			out = atomsOf(vv.Value(), seen, out)
		}
	}
	return out
}

// sameAtom reports why the atom got, decoded from a reply, is not the
// atom want as a conversion boxes it, or "" when it is: the same dynamic
// type, a type switch and an assertion yielding the same bits, == (NaN
// aside), value.Equal, value.AppendKey, use as a map key, and the same
// text through fmt and reflect.
func sameAtom(got, want value.Value) string {
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		return fmt.Sprintf("dynamic type %T, want %T", got, want)
	}
	bits := func(v value.Value) string {
		switch a := v.(type) {
		case value.Int:
			return fmt.Sprint("int ", int64(a))
		case value.Float:
			return fmt.Sprint("float ", math.Float64bits(float64(a)))
		case value.String:
			return "string " + string(a)
		case value.Bool:
			return fmt.Sprint("bool ", bool(a))
		}
		return "none"
	}
	if bits(got) != bits(want) {
		return fmt.Sprintf("type switch gives %s, want %s", bits(got), bits(want))
	}
	var ok bool
	switch want.(type) {
	case value.Int:
		_, ok = got.(value.Int)
	case value.Float:
		_, ok = got.(value.Float)
	case value.String:
		_, ok = got.(value.String)
	case value.Bool:
		_, ok = got.(value.Bool)
	}
	if !ok {
		return "the assertion to its type fails"
	}
	nan := want != want
	if !nan && (got != want || !(want == got)) {
		return "== fails"
	}
	if !value.Equal(got, want) || !value.Equal(want, got) {
		return "value.Equal fails"
	}
	if !bytes.Equal(value.AppendKey(nil, got), value.AppendKey(nil, want)) {
		return "value.AppendKey differs"
	}
	if m := map[value.Value]int{want: 1}; !nan && m[got] != 1 {
		return "a map keyed by the fresh atom misses it"
	}
	if m := map[value.Value]int{got: 1}; !nan && m[want] != 1 {
		return "a map keyed by it misses the fresh atom"
	}
	for _, format := range []string{"%v", "%+v", "%#v", "%T", "%q", "%x"} {
		if g, w := fmt.Sprintf(format, got), fmt.Sprintf(format, want); g != w {
			return fmt.Sprintf("fmt %s prints %s, want %s", format, g, w)
		}
	}
	rg, rw := reflect.ValueOf(got), reflect.ValueOf(want)
	if rg.Kind() != rw.Kind() || rg.String() != rw.String() || fmt.Sprint(rg.Interface()) != fmt.Sprint(rw.Interface()) {
		return fmt.Sprintf("reflect reads %v, want %v", rg, rw)
	}
	if !nan && !reflect.DeepEqual(got, want) {
		return "reflect.DeepEqual fails"
	}
	return ""
}

// TestReplyAtomsBox: every atom a reply decodes, as a row of its own and
// as a field of a record and an element of a list, is the atom a
// conversion boxes (sameAtom), and it stays so when nothing but the atoms
// is kept from the reply across collections.
func TestReplyAtomsBox(t *testing.T) {
	want := boxAtoms()
	var got []value.Value
	fields := atomReply(t)
	if err := DecodeReply(fields, func(_ int, v value.Value, _ types.Type) {
		got = atomsOf(v, map[value.Value]bool{}, got)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*len(want) {
		t.Fatalf("decoded %d atoms, want %d", len(got), 3*len(want))
	}
	check := func(when string) {
		t.Helper()
		for i, g := range got {
			w := want[i%len(want)]
			if why := sameAtom(g, w); why != "" {
				t.Errorf("%s: atom %d (%#v): %s", when, i, w, why)
			}
		}
	}
	check("decoded")
	fields = nil
	runtime.GC()
	runtime.GC()
	check("after the reply is dropped and collected")
}

// TestBoxAllocatesNothing: boxing an atom in a slab element allocates
// nothing, whatever the atom.
func TestBoxAllocatesNothing(t *testing.T) {
	i, f, s := value.Int(math.MinInt64), value.Float(math.NaN()), value.String("atom")
	var sink value.Value
	if n := testing.AllocsPerRun(100, func() {
		sink = box(&i)
		sink = box(&f)
		sink = box(&s)
	}); n != 0 {
		t.Fatalf("box allocates %v times a run, want 0", n)
	}
	if sink != value.Value(s) {
		t.Fatalf("box(&s) = %#v, want %#v", sink, s)
	}
}
