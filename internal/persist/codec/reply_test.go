package codec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"dbpl/internal/dynamic"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// splitImages cuts a fuzz payload into images as a frame holds its fields:
// each a uvarint length, then that many bytes. A prefix that does not fit
// makes the rest one image.
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

// joinImages is the payload splitImages cuts into imgs.
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
// compares by identity.
func structural(v value.Value, open map[value.Value]bool) bool {
	switch v.(type) {
	case *dynamic.Dynamic:
		return false
	case *value.Record, *value.List, *value.Set, *value.Tag:
	default:
		return true
	}
	if open[v] {
		return false
	}
	open[v] = true
	defer delete(open, v)
	ok := true
	switch vv := v.(type) {
	case *value.Record:
		vv.Each(func(_ string, f value.Value) { ok = ok && structural(f, open) })
	case *value.List:
		for _, el := range vv.Elems {
			ok = ok && structural(el, open)
		}
	case *value.Set:
		vv.Each(func(el value.Value) { ok = ok && structural(el, open) })
	case *value.Tag:
		ok = structural(vv.Payload, open)
	}
	return ok
}

// replySeeds are replies of several records sharing witnesses: nested
// records, lists, a shared sub-value, a cycle, a dynamic whose value
// refers back to the record around it, and labels out of order.
func replySeeds(tb testing.TB) [][]byte {
	shared := value.Rec("City", value.String("Oslo"))
	cyclic := value.Rec("Name", value.String("loop"))
	cyclic.Set("Self", cyclic)
	outer := value.Rec("A", value.Int(1))
	inner, err := dynamic.MakeAt(value.Rec("X", outer), types.MustParse("{X: {A: Int}}"))
	if err != nil {
		tb.Fatal(err)
	}
	outer.Set("D", inner)
	var imgs [][]byte
	for i, v := range []value.Value{
		value.Rec("Name", value.String("a"), "Id", value.Int(1)),
		value.Rec("Name", value.String("b"), "Id", value.Int(2), "Addr", shared, "Home", shared),
		value.Rec("Name", value.String("c"), "Id", value.Int(3)),
		value.Rec("Items", value.NewList(value.Rec("Sku", value.Int(1)), value.Rec("Sku", value.Int(2)))),
		value.NewSet(value.Rec("K", value.String("k"))),
		cyclic,
		outer,
	} {
		var decl types.Type
		if i == 5 {
			decl = types.MustParse("{Name: String}")
		}
		img, err := AppendTagged(nil, v, decl)
		if err != nil {
			tb.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	// A record whose value image repeats a label out of order: B, A, B.
	dup, err := AppendType(nil, types.MustParse("{A: Int}"))
	if err != nil {
		tb.Fatal(err)
	}
	dup = append(dup, vRecord, 3, 1, 'B', vInt, 2, 1, 'A', vInt, 4, 1, 'B', vInt, 6)
	return [][]byte{
		joinImages(mixedReply(tb, 64, 4, 256)...),
		joinImages(dup, imgs[0], dup),
		joinImages(imgs[:3]...),
		joinImages(imgs...),
		joinImages(imgs[5], imgs[6], imgs[0]),
		joinImages(imgs[0], []byte("DBPL\x01junk")),
	}
}

// mixedReply is a reply whose first image is a list of recs small records
// and whose other images, strs of them, are strings of size bytes.
func mixedReply(tb testing.TB, recs, strs, size int) [][]byte {
	elems := make([]value.Value, recs)
	for i := range elems {
		elems[i] = value.Rec("Sku", value.Int(int64(i)))
	}
	img, err := AppendTagged(nil, value.NewList(elems...), nil)
	if err != nil {
		tb.Fatal(err)
	}
	imgs := [][]byte{img}
	for i := 0; i < strs; i++ {
		img, err := AppendTagged(nil, value.String(strings.Repeat("s", size)), nil)
		if err != nil {
			tb.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	return imgs
}

// FuzzReplyDecode: a reply decodes through DecodeReply exactly as its
// images do one by one through the one-shot DecodeTagged. Both refuse the
// same image with the same class of error or accept every image, and then
// each image's witness is the same canonical type and its value
// re-encodes to the same bytes, and is value.Equal where Equal is decided
// by structure.
func FuzzReplyDecode(f *testing.F) {
	for _, seed := range replySeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		imgs := splitImages(payload)
		type decoded struct {
			v  value.Value
			ty types.Type
		}
		var got []decoded
		err := DecodeReply(imgs, func(i int, v value.Value, ty types.Type) {
			if i != len(got) {
				t.Fatalf("image %d decoded after %d images", i, len(got))
			}
			got = append(got, decoded{v, ty})
		})
		for i, img := range imgs {
			v, ty, werr := DecodeTagged(img)
			if werr != nil {
				if len(got) != i || errClass(err) != errClass(werr) {
					t.Fatalf("image %d: one-shot refuses with %v; the reply decoded %d images and returned %v", i, werr, len(got), err)
				}
				return
			}
			if i >= len(got) {
				t.Fatalf("image %d: one-shot decodes; the reply decoded %d images and returned %v", i, len(got), err)
			}
			if got[i].ty != ty {
				t.Fatalf("image %d: witness %s, one-shot canonical %s", i, got[i].ty, ty)
			}
			want, werr := AppendTagged(nil, v, ty)
			have, herr := AppendTagged(nil, got[i].v, got[i].ty)
			if errClass(werr) != errClass(herr) || !bytes.Equal(want, have) {
				t.Fatalf("image %d re-encodes to %x (%v), one-shot decode to %x (%v)", i, have, herr, want, werr)
			}
			if structural(v, map[value.Value]bool{}) && !value.Equal(got[i].v, v) {
				t.Fatalf("image %d decodes to %v, one-shot to %v", i, got[i].v, v)
			}
		}
		if err != nil {
			t.Fatalf("every image decodes one-shot; the reply returned %v", err)
		}
	})
}

// TestReplyStringsAndTypes: a reply's string atoms are substrings of its
// one copy of the images, not of the images themselves, and its types hold
// none of the copy's bytes, since a canonical type outlives the reply.
func TestReplyStringsAndTypes(t *testing.T) {
	// Labels no other test in the process uses, so the types decoded here
	// become canonical themselves.
	ty := types.MustParse("{ReplyOwnName: String, ReplyOwnTags: List[String], ReplyOwnSub: {ReplyOwnLeaf: Int}}")
	names := []string{"first-atom", "second-atom", "third-atom"}
	var imgs [][]byte
	for _, name := range names {
		v := value.Rec("ReplyOwnName", value.String(name),
			"ReplyOwnTags", value.NewList(value.String("tag")),
			"ReplyOwnSub", value.Rec("ReplyOwnLeaf", value.Int(1)))
		img, err := AppendTagged(nil, v, ty)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	// The images are fields of one buffer, as a frame's are.
	payload := joinImages(imgs...)
	imgs = splitImages(payload)
	var vals []*value.Record
	var tys []types.Type
	if err := DecodeReply(imgs, func(_ int, v value.Value, ty types.Type) {
		vals, tys = append(vals, v.(*value.Record)), append(tys, ty)
	}); err != nil {
		t.Fatal(err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	// The copy holds the images back to back, so the first atom's offset
	// in the first image places it.
	first := string(vals[0].MustGet("ReplyOwnName").(value.String))
	start := addr(first) - uintptr(bytes.Index(imgs[0], []byte(first)))
	end := start + uintptr(len(payload)-len(imgs)) // the images less their one-byte length prefixes
	inCopy := func(s string) bool { return len(s) > 0 && addr(s) >= start && addr(s) < end }
	inPayload := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(payload)))
		return len(s) > 0 && addr(s) >= p && addr(s) < p+uintptr(len(payload))
	}
	offset := 0
	for i, r := range vals {
		atom := string(r.MustGet("ReplyOwnName").(value.String))
		tag := string(r.MustGet("ReplyOwnTags").(*value.List).Elems[0].(value.String))
		if atom != names[i] || !inCopy(atom) || !inCopy(tag) || inPayload(atom) {
			t.Errorf("record %d: string atoms %q, %q are not substrings of the reply's copy", i, atom, tag)
		}
		if want := start + uintptr(offset+bytes.Index(imgs[i], []byte(atom))); addr(atom) != want {
			t.Errorf("record %d: atom at %#x, want %#x in the reply's copy", i, addr(atom), want)
		}
		offset += len(imgs[i])
	}
	var walk func(ty types.Type)
	walk = func(ty types.Type) {
		switch tt := ty.(type) {
		case *types.Record:
			for _, f := range tt.Fields() {
				if inCopy(f.Label) || inPayload(f.Label) {
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
	for _, l := range vals[0].Labels() {
		if inCopy(l) || inPayload(l) {
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

// TestReplySlabBound: a reply whose images differ, a list of many small
// records and then many strings, reserves slabs for what its images hold,
// not for the bytes its strings take. It allocates no more than twice what
// the one-shot decoder does for the same images.
func TestReplySlabBound(t *testing.T) {
	imgs := splitImages(joinImages(mixedReply(t, 2000, 1000, 1<<10)...))
	oneShot := allocBytes(func() {
		for _, img := range imgs {
			if _, _, err := DecodeTagged(img); err != nil {
				t.Fatal(err)
			}
		}
	})
	reply := allocBytes(func() {
		if err := DecodeReply(imgs, func(int, value.Value, types.Type) {}); err != nil {
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
	if err := DecodeReply([][]byte{img, img}, func(_ int, v value.Value, _ types.Type) { check("DecodeReply", v) }); err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
}
