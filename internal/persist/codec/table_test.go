package codec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// labelledImage returns the image of the record type {<label>: Int} and
// the canonical type it decodes to.
func labelledImage(t testing.TB, label string) ([]byte, types.Type) {
	t.Helper()
	ty := types.NewRecord(types.Field{Label: label, Type: types.Int})
	img, err := AppendType(nil, ty)
	if err != nil {
		t.Fatal(err)
	}
	return img, types.Canon(ty)
}

// tableEntries returns the entries the type table holds and the image
// bytes they retain.
func tableEntries() (entries, bytes int) {
	for i := range typeTable {
		if e := typeTable[i].Load(); e != nil {
			entries++
			bytes += len(e.img)
		}
	}
	return entries, bytes
}

// TestTypeTableConcurrent: goroutines decoding type images the others
// decode too, and images only they decode, through DecodeType,
// DecodeTagged and DecodeReply, each get the canonical type, pointer for
// pointer, and a reply its row. Run it under -race: the distinct images
// outnumber the slots, so stores replace one another while other
// goroutines load the slots, and replies compile an entry's record
// program while others read it.
func TestTypeTableConcurrent(t *testing.T) {
	const goroutines, shared, own = 8, 32, 400
	type image struct {
		img, tagged []byte
		reply       [][]byte
		val         value.Value
		want        types.Type
	}
	mk := func(label string) image {
		img, want := labelledImage(t, label)
		v := value.Rec(label, value.Int(1000))
		return image{img, append(img[:len(img):len(img)], vBottom), writeReply(t, []value.Value{v}, []types.Type{want}), v, want}
	}
	common := make([]image, shared)
	for i := range common {
		common[i] = mk(fmt.Sprintf("shared%d", i))
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		mine := make([]image, own)
		for i := range mine {
			mine[i] = mk(fmt.Sprintf("g%d_%d", g, i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i, m := range mine {
					for _, im := range []image{m, common[(i+g+round)%shared]} {
						got, err := DecodeType(im.img)
						if err != nil || got != im.want {
							t.Errorf("DecodeType: %v (%v), want the canonical %s", got, err, im.want)
							return
						}
						if _, got, err = DecodeTagged(im.tagged); err != nil || got != im.want {
							t.Errorf("DecodeTagged: %v (%v), want the canonical %s", got, err, im.want)
							return
						}
						if err := DecodeReply(im.reply, func(_ int, v value.Value, ty types.Type) {
							if ty != im.want || !value.Equal(v, im.val) {
								t.Errorf("DecodeReply: %v at %s, want %v at the canonical %s", v, ty, im.val, im.want)
							}
						}); err != nil {
							t.Errorf("DecodeReply: %v", err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTypeTableBounded: after 100 000 distinct type images the table holds
// at most typeSlots entries and typeSlots × typeImageMax image bytes, and
// an image longer than typeImageMax bytes decodes but is never stored.
func TestTypeTableBounded(t *testing.T) {
	const distinct = 100_000
	for i := range distinct {
		img, want := labelledImage(t, fmt.Sprintf("l%d", i))
		if got, err := DecodeType(img); err != nil || got != want {
			t.Fatalf("image %d: %v (%v), want the canonical %s", i, got, err, want)
		}
	}
	entries, bytes := tableEntries()
	t.Logf("after %d distinct images: %d entries, %d image bytes", distinct, entries, bytes)
	if entries > typeSlots || bytes > typeSlots*typeImageMax {
		t.Errorf("the table holds %d entries and %d image bytes, want <= %d and <= %d", entries, bytes, typeSlots, typeSlots*typeImageMax)
	}

	long, want := labelledImage(t, strings.Repeat("x", typeImageMax))
	if len(long)-headerLen <= typeImageMax {
		t.Fatalf("a %d-byte type image is not over the %d-byte cap", len(long)-headerLen, typeImageMax)
	}
	for range 2 {
		if got, err := DecodeType(long); err != nil || got != want {
			t.Fatalf("an over-cap image: %v (%v), want the canonical %s", got, err, want)
		}
	}
	for i := range typeTable {
		if e := typeTable[i].Load(); e != nil && e.img == string(long[headerLen:]) {
			t.Fatalf("slot %d holds a %d-byte image, over the %d-byte cap", i, len(e.img), typeImageMax)
		}
	}
}

// TestTypeTableCollision: two type images that hash to one slot replace
// each other there, and decoded in turn each still gives its own canonical
// type.
func TestTypeTableCollision(t *testing.T) {
	bySlot := map[int]int{}
	var a, b int
	for i := 0; ; i++ {
		img, _ := labelledImage(t, fmt.Sprintf("c%d", i))
		slot := typeSlot(img[headerLen:])
		if j, ok := bySlot[slot]; ok {
			a, b = j, i
			break
		}
		bySlot[slot] = i
	}
	imgA, wantA := labelledImage(t, fmt.Sprintf("c%d", a))
	imgB, wantB := labelledImage(t, fmt.Sprintf("c%d", b))
	slot := &typeTable[typeSlot(imgA[headerLen:])]
	for round := range 4 {
		for _, c := range []struct {
			img  []byte
			want types.Type
		}{{imgA, wantA}, {imgB, wantB}} {
			got, err := DecodeType(c.img)
			if err != nil || got != c.want {
				t.Fatalf("round %d: %v (%v), want the canonical %s", round, got, err, c.want)
			}
			if e := slot.Load(); e == nil || e.img != string(c.img[headerLen:]) || e.t != c.want {
				t.Fatalf("round %d: the shared slot does not hold the image decoded last", round)
			}
		}
	}
}
