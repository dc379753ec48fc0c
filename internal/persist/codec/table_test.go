package codec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
		for j := range typeTable[i] {
			if e := typeTable[i][j].Load(); e != nil {
				entries++
				bytes += len(e.img)
			}
		}
	}
	return entries, bytes
}

// sharingSet returns the images of k record types {c<i>: Int} that hash
// to one set of the type table and their canonical types, and empties
// that set.
func sharingSet(t *testing.T, k int) ([][]byte, []types.Type) {
	t.Helper()
	imgs := map[*[typeWays]atomic.Pointer[typeEntry]][][]byte{}
	want := map[*[typeWays]atomic.Pointer[typeEntry]][]types.Type{}
	for i := 0; ; i++ {
		img, ty := labelledImage(t, fmt.Sprintf("c%d", i))
		set := typeSet(img[headerLen:])
		imgs[set], want[set] = append(imgs[set], img), append(want[set], ty)
		if len(imgs[set]) == k {
			for j := range set {
				set[j].Store(nil)
			}
			return imgs[set], want[set]
		}
	}
}

// setHolds reports which of imgs the set they share holds.
func setHolds(imgs [][]byte) []bool {
	set := typeSet(imgs[0][headerLen:])
	held := make([]bool, len(imgs))
	for i, img := range imgs {
		for j := range set {
			if e := set[j].Load(); e != nil && e.img == string(img[headerLen:]) {
				held[i] = true
			}
		}
	}
	return held
}

// TestTypeTableConcurrent: goroutines decoding type images the others
// decode too, and images only they decode, through DecodeType,
// DecodeTagged and DecodeReply, each get the canonical type, pointer for
// pointer, and a reply its row. Run it under -race: the distinct images
// outnumber the entries, so stores replace one another while other
// goroutines load the sets, and replies compile an entry's record
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
// at most typeSets × typeWays entries and as many times typeImageMax
// image bytes, and an image longer than typeImageMax bytes decodes but is
// never stored.
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
	if max := typeSets * typeWays; entries > max || bytes > max*typeImageMax {
		t.Errorf("the table holds %d entries and %d image bytes, want <= %d and <= %d", entries, bytes, max, max*typeImageMax)
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
	if setHolds([][]byte{long})[0] {
		t.Fatalf("the table holds a %d-byte image, over the %d-byte cap", len(long)-headerLen, typeImageMax)
	}
}

// TestTypeTableCollision: of three type images that hash to one set, the
// two decoded last stay in it, and decoded in turn each still gives its
// own canonical type.
func TestTypeTableCollision(t *testing.T) {
	imgs, want := sharingSet(t, 3)
	for round := range 4 {
		for i := range imgs {
			got, err := DecodeType(imgs[i])
			if err != nil || got != want[i] {
				t.Fatalf("round %d: %v (%v), want the canonical %s", round, got, err, want[i])
			}
			prev := (i + len(imgs) - 1) % len(imgs)
			if held := setHolds(imgs); !held[i] || round+i > 0 && !held[prev] || held[3-i-prev] {
				t.Fatalf("round %d: after image %d the set holds %v, want it and the image decoded before it", round, i, held)
			}
		}
	}
}

// TestTypeTableSharedSetAllocs: two type images that hash to one set,
// decoded in turn once both are stored, cost no allocation: neither
// evicts the other.
func TestTypeTableSharedSetAllocs(t *testing.T) {
	imgs, _ := sharingSet(t, 2)
	decode := func() {
		for _, img := range imgs {
			if _, err := DecodeType(img); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("decoding two images of one set in turn costs %v allocations, want 0", n)
	}
}
