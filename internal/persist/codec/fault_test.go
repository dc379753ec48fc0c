package codec

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Fault injection: a decoder fed arbitrarily corrupted images must either
// return an error or a value — never panic, hang, or allocate absurdly.

// corpusImages returns (untagged, tagged) images of random values.
func corpusImages(t *testing.T) (plain, tagged [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		v := genValue(rng, 4)
		img, err := MarshalValue(v)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, img)
		timg, err := MarshalTagged(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		tagged = append(tagged, timg)
	}
	return plain, tagged
}

// decodeSafely decodes img and, if differential, decodes it as a tagged
// image and as a type image through the type table, expecting the plain
// decoder's outcome (sameThroughTable). The table is shared across
// corrupted images, which is where a corruption whose type bytes hit a
// stored image would show.
func decodeSafely(t *testing.T, differential bool, img []byte, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s: decoder panicked: %v", what, r)
			}
			close(done)
		}()
		_, _ = UnmarshalValue(img)
		_, _, _ = UnmarshalTagged(img)
		if differential {
			sameThroughTable(t, img, decodeTagged)
			sameThroughTable(t, img, decodeTypeImage)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: decoder hung", what)
	}
}

func TestBitFlipsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	plain, tagged := corpusImages(t)
	for _, img := range append(plain, tagged...) {
		for trial := 0; trial < 50; trial++ {
			mut := append([]byte(nil), img...)
			// Flip 1–3 random bits.
			for k := 0; k < 1+rng.Intn(3); k++ {
				i := rng.Intn(len(mut))
				mut[i] ^= 1 << rng.Intn(8)
			}
			decodeSafely(t, true, mut, "bitflip")
		}
	}
}

func TestRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		img := make([]byte, n)
		rng.Read(img)
		decodeSafely(t, false, img, "garbage")
	}
	// Garbage behind a valid header.
	for trial := 0; trial < 100; trial++ {
		img := append([]byte("DBPL\x01"), make([]byte, rng.Intn(64))...)
		rng.Read(img[5:])
		decodeSafely(t, false, img, "garbage-with-header")
	}
}

func TestByteTruncationAndExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	plain, tagged := corpusImages(t)
	for _, img := range append(append([][]byte(nil), plain...), tagged...) {
		// Random truncations.
		for trial := 0; trial < 25; trial++ {
			cut := rng.Intn(len(img))
			decodeSafely(t, true, img[:cut], "truncation")
		}
		// Trailing junk after a valid image must not panic the decoder.
		withJunk := append(append([]byte(nil), img...), 0xFF, 0x00, 0x13)
		decodeSafely(t, true, withJunk, "extension")
	}
	// A clean untagged prefix with junk after it still decodes: the junk is
	// simply unread stream.
	for _, img := range plain {
		withJunk := append(append([]byte(nil), img...), 0xFF, 0x00, 0x13)
		if _, err := UnmarshalValue(withJunk[:len(img)]); err != nil {
			t.Errorf("clean prefix failed to decode: %v", err)
		}
	}
}

func TestHugeCountsRejected(t *testing.T) {
	// The type table holds a valid image when the table decodes run.
	if _, err := DecodeType(nestedImage(nil, 0, tRecord, 1, 1, 'A', tInt)); err != nil {
		t.Fatal(err)
	}
	// A list claiming 2^40 elements, and a record type claiming as many
	// fields, must be rejected by the count guard, not attempted.
	if _, err := UnmarshalValue(nestedImage(nil, 0, vList, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)); err == nil {
		t.Error("huge count accepted")
	}
	hugeRecord := nestedImage(nil, 0, tRecord, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	for _, decode := range []imageDecode{decodeTypeImage, decodeTagged} {
		if _, _, err := decode(hugeRecord, false); !errors.Is(err, ErrLimitExceeded) {
			t.Errorf("a record type claiming 2^40 fields through a table: %v, want ErrLimitExceeded", err)
		}
	}

	// A string claiming 128 MiB inside a 16-byte image fails on its length,
	// before anything is allocated for its bytes: a string value one-shot,
	// and a label in a type image through the table.
	for _, c := range []struct {
		name string
		img  []byte
		f    func([]byte) error
	}{
		{"string value", nestedImage(nil, 0, vString, 0x80, 0x80, 0x80, 0x40, 'a', 'b', 'c', 'd', 'e', 'f'), func(img []byte) error {
			_, err := UnmarshalValue(img)
			return err
		}},
		{"label through a table", nestedImage(nil, 0, tRecord, 1, 0x80, 0x80, 0x80, 0x40, 'a', 'b', 'c', 'd', 'e'), func(img []byte) error {
			_, err := DecodeType(img)
			return err
		}},
	} {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := c.f(c.img); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: %d-byte image claiming 1<<27 bytes: %v, want ErrCorrupt", c.name, len(c.img), err)
			}
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 1<<10 {
			t.Errorf("%s: refusing a 1<<27-byte claim allocated %d bytes, want < 1 KiB", c.name, perRun)
		}
	}
}
