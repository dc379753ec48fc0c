package intrinsic

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// Byte values of the grammars this package no longer reads, spelled out
// here because nothing else in the package names them.
const (
	oldRootTable byte = 'R' // a whole root table, as versions 1 and 2 wrote
	oldVersion1  byte = 1   // no checksum after the commit marker
	oldVersion2  byte = 2   // checksummed, 'R' or 'D' root records
	oldVersion3  byte = 3   // a type image in place of every ordinal
)

// imageEntry writes one root-table entry binding name to an Int as
// versions 1 to 3 did: the declared type's whole image inline.
func imageEntry(t testing.TB, b *nodeBuf, name string, x int64) {
	b.str(name)
	if err := b.typ(types.Int); err != nil {
		t.Fatal(err)
	}
	start := b.Len()
	if err := encodeInline(b, value.Int(x), nil); err != nil {
		t.Fatal(err)
	}
	b.prefixLen(start)
}

// v1LogImage handcrafts a version-1 log holding one committed root x = 7,
// byte for byte what the first store wrote.
func v1LogImage(t testing.TB) []byte {
	var b nodeBuf
	b.WriteString(logMagic)
	b.WriteByte(oldVersion1)
	b.WriteByte(oldRootTable)
	b.uvarint(1)
	imageEntry(t, &b, "x", 7)
	b.WriteByte(recCommit)
	return b.Bytes()
}

// v2RootTableLogImage handcrafts a version-2 log whose one checksummed
// group carries a whole 'R' root table — what the store wrote before root
// deltas existed.
func v2RootTableLogImage(t testing.TB) []byte {
	var log bytes.Buffer
	log.WriteString(logMagic)
	log.WriteByte(oldVersion2)
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(oldRootTable)
		b.uvarint(1)
		imageEntry(t, b, "x", 7)
	})
	return log.Bytes()
}

// v3LogImage handcrafts a version-3 log, byte for byte what the store
// wrote before type ordinals: two groups binding x to 1 and then 2, each
// entry with Int's image inline.
func v3LogImage(t testing.TB) []byte {
	var log bytes.Buffer
	log.WriteString(logMagic)
	log.WriteByte(oldVersion3)
	for x := int64(1); x <= 2; x++ {
		logGroup(&log, func(b *nodeBuf) {
			b.WriteByte(recRootDelta)
			b.uvarint(1)
			imageEntry(t, b, "x", x)
			b.uvarint(0)
		})
	}
	return log.Bytes()
}

// futureLogImage is a current log relabelled with a version this build has
// never heard of.
func futureLogImage(t testing.TB) []byte {
	img := seedLogWithRootDeltas(t)
	img[len(logMagic)] = 9
	return img
}

// TestOldLogVersionsRefused: a log of any version but the current one is
// refused with a typed *LogVersionError by Open, OpenFS, Fsck and Salvage,
// and none of them writes a byte — the source stays identical and Salvage
// creates no destination.
func TestOldLogVersionsRefused(t *testing.T) {
	for _, tc := range []struct {
		name    string
		img     []byte
		version byte
	}{
		{"v1", v1LogImage(t), 1},
		{"v2 with root table", v2RootTableLogImage(t), 2},
		{"v3", v3LogImage(t), 3},
		{"v9", futureLogImage(t), 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "old.log")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			refused := func(op string, err error) {
				t.Helper()
				var ve *LogVersionError
				if !errors.Is(err, ErrLogVersion) || !errors.As(err, &ve) || ve.Found != tc.version {
					t.Fatalf("%s = %v, want a LogVersionError naming version %d", op, err, tc.version)
				}
			}
			s, err := Open(path)
			if err == nil {
				s.Close()
			}
			refused("Open", err)
			s, err = OpenFS(iofault.NewInjector(iofault.OS{}), path)
			if err == nil {
				s.Close()
			}
			refused("OpenFS", err)
			rep, err := Fsck(path)
			if rep != nil {
				t.Fatalf("Fsck returned a report for a refused log: %+v", rep)
			}
			refused("Fsck", err)
			dst := filepath.Join(dir, "salvaged.log")
			_, err = Salvage(path, dst)
			refused("Salvage", err)

			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.img) {
				t.Fatalf("source changed: %d bytes, %v (was %d bytes)", len(got), err, len(tc.img))
			}
			if _, err := os.Stat(dst); !os.IsNotExist(err) {
				t.Fatalf("Salvage wrote %s: %v", dst, err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil || len(entries) != 1 {
				t.Fatalf("directory holds %v, %v; want only the source", entries, err)
			}
		})
	}
}
