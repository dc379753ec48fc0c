package intrinsic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"dbpl/internal/types"
	"dbpl/internal/value"
)

// logGroup appends one commit group (records + 'C' + CRC-32C) to log.
func logGroup(log *bytes.Buffer, records func(b *nodeBuf)) {
	var b nodeBuf
	records(&b)
	b.WriteByte(recCommit)
	var tr [checksumSize]byte
	binary.LittleEndian.PutUint32(tr[:], crc32.Checksum(b.Bytes(), crcTable))
	b.Write(tr[:])
	log.Write(b.Bytes())
}

// intEntry writes one root-table entry binding name to an Int.
func intEntry(t testing.TB, b *nodeBuf, name string, x int64) {
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

// seedLogWithIndexGroup builds a well-formed log whose second commit group
// carries an index-definition table — a seed for the log fuzzer,
// exercising the 'X' grammar after a root delta.
func seedLogWithIndexGroup(t testing.TB) []byte {
	var log bytes.Buffer
	log.WriteString(logMagic)
	log.WriteByte(logVersion)
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(recRootDelta)
		b.uvarint(1)
		intEntry(t, b, "x", 7)
		b.uvarint(0)
	})
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(recIndex)
		b.uvarint(2)
		b.str("Empno")
		b.str("Dept")
	})
	return log.Bytes()
}

// seedLogWithRootDeltas builds a well-formed log of three 'D' groups: a
// first delta against the empty table, one with both halves, and one with
// deletes only.
func seedLogWithRootDeltas(t testing.TB) []byte {
	var log bytes.Buffer
	log.WriteString(logMagic)
	log.WriteByte(logVersion)
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(recRootDelta)
		b.uvarint(2)
		intEntry(t, b, "x", 7)
		intEntry(t, b, "y", 8)
		b.uvarint(0)
	})
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(recRootDelta)
		b.uvarint(1)
		intEntry(t, b, "z", 9)
		b.uvarint(1)
		b.str("x")
	})
	logGroup(&log, func(b *nodeBuf) {
		b.WriteByte(recRootDelta)
		b.uvarint(0)
		b.uvarint(2)
		b.str("y")
		b.str("never bound")
	})
	return log.Bytes()
}

// FuzzScanLog is the structural reader's contract under arbitrary bytes:
// scanLog never panics, returns no error on an in-memory reader but a
// *LogVersionError for a header of another version, and its verdict is
// coherent — goodEnd within the input, corruption and
// torn-tail reports never pointing past it, and replay (sink callbacks)
// confined to validated groups.
func FuzzScanLog(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(logMagic))
	f.Add(append([]byte(logMagic), logVersion))
	seed := seedLogWithIndexGroup(f)
	f.Add(seed)
	// Torn inside the index-definition record.
	f.Add(seed[:len(seed)-checksumSize-2])
	// One flipped bit inside the index group: must read as corruption.
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-checksumSize-3] ^= 0x40
	f.Add(flipped)
	// An actually-unknown record kind after a valid group.
	f.Add(append(append([]byte(nil), seed...), 'Z', 0, 0))
	// Root deltas: intact, torn inside the last group's delete list, and
	// with one bit flipped in the middle group's upsert.
	deltas := seedLogWithRootDeltas(f)
	f.Add(deltas)
	f.Add(deltas[:len(deltas)-checksumSize-4])
	flippedDelta := append([]byte(nil), deltas...)
	flippedDelta[len(flippedDelta)/2] ^= 0x40
	f.Add(flippedDelta)
	// Refused headers: the retired versions' own logs, and a future one.
	f.Add(v1LogImage(f))
	f.Add(v2RootTableLogImage(f))
	f.Add(futureLogImage(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		commits := 0
		lastCommitEnd := int64(0)
		sum, err := scanLog(bytes.NewReader(data), scanSink{
			node:      func(uint64, []byte) {},
			roots:     func(rootOp) {},
			indexDefs: func([]string) {},
			commit: func(end int64) {
				commits++
				lastCommitEnd = end
			},
		})
		var ve *LogVersionError
		if errors.As(err, &ve) {
			if len(data) <= len(logMagic) || data[len(logMagic)] != ve.Found || ve.Found == logVersion || commits != 0 {
				t.Fatalf("version refusal %v for header %q after %d commits", err, data[:min(len(data), int(HeaderSize))], commits)
			}
			return
		}
		if err != nil {
			t.Fatalf("scanLog returned an I/O error on in-memory input: %v", err)
		}
		if sum.goodEnd < 0 || sum.goodEnd > int64(len(data)) {
			t.Fatalf("goodEnd %d outside input of %d bytes", sum.goodEnd, len(data))
		}
		if sum.commits != commits {
			t.Fatalf("summary commits %d != sink commits %d", sum.commits, commits)
		}
		if commits > 0 && lastCommitEnd > sum.goodEnd {
			t.Fatalf("commit callback fired at %d past goodEnd %d", lastCommitEnd, sum.goodEnd)
		}
		if sum.corrupt != nil && (sum.corrupt.Offset < 0 || sum.corrupt.Offset > int64(len(data))) {
			t.Fatalf("corruption offset %d outside input", sum.corrupt.Offset)
		}
	})
}

// TestScanLogIndexSeeds pins the exact classification of the fuzz seeds,
// so the properties FuzzScanLog checks loosely are verified sharply here:
// the index group parses (named, not "unknown record"), tears are torn,
// and bit rot is corruption.
func TestScanLogIndexSeeds(t *testing.T) {
	seed := seedLogWithIndexGroup(t)

	var defs []string
	sum, err := scanLog(bytes.NewReader(seed), scanSink{
		indexDefs: func(fields []string) { defs = fields },
	})
	if err != nil || sum.corrupt != nil || sum.torn {
		t.Fatalf("clean seed misclassified: err=%v sum=%+v", err, sum)
	}
	if sum.commits != 2 || len(defs) != 2 || defs[0] != "Empno" {
		t.Fatalf("index group not replayed: commits=%d defs=%v", sum.commits, defs)
	}

	sum, _ = scanLog(bytes.NewReader(seed[:len(seed)-checksumSize-2]), scanSink{})
	if sum.corrupt != nil || !sum.torn || sum.commits != 1 {
		t.Fatalf("torn index group: %+v", sum)
	}

	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-checksumSize-3] ^= 0x40
	sum, _ = scanLog(bytes.NewReader(flipped), scanSink{})
	if sum.corrupt == nil {
		t.Fatalf("bit rot in index group not detected: %+v", sum)
	}
}

// TestScanLogRootDeltaSeeds pins the classification of the 'D' seeds at
// every byte: the intact log folds to the one surviving root, a tear
// anywhere is a torn tail ending on a group boundary, and a flip anywhere
// past the header is never applied — corruption, or a length that now
// overruns the input and reads as torn.
func TestScanLogRootDeltaSeeds(t *testing.T) {
	seed := seedLogWithRootDeltas(t)
	var fold groupFold
	sum, err := scanLog(bytes.NewReader(seed), fold.sink(nil))
	if err != nil || sum.corrupt != nil || sum.torn || sum.commits != 3 {
		t.Fatalf("clean seed misclassified: err=%v sum=%+v", err, sum)
	}
	if _, ok := fold.upserts["z"]; !ok || len(fold.upserts) != 1 {
		t.Fatalf("three deltas fold to %v, want only z", fold.upserts)
	}

	var ends []int64
	scanLog(bytes.NewReader(seed), scanSink{commit: func(end int64) { ends = append(ends, end) }})
	boundary := func(off int64) bool {
		for _, e := range ends {
			if e == off {
				return true
			}
		}
		return off == HeaderSize
	}
	for cut := HeaderSize; cut < int64(len(seed)); cut++ {
		sum, _ := scanLog(bytes.NewReader(seed[:cut]), scanSink{})
		if sum.corrupt != nil || !boundary(sum.goodEnd) || sum.torn != !boundary(cut) {
			t.Fatalf("torn at %d: %+v", cut, sum)
		}
	}
	for at := HeaderSize; at < int64(len(seed)); at++ {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0xFF
		var damaged groupFold
		sum, _ := scanLog(bytes.NewReader(flipped), damaged.sink(nil))
		if sum.corrupt == nil && !sum.torn {
			t.Fatalf("flip at %d went undetected: %+v", at, sum)
		}
		if sum.goodEnd > at || !boundary(sum.goodEnd) {
			t.Fatalf("flip at %d: valid prefix %d reaches the damage", at, sum.goodEnd)
		}
	}
}
