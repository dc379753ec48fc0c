package intrinsic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbpl/internal/dynamic"
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

// typeRecord writes a 'T' record defining the next ordinal as typ.
func typeRecord(t testing.TB, b *nodeBuf, typ types.Type) {
	b.WriteByte(recType)
	if err := b.typ(typ); err != nil {
		t.Fatal(err)
	}
}

// intEntry writes one root-table entry binding name to an Int, naming
// Int's type by ordinal 0: the seeds' first group defines it.
func intEntry(t testing.TB, b *nodeBuf, name string, x int64) {
	b.str(name)
	b.uvarint(0)
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
		typeRecord(t, b, types.Int)
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
		typeRecord(t, b, types.Int)
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

// seedLogWithTypes is a log a store writes for roots that name types in
// each of the three places: a declared type, a dynamic node's type and a
// type atom. Its second group names the first group's types again and
// defines one more.
func seedLogWithTypes(t testing.TB) []byte {
	path := filepath.Join(t.TempDir(), "types.log")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	commit := func() error { _, err := s.Commit(); return err }
	step(s.Bind("d", dynamic.Make(value.Rec("A", value.Int(1))), nil))
	step(s.Bind("t", value.NewTypeVal(types.MustParse("{A: Int}")), nil))
	step(commit())
	step(s.Bind("d2", dynamic.Make(value.Rec("A", value.Int(2))), nil))
	step(s.Bind("x", value.Int(7), nil))
	step(commit())
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// badOrdinalLog is a log naming a type ordinal that no 'T' record of a
// valid group defines before it, and the offset of that ordinal.
type badOrdinalLog struct {
	name string
	log  []byte
	at   int64
}

// badOrdinalLogs builds one badOrdinalLog for each place an ordinal is
// named. Each log's first group defines Int as ordinal 0 and binds x to
// it; its second names ordinal 1 or more.
func badOrdinalLogs(t testing.TB) []badOrdinalLog {
	// rootNaming writes a 'D' binding y to ordinal id and returns where
	// the ordinal is.
	rootNaming := func(b *nodeBuf, id uint64) int {
		b.WriteByte(recRootDelta)
		b.uvarint(1)
		b.str("y")
		pos := b.Len()
		b.uvarint(id)
		start := b.Len()
		encodeInline(b, value.String("s"), nil)
		b.prefixLen(start)
		b.uvarint(0)
		return pos
	}
	var out []badOrdinalLog
	for _, c := range []struct {
		name  string
		group func(b *nodeBuf) int // writes the records, returns where the ordinal is
	}{
		{"root entry", func(b *nodeBuf) int { return rootNaming(b, 1) }},
		{"defined after its use", func(b *nodeBuf) int {
			pos := rootNaming(b, 1)
			typeRecord(t, b, types.String)
			return pos
		}},
		{"dynamic node", func(b *nodeBuf) int {
			b.WriteByte(recNode)
			b.uvarint(0)
			b.uvarint(3)
			b.WriteByte(inDynamic)
			pos := b.Len()
			b.uvarint(5)
			b.WriteByte(inUnit)
			return pos
		}},
		{"type atom", func(b *nodeBuf) int {
			b.WriteByte(recRootDelta)
			b.uvarint(1)
			b.str("y")
			b.uvarint(0)
			b.uvarint(2)
			b.WriteByte(inTypeVal)
			pos := b.Len()
			b.uvarint(3)
			b.uvarint(0)
			return pos
		}},
	} {
		var log bytes.Buffer
		log.WriteString(logMagic)
		log.WriteByte(logVersion)
		logGroup(&log, func(b *nodeBuf) {
			typeRecord(t, b, types.Int)
			b.WriteByte(recRootDelta)
			b.uvarint(1)
			intEntry(t, b, "x", 7)
			b.uvarint(0)
		})
		at := int64(log.Len())
		logGroup(&log, func(b *nodeBuf) { at += int64(c.group(b)) })
		out = append(out, badOrdinalLog{c.name, log.Bytes(), at})
	}
	return out
}

// FuzzScanLog is the structural reader's contract under arbitrary bytes:
// scanLog never panics, returns no error on an in-memory reader but a
// *LogVersionError for a header of another version, and its verdict is
// coherent — goodEnd within the input, corruption and
// torn-tail reports never pointing past it, and replay (sink callbacks)
// and the type table confined to validated groups.
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
	f.Add(v3LogImage(f))
	// Type ordinals: a store's log naming types in all three places, one
	// naming an ordinal no 'T' record defines, and one whose 'T' record is
	// in a torn group that a later group names.
	f.Add(seedLogWithTypes(f))
	f.Add(badOrdinalLogs(f)[0].log)
	torn, naming := tornTypeLog(f)
	f.Add(append(torn, naming...))

	f.Fuzz(func(t *testing.T, data []byte) {
		commits := 0
		finalCommitEnd := int64(0)
		var tab []types.Type
		sum, err := scanLog(data, scanSink{
			types:     &tab,
			node:      func(int) {},
			roots:     func(rootOp) {},
			indexDefs: func([]string) {},
			commit: func(end int64) {
				commits++
				finalCommitEnd = end
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
		if commits > 0 && finalCommitEnd > sum.goodEnd {
			t.Fatalf("commit callback fired at %d past goodEnd %d", finalCommitEnd, sum.goodEnd)
		}
		if sum.corrupt != nil && (sum.corrupt.Offset < 0 || sum.corrupt.Offset > int64(len(data))) {
			t.Fatalf("corruption offset %d outside input", sum.corrupt.Offset)
		}
		var valid []types.Type
		scanLog(data[:sum.goodEnd], scanSink{types: &valid})
		if len(tab) != len(valid) {
			t.Fatalf("the scan's type table holds %d types, its valid groups define %d", len(tab), len(valid))
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
	sum, err := scanLog(seed, scanSink{
		indexDefs: func(fields []string) { defs = fields },
	})
	if err != nil || sum.corrupt != nil || sum.torn {
		t.Fatalf("clean seed misclassified: err=%v sum=%+v", err, sum)
	}
	if sum.commits != 2 || len(defs) != 2 || defs[0] != "Empno" {
		t.Fatalf("index group not replayed: commits=%d defs=%v", sum.commits, defs)
	}

	sum, _ = scanLog(seed[:len(seed)-checksumSize-2], scanSink{})
	if sum.corrupt != nil || !sum.torn || sum.commits != 1 {
		t.Fatalf("torn index group: %+v", sum)
	}

	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-checksumSize-3] ^= 0x40
	sum, _ = scanLog(flipped, scanSink{})
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
	sum, err := scanLog(seed, fold.sink(nil))
	if err != nil || sum.corrupt != nil || sum.torn || sum.commits != 3 {
		t.Fatalf("clean seed misclassified: err=%v sum=%+v", err, sum)
	}
	if _, ok := fold.upserts["z"]; !ok || len(fold.upserts) != 1 {
		t.Fatalf("three deltas fold to %v, want only z", fold.upserts)
	}

	var ends []int64
	scanLog(seed, scanSink{commit: func(end int64) { ends = append(ends, end) }})
	boundary := func(off int64) bool {
		for _, e := range ends {
			if e == off {
				return true
			}
		}
		return off == HeaderSize
	}
	for cut := HeaderSize; cut < int64(len(seed)); cut++ {
		sum, _ := scanLog(seed[:cut], scanSink{})
		if sum.corrupt != nil || !boundary(sum.goodEnd) || sum.torn != !boundary(cut) {
			t.Fatalf("torn at %d: %+v", cut, sum)
		}
	}
	for at := HeaderSize; at < int64(len(seed)); at++ {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0xFF
		var damaged groupFold
		sum, _ := scanLog(flipped, damaged.sink(nil))
		if sum.corrupt == nil && !sum.torn {
			t.Fatalf("flip at %d went undetected: %+v", at, sum)
		}
		if sum.goodEnd > at || !boundary(sum.goodEnd) {
			t.Fatalf("flip at %d: valid prefix %d reaches the damage", at, sum.goodEnd)
		}
	}
}

// tornTypeLog splits badOrdinalLogs' root-entry log after its first
// group and returns that prefix with a torn group behind it — a 'T'
// record defining String as ordinal 1, cut before its commit marker —
// and the rest, the group that names ordinal 1. The 'T' defines nothing;
// appended without trimming the tail, the naming group fails its
// checksum.
func tornTypeLog(t testing.TB) (torn, naming []byte) {
	bad := badOrdinalLogs(t)[0].log
	end := HeaderSize + int64(len(splitGroups(t, bad[HeaderSize:])[0]))
	var log nodeBuf
	log.Write(bad[:end])
	typeRecord(t, &log, types.String)
	return log.Bytes(), bad[end:]
}

// TestTypeOrdinalsResolveInFileOrder: an ordinal no earlier 'T' record
// of a valid group defines is corruption at the ordinal's offset, for
// scanLog, Fsck, Open and ApplyGroup alike, whether a root entry, a
// dynamic node or a type atom names it; a refused ApplyGroup moves
// nothing. A 'T' record in a torn group defines nothing: the scan's table
// holds the valid groups' types only, and a group naming the torn one's
// ordinal is refused.
func TestTypeOrdinalsResolveInFileOrder(t *testing.T) {
	for _, c := range badOrdinalLogs(t) {
		t.Run(c.name, func(t *testing.T) {
			var tab []types.Type
			sum, err := scanLog(c.log, scanSink{types: &tab})
			if err != nil || sum.corrupt == nil || sum.corrupt.Offset != c.at || sum.commits != 1 {
				t.Fatalf("scanLog = %+v, %v; want corruption at offset %d after 1 commit", sum, err, c.at)
			}
			if len(tab) != 1 {
				t.Fatalf("scan left %d types, want the valid group's 1", len(tab))
			}
			path := filepath.Join(t.TempDir(), "bad.log")
			if err := os.WriteFile(path, c.log, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Fsck(path)
			if err != nil || rep.Corrupt == nil || rep.Corrupt.Offset != c.at || rep.Types != 1 {
				t.Fatalf("Fsck = %+v, %v; want 1 type and corruption at offset %d", rep, err, c.at)
			}
			var ce *CorruptError
			if _, err := Open(path); !errors.As(err, &ce) || ce.Offset != c.at {
				t.Fatalf("Open = %v, want corruption at offset %d", err, c.at)
			}

			f, err := Open(filepath.Join(t.TempDir(), "follower.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			groups := splitGroups(t, c.log[HeaderSize:len(c.log)])
			if _, err := f.ApplyGroup(groups[0]); err != nil {
				t.Fatal(err)
			}
			end, committed := f.DurableEnd(), f.Committed()
			if _, err := f.ApplyGroup(groups[1]); !errors.As(err, &ce) || ce.Offset != c.at {
				t.Fatalf("ApplyGroup = %v, want corruption at offset %d", err, c.at)
			}
			if f.DurableEnd() != end || f.Committed() != committed || len(f.types) != 1 {
				t.Fatalf("refused group moved the follower: end %d → %d, %d types", end, f.DurableEnd(), len(f.types))
			}
		})
	}

	t.Run("torn", func(t *testing.T) {
		torn, naming := tornTypeLog(t)
		var tab []types.Type
		sum, _ := scanLog(append(torn[:len(torn):len(torn)], naming...), scanSink{types: &tab})
		if sum.corrupt == nil || sum.commits != 1 || len(tab) != 1 {
			t.Fatalf("scan of a group after a torn 'T' = %+v with %d types, want corruption after 1 commit and 1 type", sum, len(tab))
		}
		tab = nil
		if sum, _ := scanLog(torn, scanSink{types: &tab}); !sum.torn || len(tab) != 1 {
			t.Fatalf("scan of a torn 'T' = %+v with %d types, want torn and 1 type", sum, len(tab))
		}
		// A store opened on the torn log defines String again when it
		// first names it, and reopens to what it wrote.
		path := filepath.Join(t.TempDir(), "torn.log")
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Bind("y", value.String("s"), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(path)
		if err != nil || !fsckClean(rep) || rep.Types != 2 || rep.Roots != 2 {
			t.Fatalf("after the append: %+v, %v; want clean, 2 types, 2 roots", rep, err)
		}
		if strings.Count(rep.String(), "2 types") != 1 {
			t.Fatalf("report does not print the type count:\n%s", rep)
		}
	})
}
