package intrinsic

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// FuzzApplyGroup feeds a follower one mutated commit group after a prefix
// of a primary's history: primaryFixture's, continued by a library writer
// that binds a second handle to the value a first holds, then in one batch
// unbinds both and binds a third to it, so that one of its groups names a
// node the follower holds and a later one a node it dropped, and both are
// replayed. The first byte picks how many of the history's groups the
// follower holds first; the seeds are its groups, each at its own place,
// and groups that name type ordinals well and badly. The harness rewrites
// the input's CRC-32C trailer, so a mutation reaches the decoder, the
// materializer and the conformance check instead of stopping at the
// checksum. ApplyGroup must not panic; it
// succeeds or refuses with a typed error, and a refusal leaves the
// committed table as it was, and the durable end too — unless the group
// was appended and its replay refused, which poisons the store.
func FuzzApplyGroup(f *testing.F) {
	p, _ := primaryFixture(f)
	fixture := len(splitGroups(f, allGroups(f, p)))
	emps, _ := p.Root("emps")
	if err := p.Bind("twin", emps.Value, nil); err != nil {
		f.Fatal(err)
	}
	if _, err := p.Commit(); err != nil {
		f.Fatal(err)
	}
	p.Unbind("emps")
	p.Unbind("twin")
	if _, err := p.StageBound(); err != nil {
		f.Fatal(err)
	}
	if err := p.Bind("moved", emps.Value, nil); err != nil {
		f.Fatal(err)
	}
	if _, err := p.StageBound(); err != nil {
		f.Fatal(err)
	}
	if _, err := p.SyncBatch(); err != nil {
		f.Fatal(err)
	}
	groups := splitGroups(f, allGroups(f, p))
	for i, g := range groups {
		f.Add(uint8(i), g)
	}
	// Type ordinals: a fresh follower's group defining the types it names
	// in all three places; one naming an ordinal no 'T' record defines;
	// and the fixture's last group after its first only, whose ordinals
	// count the 'T' record of the group the follower never applied.
	typed := seedLogWithTypes(f)
	f.Add(uint8(0), splitGroups(f, typed[HeaderSize:])[0])
	f.Add(uint8(0), splitGroups(f, badOrdinalLogs(f)[0].log[HeaderSize:])[1])
	f.Add(uint8(1), groups[fixture-1])
	f.Fuzz(func(t *testing.T, at uint8, g []byte) {
		fol, err := Open(filepath.Join(t.TempDir(), "follower.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer fol.Close()
		for _, prev := range groups[:int(at)%len(groups)] {
			if _, err := fol.ApplyGroup(prev); err != nil {
				t.Fatal(err)
			}
		}
		if len(g) > checksumSize {
			body := len(g) - checksumSize
			g = append([]byte(nil), g...)
			binary.LittleEndian.PutUint32(g[body:], crc32.Checksum(g[:body], crcTable))
		}
		end, committed := fol.DurableEnd(), fol.Committed()
		delta, err := fol.ApplyGroup(g)
		if err == nil {
			if delta.End != fol.DurableEnd() || (len(g) > 0 && delta.End != end+int64(len(g))) {
				t.Fatalf("applied %d bytes at %d: delta ends at %d, store at %d", len(g), end, delta.End, fol.DurableEnd())
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadGroup) && !errors.Is(err, ErrNotConforming) {
			t.Fatalf("ApplyGroup refused with an untyped error: %v", err)
		}
		if fol.Committed() != committed {
			t.Fatalf("refused group (%v) replaced the committed table", err)
		}
		if fol.DurableEnd() != end {
			if _, perr := fol.ApplyGroup(nil); !errors.Is(perr, ErrPoisoned) {
				t.Fatalf("refused group (%v) moved the durable end %d → %d without poisoning the store", err, end, fol.DurableEnd())
			}
		}
	})
}
