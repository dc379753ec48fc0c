package intrinsic

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dbpl/internal/value"
)

// This file checks that staging by digest writes exactly the node records
// that comparing images wrote: a node whose image changed since its last
// record, and no other.

// digestHistory drives a primary through generated binds, in-place
// mutations, restores, shared sub-values, commits and batches, and keeps
// the log's own fold of node images to check each durable boundary
// against.
type digestHistory struct {
	t      *testing.T
	rng    *rand.Rand
	p, f   *Store
	images map[uint64][]byte // the last image the log holds of each OID
	end    int64             // how much of the log images has folded
	pool   []value.Value     // sub-values bound so far, to share again
}

// record is a fresh record with a list child, or one sharing a sub-value
// bound before.
func (h *digestHistory) record() *value.Record {
	var sub value.Value = value.NewList(value.Int(int64(h.rng.Intn(4))))
	if len(h.pool) > 0 && h.rng.Intn(2) == 0 {
		sub = h.pool[h.rng.Intn(len(h.pool))]
	} else {
		h.pool = append(h.pool, sub)
	}
	return value.Rec("A", value.Int(int64(h.rng.Intn(4))), "Sub", sub)
}

// bound returns a bound root's record, or nil when none is bound.
func (h *digestHistory) bound() *value.Record {
	names := h.p.Names()
	if len(names) == 0 {
		return nil
	}
	r, _ := h.p.Root(names[h.rng.Intn(len(names))])
	rec, _ := r.Value.(*value.Record)
	return rec
}

func (h *digestHistory) name() string { return string(rune('a' + h.rng.Intn(5))) }

// mutate changes a bound record in place, as only a walk of every root
// finds: its A field, or its Sub to a sub-value bound elsewhere.
func (h *digestHistory) mutate(rec *value.Record) {
	if h.rng.Intn(3) == 0 && len(h.pool) > 0 {
		rec.Set("Sub", h.pool[h.rng.Intn(len(h.pool))])
		return
	}
	rec.Set("A", value.Int(int64(h.rng.Intn(4))))
}

func (h *digestHistory) must(_ any, err error) {
	h.t.Helper()
	if err != nil {
		h.t.Fatal(err)
	}
}

// step applies one generated operation, up to and including the durable
// boundary that ends it, and reports its name.
func (h *digestHistory) step() string {
	switch h.rng.Intn(7) {
	case 0: // bind or unbind, then Commit
		if h.rng.Intn(4) == 0 {
			h.p.Unbind(h.name())
		} else if err := h.p.Bind(h.name(), h.record(), nil); err != nil {
			h.t.Fatal(err)
		}
		h.must(h.p.Commit())
		return "bind"
	case 1: // mutate in place, then Commit
		if rec := h.bound(); rec != nil {
			h.mutate(rec)
		}
		h.must(h.p.Commit())
		return "mutate"
	case 2: // restore across two commits: A → B, then back to A
		rec := h.bound()
		if rec == nil {
			return "restore (none)"
		}
		a, _ := rec.Get("A")
		rec.Set("A", value.Int(a.(value.Int)+10))
		h.must(h.p.Commit())
		h.check("restore, changed")
		rec.Set("A", a)
		h.must(h.p.Commit())
		return "restore"
	case 3: // restore inside one batch: the second group diffs against the first
		rec := h.bound()
		if rec == nil {
			return "batch restore (none)"
		}
		a, _ := rec.Get("A")
		rec.Set("A", value.Int(a.(value.Int)+10))
		h.must(h.p.StageCommit())
		if h.rng.Intn(2) == 0 {
			h.must(h.p.StageCommit()) // a group that changes nothing
		}
		rec.Set("A", a)
		h.must(h.p.StageCommit())
		h.must(h.p.SyncBatch())
		return "batch restore"
	case 4: // share a bound root's sub-value into another root
		rec := h.bound()
		if rec == nil {
			return "share (none)"
		}
		sub, _ := rec.Get("Sub")
		if err := h.p.Bind(h.name(), value.Rec("A", value.Int(9), "Sub", sub), nil); err != nil {
			h.t.Fatal(err)
		}
		h.must(h.p.StageBound())
		h.must(h.p.SyncBatch())
		return "share"
	case 5: // a batch of bound stages
		for g := 1 + h.rng.Intn(3); g > 0; g-- {
			if h.rng.Intn(4) == 0 {
				h.p.Unbind(h.name())
			} else if err := h.p.Bind(h.name(), h.record(), nil); err != nil {
				h.t.Fatal(err)
			}
			h.must(h.p.StageBound())
		}
		h.must(h.p.SyncBatch())
		return "bound batch"
	default: // a batch mixing mutations and binds, every group walking all
		for g := 1 + h.rng.Intn(3); g > 0; g-- {
			if rec := h.bound(); rec != nil && h.rng.Intn(2) == 0 {
				h.mutate(rec)
			} else if err := h.p.Bind(h.name(), h.record(), nil); err != nil {
				h.t.Fatal(err)
			}
			h.must(h.p.StageCommit())
		}
		h.must(h.p.SyncBatch())
		return "walked batch"
	}
}

// check runs at a durable boundary. Each node record the groups since the
// last check appended must differ from the image its OID had before, and
// after them every node the primary's roots reach must encode to the last
// image of its OID, so that no changed node went unwritten. The primary, a
// follower fed the groups by ApplyGroup and a reopened copy must each
// remember exactly those images' digests (checkLifecycle).
func (h *digestHistory) check(op string) {
	t := h.t
	t.Helper()
	raw, err := os.ReadFile(h.p.Path())
	if err != nil {
		t.Fatal(err)
	}
	groups := raw[h.end:h.p.DurableEnd()]
	var recs []int
	sum := scanRaw(groups, scanSink{
		node: func(at int) { recs = append(recs, at) },
		commit: func(int64) {
			for _, at := range recs {
				oid, img := nodeAt(groups, at)
				if prev, ok := h.images[oid]; ok && bytes.Equal(prev, img) {
					t.Fatalf("%s: node %d was written with the image it already had", op, oid)
				}
				h.images[oid] = img
			}
			recs = recs[:0]
		},
	})
	if sum.corrupt != nil || sum.torn {
		t.Fatalf("%s: the new groups scan to %+v", op, sum)
	}
	h.end = h.p.DurableEnd()

	h.checkEncodings(op)
	checkLifecycle(t, h.p)
	catchUp(t, h.p, h.f)
	checkLifecycle(t, h.f)
	checkLifecycle(t, openCopy(t, h.p.Path()))
}

// checkEncodings asserts that every node the primary's roots reach
// encodes to the last image the log holds of its OID.
func (h *digestHistory) checkEncodings(op string) {
	t := h.t
	t.Helper()
	h.p.mu.Lock()
	defer h.p.mu.Unlock()
	defer h.p.sc.reset()
	var b nodeBuf
	for _, v := range h.p.reach(h.p.namesLocked()) {
		oid := h.p.oids[v]
		b.Reset()
		if err := encodeNode(&b, v, h.p, TransientPrefix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), h.images[oid]) {
			t.Fatalf("%s: node %d encodes to %x, the log's last image of it is %x", op, oid, b.Bytes(), h.images[oid])
		}
	}
}

// TestDigestStagingWritesWhatImagesWould is the quick-check that
// comparing digests writes exactly the node records comparing images
// would, over seeded histories on a primary, its follower and a reopened
// copy.
func TestDigestStagingWritesWhatImagesWould(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			p, err := OpenFS(unsynced{}, filepath.Join(dir, "primary.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			f, err := OpenFS(unsynced{}, filepath.Join(dir, "follower.log"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			h := &digestHistory{t: t, rng: rand.New(rand.NewSource(seed)), p: p, f: f,
				images: map[uint64][]byte{}, end: HeaderSize}
			for i := 0; i < 80; i++ {
				h.check(fmt.Sprintf("step %d (%s)", i, h.step()))
			}
		})
	}
}
