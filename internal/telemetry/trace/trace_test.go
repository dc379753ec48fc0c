package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := New(42, "PUT")
	commit := tr.Start(0, "commit")
	stage := tr.Start(commit, "stage")
	time.Sleep(time.Millisecond)
	tr.End(stage)
	tr.End(commit)
	tr.Finish()

	d := tr.Data()
	if d.ID != 42 || d.Op != "PUT" {
		t.Fatalf("got ID=%d Op=%q", d.ID, d.Op)
	}
	if len(d.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(d.Spans))
	}
	if d.Spans[0].Parent != NoSpan || d.Spans[1].Parent != 0 || d.Spans[2].Parent != 1 {
		t.Fatalf("bad parents: %+v", d.Spans)
	}
	if d.Spans[2].Dur <= 0 {
		t.Fatalf("stage span has no duration: %+v", d.Spans[2])
	}
	// Nesting invariant: a child's interval lies within its parent's.
	for i, s := range d.Spans {
		if s.Parent == NoSpan {
			continue
		}
		p := d.Spans[s.Parent]
		if s.Start < p.Start || s.Start+s.Dur > p.Start+p.Dur {
			t.Fatalf("span %d [%v,%v] escapes parent [%v,%v]",
				i, s.Start, s.Start+s.Dur, p.Start, p.Start+p.Dur)
		}
	}
}

func TestTraceAddExplicitInterval(t *testing.T) {
	tr := New(7, "PUT")
	start := time.Now()
	end := start.Add(3 * time.Millisecond)
	tr.Add(0, "fsync", start, end)
	tr.Finish()
	d := tr.Data()
	if len(d.Spans) != 2 || d.Spans[1].Name != "fsync" {
		t.Fatalf("spans: %+v", d.Spans)
	}
	if d.Spans[1].Dur != 3*time.Millisecond {
		t.Fatalf("dur = %v, want 3ms", d.Spans[1].Dur)
	}
	// Inverted interval is clamped, not negative.
	tr2 := New(8, "PUT")
	tr2.Add(0, "bad", end, start)
	if got := tr2.Data().Spans[1].Dur; got != 0 {
		t.Fatalf("inverted interval dur = %v, want 0", got)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if id := tr.Start(0, "x"); id != NoSpan {
		t.Fatalf("nil Start = %d, want NoSpan", id)
	}
	tr.End(0)
	tr.End(NoSpan)
	tr.Add(0, "x", time.Now(), time.Now())
	tr.SetLink(9)
	tr.Finish()
	if tr.ID() != 0 {
		t.Fatal("nil ID != 0")
	}
	if d := tr.Data(); d.ID != 0 || len(d.Spans) != 0 {
		t.Fatalf("nil Data = %+v", d)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := New(1, "X")
	for i := 0; i < maxSpans+10; i++ {
		tr.Start(0, "s")
	}
	if got := len(tr.Data().Spans); got != maxSpans {
		t.Fatalf("span count %d, want cap %d", got, maxSpans)
	}
	// End on an out-of-range ID from a dropped Start must not panic.
	tr.End(SpanID(maxSpans + 5))
}

func TestSampler(t *testing.T) {
	if NewSampler(0).Sample(NextID()) {
		t.Fatal("rate 0 sampled")
	}
	all := NewSampler(1)
	if !all.Sample(NextID()) || all.Sample(0) {
		t.Fatal("rate 1 must keep every non-zero ID and never ID 0")
	}
	// A fractional rate keeps roughly that share of uniform IDs.
	half := NewSampler(0.5)
	kept := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if half.Sample(NextID()) {
			kept++
		}
	}
	if kept < n*4/10 || kept > n*6/10 {
		t.Fatalf("rate 0.5 kept %d/%d", kept, n)
	}
	// Determinism: both ends of a replication link make the same call.
	id := NextID()
	if half.Sample(id) != half.Sample(id) {
		t.Fatal("sampler not deterministic")
	}
}

func TestNextIDNonZeroDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NextID()
		if id == 0 || seen[id] {
			t.Fatalf("NextID collision or zero: %d", id)
		}
		seen[id] = true
	}
}

func dataAt(id uint64, at time.Time) Data {
	return Data{ID: id, Op: "OP", Begin: at}
}

func TestRingForcedRetention(t *testing.T) {
	r := NewRing(4)
	base := time.Now()
	if !r.Record(dataAt(1, base), true) {
		t.Fatal("forced record dropped on empty ring")
	}
	// A flood of ordinary traces turns the ring over…
	for i := uint64(2); i < 50; i++ {
		r.Record(dataAt(i, base.Add(time.Duration(i))), false)
	}
	// …but the forced entry survives.
	found := false
	for _, d := range r.Snapshot() {
		if d.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("forced trace displaced by ordinary traffic")
	}
}

func TestRingAllForced(t *testing.T) {
	r := NewRing(2)
	base := time.Now()
	r.Record(dataAt(1, base), true)
	r.Record(dataAt(2, base.Add(1)), true)
	// Ordinary trace has nowhere to go.
	if r.Record(dataAt(3, base.Add(2)), false) {
		t.Fatal("ordinary trace displaced a forced entry")
	}
	// A newer forced trace displaces the oldest forced entry.
	if !r.Record(dataAt(4, base.Add(3)), true) {
		t.Fatal("forced trace dropped")
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != 4 || snap[1].ID != 2 {
		t.Fatalf("snapshot after forced displacement: %+v", snap)
	}
}

func TestRingSnapshotNewestFirst(t *testing.T) {
	r := NewRing(8)
	base := time.Now()
	for i := uint64(1); i <= 5; i++ {
		r.Record(dataAt(i, base.Add(time.Duration(i))), false)
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Begin.After(snap[i-1].Begin) {
			t.Fatalf("snapshot not newest-first: %+v", snap)
		}
	}
}

// TestRingConcurrentForced is the -race stress for the satellite: many
// writers racing ordinary and forced records must never lose a
// force-retained entry while forced count ≤ capacity.
func TestRingConcurrentForced(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		forcedPer = 2 // 16 forced total, ring capacity 32
	)
	r := NewRing(32)
	var wg sync.WaitGroup
	base := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				forced := i < forcedPer
				r.Record(dataAt(id, base.Add(time.Duration(id))), forced)
			}
		}(w)
	}
	wg.Wait()
	forcedIDs := map[uint64]bool{}
	for w := 0; w < writers; w++ {
		for i := 0; i < forcedPer; i++ {
			forcedIDs[uint64(w*perWriter+i+1)] = true
		}
	}
	snap := r.Snapshot()
	if len(snap) != 32 {
		t.Fatalf("ring holds %d of %d records, want its 32 slots full", len(snap), writers*perWriter)
	}
	kept := 0
	for _, d := range snap {
		if forcedIDs[d.ID] {
			kept++
		}
	}
	if kept != writers*forcedPer {
		t.Fatalf("lost forced traces: kept %d of %d", kept, writers*forcedPer)
	}
}

// TestEncodeDecodeRoundTrip: a linked trace with nested spans and the
// reply's facts survives its JSON, the TRACES reply field, exactly; a
// trace with no reply facts leaves their keys out.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := New(0xdeadbeef, "PUT")
	tr.SetLink(0xfeed)
	c := tr.Start(0, "commit")
	tr.Start(c, "fsync")
	tr.End(c)
	tr.Finish()
	d := tr.Data()
	for _, key := range []string{"session", "bytes", "err"} {
		if b, _ := json.Marshal(d); strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("a trace with no %s encodes the key: %s", key, b)
		}
	}
	d.Session, d.Bytes, d.Err = "127.0.0.1:5000", 42, "io"

	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var got Data
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || got.Link != d.Link || got.Op != d.Op ||
		got.Session != d.Session || got.Bytes != d.Bytes || got.Err != d.Err {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if !got.Begin.Equal(d.Begin) {
		t.Fatalf("begin mismatch: %v vs %v", got.Begin, d.Begin)
	}
	if len(got.Spans) != len(d.Spans) {
		t.Fatalf("span count %d vs %d", len(got.Spans), len(d.Spans))
	}
	for i := range d.Spans {
		if got.Spans[i] != d.Spans[i] {
			t.Fatalf("span %d: %+v vs %+v", i, got.Spans[i], d.Spans[i])
		}
	}
}

// TestDecodeMalformed: bad bytes, and a span whose parent lies outside
// its trace, do not unmarshal into a Data.
func TestDecodeMalformed(t *testing.T) {
	good, err := json.Marshal(New(1, "GET").Data())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             nil,
		"bad magic":         {'X', 1},
		"bad version":       {'T', 99},
		"binary v1":         {'T', 1, 1, 0, 3, 'G', 'E', 'T', 2, 0},
		"truncated":         good[:len(good)-1],
		"trailing":          append(append([]byte{}, good...), 0),
		"parent past spans": []byte(`{"id":1,"op":"X","spans":[{"name":"a","parent":5}]}`),
		"parent below root": []byte(`{"id":1,"op":"X","spans":[{"name":"a","parent":-2}]}`),
		"parent overflow":   []byte(`{"spans":[{"name":"a","parent":4294967296}]}`),
	}
	for name, b := range cases {
		if err := json.Unmarshal(b, new(Data)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if err := json.Unmarshal(good, new(Data)); err != nil {
		t.Fatalf("valid trace failed to decode: %v", err)
	}
}

func TestWriteText(t *testing.T) {
	tr := New(0xabc, "PUT")
	tr.SetLink(0x123)
	c := tr.Start(0, "commit")
	tr.Start(c, "fsync")
	tr.End(c)
	tr.Finish()
	d := tr.Data()
	d.Session, d.Bytes, d.Err = "127.0.0.1:5000", 42, "io"
	var sb strings.Builder
	WriteText(&sb, d)
	out := sb.String()
	for _, want := range []string{"0000000000000abc", "PUT", "link=0000000000000123",
		"session=127.0.0.1:5000 bytes=42", "err=io", "commit", "fsync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// fsync is indented deeper than commit.
	lines := strings.Split(out, "\n")
	var commitIndent, fsyncIndent int
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		switch {
		case strings.HasPrefix(trimmed, "commit"):
			commitIndent = len(l) - len(trimmed)
		case strings.HasPrefix(trimmed, "fsync"):
			fsyncIndent = len(l) - len(trimmed)
		}
	}
	if fsyncIndent <= commitIndent {
		t.Fatalf("fsync not nested under commit:\n%s", out)
	}
}
