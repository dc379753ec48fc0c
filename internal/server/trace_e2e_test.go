package server_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dbpl/internal/server"
	"dbpl/internal/telemetry/trace"
)

// findSpan returns the index of the first span named name under parent
// (or anywhere when parent < 0), or -1.
func findSpan(d trace.Data, name string, parent trace.SpanID) int {
	for i, sp := range d.Spans {
		if sp.Name == name && (parent < 0 || sp.Parent == parent) {
			return i
		}
	}
	return -1
}

// assertNested fails unless every span's interval lies within its
// parent's — the tree invariant the whole feature rests on.
func assertNested(t *testing.T, d trace.Data) {
	t.Helper()
	for i, sp := range d.Spans {
		if i == 0 {
			continue
		}
		if sp.Parent < 0 || int(sp.Parent) >= len(d.Spans) {
			t.Fatalf("span %q has out-of-range parent %d", sp.Name, sp.Parent)
		}
		p := d.Spans[sp.Parent]
		if sp.Start < p.Start || sp.Start+sp.Dur > p.Start+p.Dur {
			t.Errorf("span %q [%v,%v] escapes parent %q [%v,%v]",
				sp.Name, sp.Start, sp.Start+sp.Dur, p.Name, p.Start, p.Start+p.Dur)
		}
	}
}

// TestTraceCommitSpans: in every durability mode a traced PUT's or
// CREATEINDEX's commit span has the one commit vocabulary as its
// children, in order and disjoint — lock-wait, stage, fsync, publish — so
// the children's total fits in the parent's duration. A traced GET
// records its one exec span. The store's
// fsync takes 2 ms, so the eight writers coalesce under group commit.
func TestTraceCommitSpans(t *testing.T) {
	all := []string{"lock-wait", "stage", "fsync", "publish"}
	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"per-commit", server.Config{}},
		{"group", server.Config{Durability: server.DurGroup}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.TraceSampleRate = 1
			h := bootSlowSync(t, filepath.Join(t.TempDir(), "store.log"), tc.cfg)
			c := dial(t, h, nil)

			const writers = 8
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = c.Put(fmt.Sprintf("w%d", i), emp(fmt.Sprintf("W%d", i), int64(i), "Ops"), employeeT)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			if _, err := c.Get(personT); err != nil {
				t.Fatal(err)
			}
			if created, err := c.CreateIndex("Dept"); err != nil || !created {
				t.Fatalf("CreateIndex = (%v, %v)", created, err)
			}

			ds, err := c.Traces()
			if err != nil {
				t.Fatal(err)
			}
			puts, gets, ddls := 0, 0, 0
			for _, d := range ds {
				assertNested(t, d)
				switch d.Op {
				case "PUT":
					puts++
					assertCommitSpans(t, d, all)
				case "CREATEINDEX":
					ddls++
					assertCommitSpans(t, d, all)
				case "GET":
					gets++
					assertGetSpans(t, d)
				}
			}
			if puts != writers || gets != 1 || ddls != 1 {
				t.Fatalf("retained %d PUT, %d GET and %d CREATEINDEX traces, want %d, 1 and 1", puts, gets, ddls, writers)
			}
		})
	}
}

// assertCommitSpans checks that d's commit span has exactly the children
// named in want, in that order, each starting no earlier than its
// predecessor ends.
func assertCommitSpans(t *testing.T, d trace.Data, want []string) {
	t.Helper()
	ci := findSpan(d, "commit", 0)
	if ci < 0 {
		t.Fatalf("%s trace %#x has no commit span: %+v", d.Op, d.ID, d.Spans)
	}
	var children []trace.Span
	for _, sp := range d.Spans {
		if sp.Parent == trace.SpanID(ci) {
			children = append(children, sp)
		}
	}
	if len(children) != len(want) {
		t.Fatalf("%s trace %#x commit children %+v, want %v", d.Op, d.ID, children, want)
	}
	var sum time.Duration
	for i, sp := range children {
		if sp.Name != want[i] {
			t.Fatalf("%s trace %#x commit child %d is %q, want %q: %+v", d.Op, d.ID, i, sp.Name, want[i], children)
		}
		if i > 0 {
			if prev := children[i-1]; sp.Start < prev.Start+prev.Dur {
				t.Errorf("trace %#x: %q starts at %v, before %q ends at %v",
					d.ID, sp.Name, sp.Start, prev.Name, prev.Start+prev.Dur)
			}
		}
		sum += sp.Dur
	}
	if commit := d.Spans[ci]; sum > commit.Dur {
		t.Errorf("trace %#x: children sum %v > commit span %v", d.ID, sum, commit.Dur)
	}
}

// assertGetSpans checks that a GET trace records its one read path: the
// root has exactly one child, the exec span.
func assertGetSpans(t *testing.T, d trace.Data) {
	t.Helper()
	var children []string
	for _, sp := range d.Spans {
		if sp.Parent == 0 {
			children = append(children, sp.Name)
		}
	}
	if len(children) != 1 || children[0] != "exec" {
		t.Fatalf("GET trace children = %v, want exactly [exec]: %+v", children, d.Spans)
	}
}

// TestTraceFollowerLink: a commit traced on the primary yields a linked
// REPL-APPLY trace on the follower (via the 6-field REPDATA form) and a
// positive commit-to-apply delay observation.
func TestTraceFollowerLink(t *testing.T) {
	dir := t.TempDir()
	hp := bootCfg(t, filepath.Join(dir, "primary.log"), nil,
		server.Config{TraceSampleRate: 1})
	hf := bootCfg(t, filepath.Join(dir, "follower.log"), nil, server.Config{
		Follow: hp.addr, ReplHeartbeat: 50 * time.Millisecond, TraceSampleRate: 1})
	cp := dial(t, hp, nil)

	var linked *trace.Data
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; linked == nil && time.Now().Before(deadline); i++ {
		if err := cp.Put(fmt.Sprintf("r%d", i), emp("R", int64(i), "Lab"), employeeT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		for _, d := range hf.srv.Traces() {
			if d.Op == "REPL-APPLY" && d.Link != 0 {
				linked = &d
				break
			}
		}
	}
	if linked == nil {
		t.Fatal("follower never recorded a linked REPL-APPLY trace")
	}
	assertNested(t, *linked)
	if findSpan(*linked, "apply", 0) < 0 || findSpan(*linked, "publish", 0) < 0 {
		t.Fatalf("apply trace lacks apply/publish spans: %+v", linked.Spans)
	}
	// The link is the primary's commit trace: the primary retained that
	// very tree.
	found := false
	for _, d := range hp.srv.Traces() {
		if d.ID == linked.Link && d.Op == "PUT" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("primary has no PUT trace with ID %#x (the follower's link)", linked.Link)
	}

	cf := dial(t, hf, nil)
	snap, err := cf.Stats()
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := snap.Histogram("dbpl_repl_apply_delay_seconds")
	if !ok || hist.Count == 0 {
		t.Fatalf("apply-delay histogram count = %d, want > 0", hist.Count)
	}
	if hist.Sum <= 0 {
		t.Errorf("apply-delay sum = %d ns, want positive (apply happens after commit)", hist.Sum)
	}
}

// TestTraceSamplingOff: the default configuration samples nothing, so
// the ring holds only slow requests (10 ms and past), each its root span
// alone, TRACES answers the same, and the request path carries only the
// nil-trace no-ops (the E20 overhead story).
func TestTraceSamplingOff(t *testing.T) {
	h := boot(t, filepath.Join(t.TempDir(), "store.log"))
	c := dial(t, h, nil)
	if err := c.Put("alice", emp("Alice", 1, "Sales"), employeeT); err != nil {
		t.Fatal(err)
	}
	ds, err := c.Traces()
	if err != nil || len(ds) != len(h.srv.Traces()) {
		t.Fatalf("Traces() = %d traces, err %v; want the server's %d", len(ds), err, len(h.srv.Traces()))
	}
	for _, d := range ds {
		if len(d.Spans) != 1 || d.Spans[0].Dur < 10*time.Millisecond {
			t.Errorf("sampling off, the ring holds %+v: want slow requests alone, each its root span", d)
		}
	}
}
