package telemetry

import (
	"bufio"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSnapshotCodecRefusesV1: the binary snapshots sent before JSON, at
// any version byte, do not unmarshal into a Snapshot; the current JSON
// does.
func TestSnapshotCodecRefusesV1(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	cur, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(cur, &s); err != nil {
		t.Fatalf("current JSON: %v", err)
	}
	for _, v := range []byte{0, 1, 2, 3} {
		b := []byte{'S', v, 1, 1, 1, 'c', 3, 0, 0}
		if err := json.Unmarshal(b, new(Snapshot)); err == nil {
			t.Errorf("binary version %d decoded without error", v)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	g := r.Gauge("inflight")
	h := r.Histogram("lat", UnitDuration, []int64{10, 100})
	c.Add(5)
	g.Set(2)
	h.Observe(50)
	prev := r.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(5)
	h.Observe(50)
	time.Sleep(time.Millisecond)
	cur := r.Snapshot()

	d := cur.Delta(prev)
	if !d.TakenAt.After(prev.TakenAt) {
		t.Fatal("delta TakenAt not current")
	}
	if v, _ := d.Counter("reqs"); v != 7 {
		t.Fatalf("counter delta = %d, want 7", v)
	}
	if v, _ := d.Gauge("inflight"); v != 9 {
		t.Fatalf("gauge in delta = %d, want current value 9", v)
	}
	dh, _ := d.Histogram("lat")
	if dh.Count != 2 || dh.Counts[0] != 1 || dh.Counts[1] != 1 || dh.Sum != 55 {
		t.Fatalf("histogram delta = %+v", dh)
	}

	// A counter that shrank (server restart) passes through whole.
	shrunk := &Snapshot{Counters: []NamedCounter{{Name: "reqs", Value: 3}}}
	if v, _ := cur.Delta(&Snapshot{Counters: []NamedCounter{{Name: "reqs", Value: 100}}}).Counter("reqs"); v != 12 {
		t.Fatalf("restart counter delta = %d, want full value 12", v)
	}
	_ = shrunk
	// A metric absent from prev passes through whole.
	if v, _ := cur.Delta(&Snapshot{}).Counter("reqs"); v != 12 {
		t.Fatalf("fresh counter delta = %d, want 12", v)
	}
}

// TestWritePromHelpAndBuckets is the satellite's parse-back test: the
// exposition carries # HELP/# TYPE for families with help text, each
// histogram's bucket series is cumulative-monotone, and the last bucket
// is le="+Inf" and equals _count.
func TestWritePromHelpAndBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("dbpl_lat_seconds", "request latency by opcode")
	for _, op := range []string{"GET", "PUT"} {
		h := r.Histogram(`dbpl_lat_seconds{op="`+op+`"}`, UnitDuration, DurationBuckets)
		for i := 0; i < 100; i++ {
			h.Observe(int64(i) * int64(time.Microsecond))
		}
	}
	r.Counter("dbpl_reqs_total").Add(4)
	r.SetHelp("dbpl_reqs_total", "requests served")

	var sb strings.Builder
	if err := r.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP dbpl_lat_seconds request latency by opcode\n# TYPE dbpl_lat_seconds histogram",
		"# HELP dbpl_reqs_total requests served\n# TYPE dbpl_reqs_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# HELP dbpl_lat_seconds"); n != 1 {
		t.Fatalf("HELP emitted %d times for one family, want 1", n)
	}

	// Parse the buckets back per series and assert the contract.
	type series struct {
		cums   []uint64
		sawInf bool
		count  uint64
	}
	got := map[string]*series{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable line %q", line)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			key := name[:strings.Index(name, "_bucket{")]
			labels := name[strings.Index(name, "{"):]
			op := ""
			if i := strings.Index(labels, `op="`); i >= 0 {
				op = labels[i+4 : i+4+strings.Index(labels[i+4:], `"`)]
			}
			s := got[key+op]
			if s == nil {
				s = &series{}
				got[key+op] = s
			}
			v, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", valStr, err)
			}
			s.cums = append(s.cums, v)
			if strings.Contains(labels, `le="+Inf"`) {
				s.sawInf = true
			}
		case strings.Contains(name, "_count"):
			key := strings.Split(name, "_count")[0]
			op := ""
			if i := strings.Index(name, `op="`); i >= 0 {
				op = name[i+4 : i+4+strings.Index(name[i+4:], `"`)]
			}
			if s := got[key+op]; s != nil {
				s.count, _ = strconv.ParseUint(valStr, 10, 64)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d bucket series, want 2", len(got))
	}
	for key, s := range got {
		if !s.sawInf {
			t.Fatalf("series %s has no +Inf bucket", key)
		}
		for i := 1; i < len(s.cums); i++ {
			if s.cums[i] < s.cums[i-1] {
				t.Fatalf("series %s buckets not cumulative-monotone: %v", key, s.cums)
			}
		}
		if last := s.cums[len(s.cums)-1]; last != s.count || last != 100 {
			t.Fatalf("series %s +Inf bucket %d != count %d (want 100)", key, last, s.count)
		}
	}
}
