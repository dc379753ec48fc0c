package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dbpl/internal/server"
)

// TestSmoke runs all four workloads and the layer replay at the -smoke
// sizing and checks that every declared metric is present, finite and
// carries its unit, and that the oracle passed.
func TestSmoke(t *testing.T) {
	z := smokeSizing()
	for _, sp := range specs {
		m, err := runEndToEnd(sp, z, 1)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if m.failed+m.mismatch != 0 {
			t.Errorf("%s: %d failed ops, %d reopen mismatches", sp.name, m.failed, m.mismatch)
		}
		// The op mix of mixed-replicated is fixed, not whatever fits beside the
		// writes.
		if want := z.segOps(sp) * (1 + readsPerWrite); sp.replicated && m.segs[0].ops != want {
			t.Errorf("%s: %d ops in a segment, want %d PUTs with %d GETs each", sp.name, m.segs[0].ops, z.segOps(sp), readsPerWrite)
		}
		e2e := endToEnd(sp, m)
		for _, d := range endToEndDefs {
			s, ok := e2e[d.name]
			if !ok || s.Unit != d.unit || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive finite value in %s", sp.name, d.name, s, ok, d.unit)
			}
		}
		layers, _, err := perLayer(sp, z, 1, m)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if len(layers) != len(perLayerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(layers), len(perLayerDefs))
		}
		for _, d := range perLayerDefs {
			s, ok := layers[d.name]
			if !ok || s.Unit != d.unit || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite value in %s", sp.name, d.name, s, ok, d.unit)
			}
		}
		// The layers each workload exists to exercise must have samples.
		for _, name := range map[string][]string{
			"read-selective":   {"wire.decode_req_us", "types.intern_us", "plan.pick_us", "index.lookup_us", "server.span.exec_us", "get_p50_us"},
			"read-bulk":        {"codec.encode_us_per_rec", "codec.allocs_per_rec", "relation.join_us", "core.getvalues_us", "join_p50_us"},
			"write-commit":     {"intrinsic.stage_us", "index.apply_us", "core.fork_apply_us", "fs.fsyncs_per_write", "server.span.lock-wait_us", "txn_p50_us", "log_bytes_per_write"},
			"mixed-replicated": {"intrinsic.apply_group_us", "intrinsic.read_groups_us", "repl.ship_bytes_per_write", "server.span.apply_us", "server.commit_batch_groups", "repl_visible_p50_us"},
		}[sp.name] {
			if layers[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, layers[name].Value)
			}
		}
	}
}

// TestOracleCatchesWrongCount: a deliberately wrong expected count makes
// ops fail.
func TestOracleCatchesWrongCount(t *testing.T) {
	sp, _ := specByName("read-selective")
	e, err := setup(sp, smokeSizing(), 1, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if seg := e.run(200); seg.failed != 0 {
		t.Fatalf("%d ops failed before the oracle was bent", seg.failed)
	}
	e.m.lat.queries[e.m.lat.miss].want++
	if seg := e.run(200); seg.failed == 0 {
		t.Fatal("the oracle accepted a GET whose result count differs from the model's")
	}
}

// TestGeneratorRepeats: the same seed gives the same inputs, another seed
// others.
func TestGeneratorRepeats(t *testing.T) {
	sp, _ := specByName("write-commit")
	key := func(seed int64) string {
		in := genInputs(sp, smokeSizing(), seed)
		var b strings.Builder
		for _, r := range in.m.roots {
			b.WriteString(r.val.String())
		}
		for _, st := range in.streams {
			for _, o := range st.ops {
				b.WriteString(o.vals[0].String())
			}
		}
		return b.String()
	}
	if key(3) != key(3) {
		t.Error("seed 3 generated two different inputs")
	}
	if key(3) == key(4) {
		t.Error("seeds 3 and 4 generated the same inputs")
	}
}

// TestHostClock: a switched-off clock runs no kernel and scales nothing; a
// running one turns the kernels on either side of a stretch into a factor
// near calibRef over what they took.
func TestHostClock(t *testing.T) {
	off := hostClock{off: true}
	off.start()
	if f := off.factor(); f != 1 || off.last != 0 {
		t.Errorf("switched off: factor %v after a kernel of %v, want 1 and none", f, off.last)
	}
	var h hostClock
	h.start()
	before := h.last
	f := h.factor()
	if want := 2 * float64(calibRef) / float64(before+h.last); f != want || f <= 0 || math.IsInf(f, 0) {
		t.Errorf("factor = %v, want %v from kernels of %v and %v", f, want, before, h.last)
	}
}

// TestAtRef: only the CPU share of a stretch, and of a write's latency
// everything but its own Sync, is scaled to the reference host speed.
func TestAtRef(t *testing.T) {
	ms := time.Millisecond
	if got := atRef(10*ms, 6*ms, 0.5); got != 7*ms {
		t.Errorf("10 ms of which 6 on the CPU at factor 0.5 = %v, want 7ms", got)
	}
	if got := atRef(10*ms, 11*ms, 0.5); got != 5*ms {
		t.Errorf("CPU time past the wall time = %v, want all of the wall scaled: 5ms", got)
	}
	if got := latencyAtRef(sGet, 10*ms, 0.5); got != 5*ms {
		t.Errorf("a 10 ms GET at factor 0.5 = %v, want 5ms", got)
	}
	if got := latencyAtRef(sPut, 10*ms, 0.5); got != 4*ms+syncDelay {
		t.Errorf("a 10 ms PUT at factor 0.5 = %v, want 4ms and its own %v Sync", got, syncDelay)
	}
	if got := latencyAtRef(sTxn, 0, 0.5); got != 0 {
		t.Errorf("a series without samples reads %v, want 0", got)
	}
	if got := latencyAtRef(sVisible, 7*ms, 1); got != 7*ms {
		t.Errorf("factor 1 changed a latency to %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 := quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 = quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v %v %v", q1, med, q3)
	}
}

func TestPercentileAndTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i+1) * 1000
	}
	if p := percentile(s, 0.5); p != 500e3 {
		t.Errorf("p50 = %v, want 500000", p)
	}
	if p := percentile(s, 0.95); p != 950e3 {
		t.Errorf("p95 = %v, want 950000", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %v", p)
	}
	// 1000 samples: p99 leaves exactly ten beyond it, p99.9 only one.
	if tl := tailOf(s); tl.Percentile != 99 || tl.US != 990 || tl.Samples != 1000 {
		t.Errorf("tail = %+v, want p99 = 990 us of 1000", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},      // overlaps a: 10..60 covered once
		{Name: "late", Parent: 0, Start: 150, End: 170}, // outside the parent: covers nothing of it
		{Name: "aa", Parent: 1, Start: 15, End: 20},
	}
	want := []int64{50, 25, 30, 20, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	sums, counts := perOp(append(spans, span{Name: "a", Parent: 0, Start: 70, End: 80}))
	if len(sums["a"]) != 1 || sums["a"][0] != 35 || counts["a"][0] != 2 {
		t.Errorf("per-op sum of a = %v (count %v), want one op with 35 over 2 spans", sums["a"], counts["a"])
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "some_us", unit: "us", better: "lower", bound: 0.10}
	higher := metricDef{name: "some_per_s", unit: "1/s", better: "higher", bound: 0.10}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	wide := func(v float64) stat { return stat{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 5} }
	for _, c := range []struct {
		name     string
		d        metricDef
		old, cur stat
		want     verdict
	}{
		{"within the bound", lower, tight(100), tight(108), ok},
		{"better", lower, tight(100), tight(50), ok},
		{"beyond the bound", lower, tight(100), tight(112), worse},
		{"throughput fell", higher, tight(100), tight(85), worse},
		{"throughput rose", higher, tight(100), tight(130), ok},
		{"spread wider than the bound hides a small change", lower, wide(100), wide(105), unresolved},
		{"spread wider than the bound, medians past it, ranges overlap", lower, wide(100), wide(115), unresolved},
		{"wide spread but the ranges are apart", lower, wide(100), wide(200), worse},
	} {
		if got, _ := judge(c.d, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCheckExitCode(t *testing.T) {
	mk := func(p50 float64, failed int) *resultFile {
		e2e := map[string]stat{}
		for _, d := range endToEndDefs {
			e2e[d.name] = stat{Value: 10, Unit: d.unit, Q1: 10, Q3: 10, N: 5}
		}
		e2e["op_p50_us"] = stat{Value: p50, Unit: "us", Q1: p50, Q3: p50, N: 5}
		return &resultFile{Workloads: []result{{Workload: "read-bulk", Attempted: 100, Failed: failed, EndToEnd: e2e}}}
	}
	var out bytes.Buffer
	if code := check(&out, mk(10, 0), mk(10.5, 0)); code != 0 {
		t.Errorf("same numbers: exit %d\n%s", code, out.String())
	}
	if code := check(&out, mk(10, 0), mk(13, 0)); code != 1 {
		t.Errorf("a 30 %% slower median: exit %d, want 1", code)
	}
	if code := check(&out, mk(10, 0), mk(10, 1)); code != 1 {
		t.Errorf("a larger fail_share: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Error("no row says worse")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the program's own tables
// together: same workloads, same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d implemented", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d is %+v, want %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.bound) {
				t.Errorf("%s metric %s: bound %v, want %v (bounded %v)", kind, g.Name, g.Bound, w.bound, bounded)
			}
		}
	}
	same("end-to-end", f.EndToEnd, endToEndDefs, true)
	same("per-layer", f.PerLayer, perLayerDefs, false)
}
