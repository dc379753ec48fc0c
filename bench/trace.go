package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	rtrace "dbpl/internal/telemetry/trace"
)

// span is one interval the harness recorded around a call into a layer's
// public function. Spans of one op share its id; Parent indexes the span
// array (-1 for an op's root span, the real client call).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans in memory; they are written out when the run
// ends. It is single-threaded, like the replay it serves: open spans nest
// as a stack, so a span started while another is open is its child.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// root records a completed root span for the next op and leaves it open
// as the parent of the layer spans that follow.
func (r *recorder) root(name string, op int, start, end time.Time) {
	r.op = op
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: -1,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	r.open = append(r.open[:0], len(r.spans)-1)
}

func (r *recorder) start(name string) {
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: r.open[len(r.open)-1]})
	r.open = append(r.open, len(r.spans)-1)
	r.spans[len(r.spans)-1].Start = int64(time.Since(r.t0))
}

func (r *recorder) end() {
	now := int64(time.Since(r.t0))
	r.spans[r.open[len(r.open)-1]].End = now
	r.open = r.open[:len(r.open)-1]
}

// add records an already timed child of the innermost open span (the
// modeled disk reports its syncs this way).
func (r *recorder) add(name string, start, end time.Time) {
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: r.open[len(r.open)-1],
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children are not counted twice;
// a child outside its parent's interval covers nothing of it).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		k := kids[i]
		sort.Slice(k, func(a, b int) bool { return spans[k[a]].Start < spans[k[b]].Start })
		covered, at := int64(0), s.Start
		for _, c := range k {
			lo, hi := spans[c].Start, spans[c].End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// perOp sums self time by span name within each op and returns, per name,
// one sample per op that has the name (ns), plus how many spans of that
// name each such op held.
func perOp(spans []span) (sums map[string][]float64, counts map[string][]float64) {
	self := selfTimes(spans)
	type key struct {
		op   int
		name string
	}
	sum, cnt := map[key]int64{}, map[key]int{}
	var order []key
	for i, s := range spans {
		k := key{s.Op, s.Name}
		if _, seen := cnt[k]; !seen {
			order = append(order, k)
		}
		sum[k] += self[i]
		cnt[k]++
	}
	sums, counts = map[string][]float64{}, map[string][]float64{}
	for _, k := range order {
		sums[k.name] = append(sums[k.name], float64(sum[k]))
		counts[k.name] = append(counts[k.name], float64(cnt[k]))
	}
	return sums, counts
}

// serverSpans converts the span trees the server recorded (Server.Traces)
// into harness spans, one op id per trace, so the same self-time code
// folds both. Only traces begun at or after since are kept.
func serverSpans(traces []rtrace.Data, since time.Time) []span {
	var out []span
	for op, d := range traces {
		if d.Begin.Before(since) {
			continue
		}
		base := len(out)
		for _, s := range d.Spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			name := s.Name
			switch {
			case s.Parent < 0:
				name = "request" // the root is named after the opcode; its self time is dispatch
			case strings.HasPrefix(name, "exec:"):
				name = "exec"
			}
			out = append(out, span{Name: name, Op: op, Parent: parent,
				Start: int64(s.Start), End: int64(s.Start + s.Dur)})
		}
	}
	return out
}

// writeSpans stores the spans of one workload under out/: the harness's
// own (the client calls and the layer replay) and the server's.
func writeSpans(workload string, harness, server []span) error {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string][]span{"harness": harness, "server": server})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("out", "trace-"+workload+".json"), b, 0o644)
}
