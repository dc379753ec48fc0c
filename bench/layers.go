package main

import (
	"slices"
	"strings"
	"time"

	"dbpl/internal/server"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// perLayerDefs are the metrics of single layers (layer = this repo's
// package). They have no bound. Where they come from:
//
//	replay  median self time (or count) of the harness span of that name in
//	        the single-threaded layer replay
//	reg     delta of the public Server.Telemetry() registry over the
//	        measured, untraced segments
//	fs      the harness's counting disk, same segments
//	span    self time folded from the span trees the server itself records,
//	        traced pass only
//	e2e     client-observed, untraced: the per-operation latencies behind
//	        the op/op2 slots, under their own names
//
// A metric a workload has no samples for (a read workload's commit path)
// reads 0.
var perLayerDefs = []metricDef{
	{name: "wire.encode_req_us", unit: "us", better: "lower"},
	{name: "wire.decode_req_us", unit: "us", better: "lower"},
	{name: "wire.encode_resp_us", unit: "us", better: "lower"},
	{name: "wire.decode_resp_us", unit: "us", better: "lower"},
	{name: "wire.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "types.intern_us", unit: "us", better: "lower"},
	{name: "plan.pick_us", unit: "us", better: "lower"},
	{name: "plan.path_share.extent", unit: "ratio", better: "higher"},
	{name: "plan.path_share.index", unit: "ratio", better: "higher"},
	{name: "plan.path_share.scan", unit: "ratio", better: "lower"},
	{name: "index.lookup_us", unit: "us", better: "lower"},
	{name: "index.examined_per_result", unit: "ratio", better: "lower"},
	{name: "index.apply_us", unit: "us", better: "lower"},
	{name: "index.entries_touched_per_commit", unit: "count", better: "lower"},
	{name: "core.fork_apply_us", unit: "us", better: "lower"},
	{name: "core.getvalues_us", unit: "us", better: "lower"},
	{name: "relation.join_us", unit: "us", better: "lower"},
	{name: "codec.encode_us_per_rec", unit: "us", better: "lower"},
	{name: "codec.decode_us_per_rec", unit: "us", better: "lower"},
	{name: "codec.allocs_per_rec", unit: "count", better: "lower"},
	{name: "codec.bytes_per_rec", unit: "B", better: "lower"},
	{name: "dynamic.make_us", unit: "us", better: "lower"},
	{name: "intrinsic.bind_us", unit: "us", better: "lower"},
	{name: "intrinsic.stage_us", unit: "us", better: "lower"},
	{name: "intrinsic.sync_us", unit: "us", better: "lower"},
	{name: "intrinsic.stage_bytes_per_commit", unit: "B", better: "lower"},
	{name: "intrinsic.nodes_written_per_commit", unit: "count", better: "lower"},
	{name: "intrinsic.nodes_reachable_per_commit", unit: "count", better: "lower"},
	{name: "intrinsic.read_groups_us", unit: "us", better: "lower"},
	{name: "intrinsic.apply_group_us", unit: "us", better: "lower"},
	{name: "intrinsic.replay_us_per_group", unit: "us", better: "lower"},
	{name: "fs.fsyncs_per_write", unit: "count", better: "lower"},
	{name: "fs.write_bytes_per_write", unit: "B", better: "lower"},
	{name: "fs.writes_per_write", unit: "count", better: "lower"},
	{name: "fs.fsync_us", unit: "us", better: "lower"},
	{name: "server.residual_us", unit: "us", better: "lower"},
	{name: "server.request_us.get", unit: "us", better: "lower"},
	{name: "server.request_us.join", unit: "us", better: "lower"},
	{name: "server.request_us.put", unit: "us", better: "lower"},
	{name: "server.request_us.delete", unit: "us", better: "lower"},
	{name: "server.request_us.begin", unit: "us", better: "lower"},
	{name: "server.request_us.commit", unit: "us", better: "lower"},
	{name: "server.commit_queue_wait_us", unit: "us", better: "lower"},
	{name: "server.commit_batch_groups", unit: "count", better: "higher"},
	{name: "server.commit_us", unit: "us", better: "lower"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.errors_total", unit: "count", better: "lower"},
	{name: "server.idem_hits_total", unit: "count", better: "lower"},
	{name: "server.span.request_us", unit: "us", better: "lower"},
	{name: "server.span.plan_us", unit: "us", better: "lower"},
	{name: "server.span.exec_us", unit: "us", better: "lower"},
	{name: "server.span.commit_us", unit: "us", better: "lower"},
	{name: "server.span.lock-wait_us", unit: "us", better: "lower"},
	{name: "server.span.queue-wait_us", unit: "us", better: "lower"},
	{name: "server.span.stage_us", unit: "us", better: "lower"},
	{name: "server.span.append-fsync_us", unit: "us", better: "lower"},
	{name: "server.span.fsync_us", unit: "us", better: "lower"},
	{name: "server.span.publish_us", unit: "us", better: "lower"},
	{name: "server.span.apply_us", unit: "us", better: "lower"},
	{name: "repl.ship_bytes_per_write", unit: "B", better: "lower"},
	{name: "repl.groups_applied_per_write", unit: "count", better: "lower"},
	{name: "repl.reconnects_total", unit: "count", better: "lower"},
	{name: "telemetry.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "get_p50_us", unit: "us", better: "lower"},
	{name: "get_p95_us", unit: "us", better: "lower"},
	{name: "join_p50_us", unit: "us", better: "lower"},
	{name: "put_p50_us", unit: "us", better: "lower"},
	{name: "put_p95_us", unit: "us", better: "lower"},
	{name: "txn_p50_us", unit: "us", better: "lower"},
	{name: "repl_visible_p50_us", unit: "us", better: "lower"},
	{name: "log_bytes_per_write", unit: "B", better: "lower"},
}

// replayed maps a replay span name to its per-layer metric; each is the
// median, over the ops that have the span, of the op's summed self time.
var replayed = map[string]string{
	"wire.encode_req":       "wire.encode_req_us",
	"wire.decode_req":       "wire.decode_req_us",
	"wire.encode_resp":      "wire.encode_resp_us",
	"wire.decode_resp":      "wire.decode_resp_us",
	"types.intern":          "types.intern_us",
	"plan.pick":             "plan.pick_us",
	"index.lookup":          "index.lookup_us",
	"index.apply":           "index.apply_us",
	"core.fork_apply":       "core.fork_apply_us",
	"core.getvalues":        "core.getvalues_us",
	"relation.join":         "relation.join_us",
	"dynamic.make":          "dynamic.make_us",
	"intrinsic.bind":        "intrinsic.bind_us",
	"intrinsic.stage":       "intrinsic.stage_us",
	"intrinsic.sync":        "intrinsic.sync_us",
	"intrinsic.read_groups": "intrinsic.read_groups_us",
	"intrinsic.apply_group": "intrinsic.apply_group_us",
}

// afterAck are the replay spans of work the server does after it has
// acknowledged the write; they are no part of the client-observed latency
// server.residual_us is read against.
var afterAck = map[string]bool{"intrinsic.read_groups": true, "intrinsic.apply_group": true, "fs.fsync_follower": true}

// traceRing sizes the server's trace ring for the traced segment: every
// request of the counted workers (a transaction is ten), and on
// mixed-replicated the paced reader's GETs and the follower's apply traces.
// It is no larger than needed because the ring is live heap, and a larger
// live heap makes the collector run less often — which would flatter the
// traced pass in telemetry.trace_overhead_pct.
func traceRing(sp spec, z sizing) int {
	per := z.segOps(sp) + z.warmOps(sp)
	if sp.replicated {
		return (1 + readsPerWrite) * per
	}
	return 10 * clients() * per
}

// perLayer runs the traced pass and the layer replay of one workload and
// derives every per-layer metric, reading the registry, device and
// end-to-end numbers from the untraced pass m.
func perLayer(sp spec, z sizing, seed int64, m *measured) (metrics map[string]stat, shares map[string]float64, err error) {
	// Traced pass: the same set-up with the server's own tracing fully on,
	// one segment. Its end-to-end timing is reported only as the overhead.
	e, err := setup(sp, z, seed, server.Config{TraceSampleRate: 1, TraceRingSize: traceRing(sp, z)})
	if err != nil {
		return nil, nil, err
	}
	k := z.traceOps(sp)
	first := make([]int, len(e.workers))
	for i, w := range e.workers {
		w.record, first[i] = k, w.next
	}
	since := time.Now()
	seg := e.run(z.segOps(sp))
	traces := e.primary.srv.Traces()
	if e.follower != nil {
		traces = append(traces, e.follower.srv.Traces()...)
	}
	calls := make([][][2]time.Time, len(e.workers))
	for i, w := range e.workers {
		calls[i] = w.calls
	}
	if err := e.close(); err != nil {
		return nil, nil, err
	}
	srvSpans := serverSpans(traces, since)

	// Layer replay of the first k ops each worker ran in that segment. The
	// warm-up's writes are not re-applied first: they change values, never
	// types or counts, so every op does the same work on either state.
	in := genInputs(sp, z, seed)
	p, err := newReplayer(sp, in)
	if err != nil {
		return nil, nil, err
	}
	defer p.close()
	for wi, st := range in.streams {
		for i, call := range calls[wi] {
			if err := p.replay(wi*k+i, &st.ops[(first[wi]+i)%len(st.ops)], call); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := writeSpans(sp.name, p.rec.spans, srvSpans); err != nil {
		return nil, nil, err
	}

	out := map[string]stat{}
	for _, d := range perLayerDefs {
		out[d.name] = stat{Unit: d.unit}
	}
	set := func(name string, samples ...float64) { out[name] = newStat(out[name].Unit, samples...) }
	scaled := func(v []float64, by float64) []float64 {
		s := make([]float64, len(v))
		for i := range v {
			s[i] = v[i] * by
		}
		return s
	}

	// replay
	sums, counts := perOp(p.rec.spans)
	for spanName, metric := range replayed {
		set(metric, scaled(sums[spanName], 1e-3)...)
	}
	for spanName, metric := range map[string]string{"codec.encode": "codec.encode_us_per_rec", "codec.decode": "codec.decode_us_per_rec"} {
		per := make([]float64, len(sums[spanName]))
		for i, ns := range sums[spanName] {
			per[i] = ns / 1e3 / counts[spanName][i]
		}
		set(metric, per...)
	}
	set("wire.resp_bytes_per_op", p.respBytes...)
	set("index.examined_per_result", ratio(float64(p.examined), float64(p.returned)))
	set("codec.bytes_per_rec", ratio(float64(p.imgBytes), float64(p.imgs)))
	set("codec.allocs_per_rec", codecAllocs(codecSample(sp, in)))
	var sb, nw, nr []float64
	for _, cs := range p.stats {
		sb, nw, nr = append(sb, float64(cs.BytesWritten)), append(nw, float64(cs.NodesWritten)), append(nr, float64(cs.NodesReachable))
	}
	set("intrinsic.stage_bytes_per_commit", sb...)
	set("intrinsic.nodes_written_per_commit", nw...)
	set("intrinsic.nodes_reachable_per_commit", nr...)
	set("intrinsic.replay_us_per_group", scaled(m.openS, ratio(1e6, float64(m.groups)))...)

	// server.residual_us: the headline op's untraced median minus what the
	// replay of the same kind of op accounts for up to the ack. shares is
	// the same accounting by layer (the span name's package), each layer's
	// median over the headline ops as a share of that untraced median.
	self := selfTimes(p.rec.spans)
	headline := map[int]bool{}
	total := map[int]float64{}
	byLayer := map[string]map[int]float64{}
	for i, s := range p.rec.spans {
		switch {
		case s.Parent < 0:
			if strings.HasPrefix(s.Name, "op:"+seriesNames[sp.op]) {
				headline[s.Op] = true
			}
		case !afterAck[s.Name]:
			total[s.Op] += float64(self[i])
			layer, _, _ := strings.Cut(s.Name, ".")
			if byLayer[layer] == nil {
				byLayer[layer] = map[int]float64{}
			}
			byLayer[layer][s.Op] += float64(self[i])
		}
	}
	// Per-layer numbers are as the host ran them, so the untraced pass is
	// read the same way here: host factor 1.
	raw := *m
	raw.segs = slices.Clone(m.segs)
	for i := range raw.segs {
		raw.segs[i].host = 1
	}
	e2e := endToEnd(sp, &raw)
	p50 := e2e["op_p50_us"].Value
	over := func(perOp map[int]float64) float64 {
		v := make([]float64, 0, len(headline))
		for op := range headline {
			v = append(v, perOp[op]/1e3)
		}
		return median(v)
	}
	set("server.residual_us", p50-over(total))
	shares = map[string]float64{"server.residual": ratio(p50-over(total), p50)}
	for layer, perOp := range byLayer {
		shares[layer] = ratio(over(perOp), p50)
	}

	// span: the server's own trees
	ssums, _ := perOp(srvSpans)
	for _, name := range []string{"request", "plan", "exec", "commit", "lock-wait", "queue-wait", "stage", "append-fsync", "fsync", "publish", "apply"} {
		set("server.span."+name+"_us", scaled(ssums[name], 1e-3)...)
	}

	// reg and fs, over the untraced measured segments
	var groups, ops, cycles, pauseNS float64
	for _, s := range m.segs {
		groups += float64(s.groups)
		ops += float64(s.ops)
		cycles += float64(s.gcCycles)
		pauseNS += float64(s.gcPauseNS)
	}
	ds := m.deltas
	var picks float64
	for _, path := range []string{"extent", "index", "scan"} {
		picks += counter(ds, `dbpl_plan_chosen_total{path="`+path+`"}`)
	}
	for _, path := range []string{"extent", "index", "scan"} {
		set("plan.path_share."+path, ratio(counter(ds, `dbpl_plan_chosen_total{path="`+path+`"}`), picks))
	}
	set("index.entries_touched_per_commit", ratio(counter(ds[:1], "dbpl_index_entries_touched_total"), groups))
	for _, op := range []string{"get", "join", "put", "delete", "begin", "commit"} {
		set("server.request_us."+op, histMeanUS(ds, `dbpl_server_request_seconds{op="`+strings.ToUpper(op)+`"}`))
	}
	set("server.commit_queue_wait_us", histMeanUS(ds, "dbpl_commit_queue_wait_seconds"))
	set("server.commit_batch_groups", histMean(ds, "dbpl_commit_batch_groups"))
	set("server.commit_us", histMeanUS(ds, "dbpl_server_commit_seconds"))
	set("server.shed_total", counter(ds, "dbpl_server_shed_total"))
	set("server.idem_hits_total", counter(ds, "dbpl_server_idem_hits_total"))
	var errs float64
	for _, d := range ds {
		for _, c := range d.reg.Counters {
			if strings.HasPrefix(c.Name, "dbpl_server_errors_total") {
				errs += float64(c.Value)
			}
		}
	}
	set("server.errors_total", errs)
	set("repl.ship_bytes_per_write", ratio(counter(ds, "dbpl_repl_bytes_shipped_total"), groups))
	set("repl.groups_applied_per_write", ratio(counter(ds, "dbpl_repl_groups_applied_total"), groups))
	set("repl.reconnects_total", counter(ds, "dbpl_repl_reconnects_total"))
	dev := ds[0].fs
	set("fs.fsyncs_per_write", ratio(float64(dev.syncs), groups))
	set("fs.write_bytes_per_write", ratio(float64(dev.bytes), groups))
	set("fs.writes_per_write", ratio(float64(dev.writes), groups))
	set("fs.fsync_us", ratio(float64(dev.syncNS)/1e3, float64(dev.syncs)))
	set("go.gc_cycles", cycles)
	set("go.gc_pause_total_ms", pauseNS/1e6)

	untraced := e2e["ops_per_s"].Value
	set("telemetry.trace_overhead_pct", 100*(untraced-float64(seg.ops)/seg.wall.Seconds())/untraced)

	// e2e, under the operations' own names
	pct := func(name string, sr series, q float64) {
		v := make([]float64, len(m.segs))
		for i := range m.segs {
			v[i] = percentile(m.segs[i].lat[sr], q) / 1e3
		}
		set(name, v...)
	}
	pct("get_p50_us", sGet, 0.50)
	pct("get_p95_us", sGet, 0.95)
	pct("join_p50_us", sJoin, 0.50)
	pct("put_p50_us", sPut, 0.50)
	pct("put_p95_us", sPut, 0.95)
	pct("txn_p50_us", sTxn, 0.50)
	pct("repl_visible_p50_us", sVisible, 0.50)
	perWrite := make([]float64, len(m.segs))
	for i, s := range m.segs {
		perWrite[i] = ratio(float64(s.logBytes), float64(s.groups))
	}
	set("log_bytes_per_write", perWrite...)
	return out, shares, nil
}

// codecSample picks the records codec.allocs_per_rec is counted over: what
// the workload's headline GET returns, or what its first writes bind.
func codecSample(sp spec, in *inputs) (vals []value.Value, wits []types.Type) {
	l := in.m.lat
	if sp.writes() {
		for _, o := range in.streams[0].ops[:20] {
			for i, id := range o.roots {
				vals, wits = append(vals, o.vals[i]), append(wits, l.classes[in.m.roots[id].class].typ)
			}
		}
		return vals, wits
	}
	q := l.queries[l.badge].t
	if sp.op2 == sJoin {
		q = l.queries[l.bulkA].t
	}
	for _, r := range in.m.roots {
		if t := l.classes[r.class].typ; types.Subtype(t, q) {
			vals, wits = append(vals, r.val), append(wits, t)
		}
	}
	return vals, wits
}
