package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dbpl/internal/core"
	"dbpl/internal/dynamic"
	"dbpl/internal/index"
	"dbpl/internal/persist/codec"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/plan"
	"dbpl/internal/relation"
	"dbpl/internal/server/wire"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// replayer re-does the work of each traced op layer by layer, on the same
// inputs, single-threaded and with no sockets: one harness span per call
// into a layer's public function, parented to the op's root span (the real
// client call the traced pass timed). A layer's number is the median self
// time of its span name; what the replay does not reach — sockets,
// scheduling, dispatch, admission, telemetry — is server.residual_us.
//
// The replay keeps its own copy of what the server derives from the store:
// the root dynamics, an index.Rebuild of the same members, the sharded
// core.Database and a planner model; writes go to a shadow store (and a
// shadow follower) preloaded identically, over their own modeled disks.
type replayer struct {
	in  *inputs
	rec *recorder
	err error

	roots map[string]*dynamic.Dynamic
	idx   *index.Set
	db    *core.Database
	pm    *plan.Model

	dir               string
	primary, follower *node // stores only; nil on a read workload

	buf       []byte
	examined  int // index entries examined by GETs
	returned  int // records those GETs returned
	respBytes []float64
	imgBytes  int
	imgs      int
	stats     []intrinsic.CommitStats
}

const replayTrace = 0x1234_5678_9abc // a trace ID of ordinary varint width

func newReplayer(sp spec, in *inputs) (p *replayer, err error) {
	p = &replayer{in: in, rec: newRecorder(), roots: map[string]*dynamic.Dynamic{},
		db: core.New(core.StrategyIndexed), pm: plan.NewModel(telemetry.NewRegistry())}
	members := make([]*dynamic.Dynamic, 0, len(in.m.roots))
	for _, r := range in.m.roots { // id order is name order, the server's insertion order
		d, err := dynamic.MakeAt(r.val, in.m.lat.classes[r.class].typ)
		if err != nil {
			return nil, err
		}
		p.roots[r.name] = d
		p.db.Insert(d)
		members = append(members, d)
	}
	p.idx = index.Rebuild(members, index.Def{Field: indexField})
	if !sp.writes() {
		return p, nil
	}

	if p.dir, err = newDir(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.primary, err = openStore(logPath(p.dir, "primary")); err != nil {
		return nil, err
	}
	if err = p.primary.preload(in.m); err != nil {
		return nil, err
	}
	p.primary.store.DeclareIndex(indexField)
	if _, err = p.primary.store.Commit(); err != nil {
		return nil, err
	}
	p.primary.fs.c.onSync = func(s, e time.Time) { p.rec.add("fs.fsync", s, e) }
	if !sp.replicated {
		return p, nil
	}
	if p.follower, err = openStore(logPath(p.dir, "follower")); err != nil {
		return nil, err
	}
	for at := intrinsic.HeaderSize; at < p.primary.store.DurableEnd(); {
		raw, next, _, err := p.primary.store.ReadGroupsAt(at, 0)
		if err != nil {
			return nil, err
		}
		if _, err = p.follower.store.ApplyGroup(raw); err != nil {
			return nil, err
		}
		at = next
	}
	p.follower.fs.c.onSync = func(s, e time.Time) { p.rec.add("fs.fsync_follower", s, e) }
	return p, nil
}

func (p *replayer) close() {
	p.primary.stop()
	p.follower.stop()
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// fail keeps the first error; the replay checks it once per op.
func (p *replayer) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func (p *replayer) span(name string, f func()) {
	p.rec.start(name)
	f()
	p.rec.end()
}

// request frames fields as the client does and parses them as the server
// does, returning what the handler would see.
func (p *replayer) request(op byte, fields ...[]byte) (got [][]byte) {
	p.span("wire.encode_req", func() {
		var err error
		p.buf, err = wire.AppendTracedFrame(p.buf[:0], 0, op, replayTrace, fields...)
		p.fail(err)
	})
	p.span("wire.decode_req", func() {
		rop, rf, err := wire.ReadFrame(bytes.NewReader(p.buf), 0)
		p.fail(err)
		_, _, got, _, err = wire.SplitTrace(rop, rf)
		p.fail(err)
	})
	return got
}

// respond frames the reply as the server does (echoing the trace) and
// parses it as the client does.
func (p *replayer) respond(op byte, fields ...[]byte) (got [][]byte) {
	var frame []byte
	p.span("wire.encode_resp", func() {
		top, tf := wire.AppendTrace(op, replayTrace, fields)
		var err error
		frame, err = wire.AppendFrame(nil, 0, top, tf...)
		p.fail(err)
	})
	p.respBytes = append(p.respBytes, float64(len(frame)))
	p.span("wire.decode_resp", func() {
		rop, rf, err := wire.ReadFrame(bytes.NewReader(frame), 0)
		p.fail(err)
		_, _, got, _, err = wire.SplitTrace(rop, rf)
		p.fail(err)
	})
	return got
}

func (p *replayer) typeField(t types.Type) (img []byte) {
	p.span("wire.encode_req", func() {
		var err error
		img, err = wire.MarshalType(t)
		p.fail(err)
	})
	return img
}

func (p *replayer) typeOf(field []byte) (t types.Type) {
	p.span("wire.decode_req", func() {
		var err error
		t, err = wire.UnmarshalType(field)
		p.fail(err)
	})
	return t
}

// reply encodes the result records, frames them, and decodes them as the
// client does; one codec span per record.
func (p *replayer) reply(vals []value.Value, witness []types.Type) {
	imgs := make([][]byte, len(vals))
	for i, v := range vals {
		var w types.Type
		if witness != nil {
			w = witness[i]
		}
		p.span("codec.encode", func() {
			var err error
			imgs[i], err = codec.MarshalTagged(v, w)
			p.fail(err)
		})
		p.imgBytes += len(imgs[i])
	}
	p.imgs += len(imgs)
	for _, img := range p.respond(wire.OpValues, imgs...) {
		p.span("codec.decode", func() {
			_, _, err := codec.UnmarshalTagged(img)
			p.fail(err)
		})
	}
}

// get mirrors server.plannedGet between the two frames.
func (p *replayer) get(t types.Type) {
	f := p.request(wire.OpGet, p.typeField(t))
	t = p.typeOf(f[0])
	var want *types.Interned
	p.span("types.intern", func() { want = types.Intern(t) })
	var pl plan.GetPlan
	p.span("plan.pick", func() {
		in := plan.GetInput{N: p.idx.Len(), Types: p.idx.Types()}
		if rt, ok := want.Type().(*types.Record); ok {
			for _, fld := range rt.Fields() {
				if c, ok := p.idx.CandidateCount(fld.Label); ok && (in.Field == "" || c < in.Candidates) {
					in.Field, in.Candidates = fld.Label, c
				}
			}
		}
		pl = p.pm.PlanGet(in)
	})
	var vals []value.Value
	var wits []types.Type
	items := 0
	began := time.Now()
	p.span("index.lookup", func() {
		keep := func(d *dynamic.Dynamic) {
			vals, wits = append(vals, d.Value()), append(wits, d.Type())
		}
		switch pl.Path {
		case plan.PathExtent:
			entries, _ := p.idx.GetEntries(want)
			items = len(entries)
			for _, e := range entries {
				keep(e.Dyn)
			}
		case plan.PathIndex:
			cands, _ := p.idx.Candidates(pl.Field)
			items = len(cands)
			for _, e := range cands {
				if types.SubtypeInterned(e.Dyn.Interned(), want) {
					keep(e.Dyn)
				}
			}
		default:
			items = pl.N
			for _, pk := range p.db.Get(t) {
				vals, wits = append(vals, pk.Value), append(wits, pk.Witness)
			}
		}
	})
	p.pm.Observe(pl.Path, time.Since(began), items, len(vals), pl.N)
	p.examined += items
	p.returned += len(vals)
	p.reply(vals, wits)
}

func (p *replayer) join(t1, t2 types.Type) {
	f := p.request(wire.OpJoin, p.typeField(t1), p.typeField(t2))
	t1, t2 = p.typeOf(f[0]), p.typeOf(f[1])
	var v1, v2 []value.Value
	p.span("core.getvalues", func() { v1 = p.db.GetValues(t1) })
	p.span("core.getvalues", func() { v2 = p.db.GetValues(t2) })
	var members []value.Value
	p.span("relation.join", func() {
		r1, r2 := relation.New(v1...), relation.New(v2...)
		members = relation.JoinPlanned(r1, r2, relation.PlanJoin(r1, r2)).Members()
	})
	p.reply(members, nil)
}

// decodePut is the server's half of one PUT frame: image → value → dynamic.
func (p *replayer) decodePut(name string, v value.Value, t types.Type, key []byte) *dynamic.Dynamic {
	var img []byte
	p.span("codec.encode", func() {
		var err error
		img, err = codec.MarshalTagged(v, t)
		p.fail(err)
	})
	p.imgBytes += len(img)
	p.imgs++
	fields := [][]byte{[]byte(name), img}
	if key != nil {
		fields = append(fields, key)
	}
	f := p.request(wire.OpPut, fields...)
	var d *dynamic.Dynamic
	var dv value.Value
	var dt types.Type
	p.span("codec.decode", func() {
		var err error
		dv, dt, err = codec.UnmarshalTagged(f[1])
		p.fail(err)
	})
	if p.err != nil {
		return nil
	}
	p.span("dynamic.make", func() {
		var err error
		d, err = dynamic.MakeAt(dv, dt)
		p.fail(err)
	})
	return d
}

// commit is the server's commit of one group — bind, stage, sync, then the
// two membership structures — and, on a replicated workload, the ship and
// the follower's apply that follow the ack.
func (p *replayer) commit(names []string, adds []*dynamic.Dynamic) {
	st := p.primary.store
	from := st.DurableEnd()
	p.span("intrinsic.bind", func() {
		for i, name := range names {
			if adds[i] == nil {
				st.Unbind(name)
			} else {
				p.fail(st.Bind(name, adds[i].Value(), adds[i].Type()))
			}
		}
	})
	p.span("intrinsic.stage", func() {
		cs, err := st.StageCommit()
		p.fail(err)
		p.stats = append(p.stats, cs)
	})
	p.span("intrinsic.sync", func() {
		_, err := st.SyncBatch()
		p.fail(err)
	})
	ops := make([]index.Op, len(names))
	for i, name := range names {
		ops[i] = index.Op{Remove: p.roots[name], Add: adds[i]}
	}
	p.span("index.apply", func() { p.idx, _ = p.idx.Apply(ops) })
	p.span("core.fork_apply", func() {
		next := p.db.Fork()
		for _, o := range ops {
			if o.Remove != nil {
				next.Remove(o.Remove)
			}
			if o.Add != nil {
				next.Insert(o.Add)
			}
		}
		p.db = next
	})
	for i, name := range names {
		if adds[i] == nil {
			delete(p.roots, name)
		} else {
			p.roots[name] = adds[i]
		}
	}
	if p.follower == nil {
		return
	}
	var raw []byte
	p.span("intrinsic.read_groups", func() {
		var err error
		raw, _, _, err = st.ReadGroupsAt(from, 0)
		p.fail(err)
	})
	p.span("intrinsic.apply_group", func() {
		_, err := p.follower.store.ApplyGroup(raw)
		p.fail(err)
	})
}

var replayKey = make([]byte, 16) // an idempotency key of the client's width

func (p *replayer) put(id int, v value.Value) {
	r := &p.in.m.roots[id]
	d := p.decodePut(r.name, v, p.in.m.lat.classes[r.class].typ, replayKey)
	p.commit([]string{r.name}, []*dynamic.Dynamic{d})
	p.respond(wire.OpOK)
}

func (p *replayer) delete(id int) {
	name := p.in.m.roots[id].name
	p.request(wire.OpDelete, []byte(name), replayKey)
	p.commit([]string{name}, []*dynamic.Dynamic{nil})
	p.respond(wire.OpOK, []byte{1})
}

func (p *replayer) txn(o *op) {
	p.request(wire.OpBegin)
	p.respond(wire.OpOK)
	names := make([]string, len(o.roots))
	adds := make([]*dynamic.Dynamic, len(o.roots))
	for i, id := range o.roots {
		r := &p.in.m.roots[id]
		names[i] = r.name
		adds[i] = p.decodePut(r.name, o.vals[i], p.in.m.lat.classes[r.class].typ, nil)
		p.respond(wire.OpOK)
	}
	p.request(wire.OpCommit, replayKey)
	p.commit(names, adds)
	p.respond(wire.OpOK)
}

// replay re-does one op under the root span the traced pass timed.
func (p *replayer) replay(id int, o *op, call [2]time.Time) error {
	p.rec.root("op:"+kindNames[o.kind], id, call[0], call[1])
	l := p.in.m.lat
	switch o.kind {
	case opGet, opGetIdx:
		p.get(l.queries[o.q].t)
	case opJoin:
		p.join(l.queries[l.joinL].t, l.queries[l.joinR].t)
	case opPut:
		p.put(o.roots[0], o.vals[0])
	case opDelPut:
		p.delete(o.roots[0])
		p.put(o.roots[0], o.vals[0])
	case opTxn:
		p.txn(o)
	}
	if p.err != nil {
		return fmt.Errorf("replay of op %d (%s): %w", id, kindNames[o.kind], p.err)
	}
	return nil
}

// codecAllocs counts, exactly, the heap allocations of encoding and
// decoding one record: single-threaded, collector off, over every record
// the headline query of the workload returns (or, for a write workload,
// the values its first ops bind).
func codecAllocs(vals []value.Value, wits []types.Type) float64 {
	if len(vals) == 0 {
		return 0
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, v := range vals {
		img, err := codec.MarshalTagged(v, wits[i])
		if err == nil {
			_, _, err = codec.UnmarshalTagged(img)
		}
		if err != nil {
			panic(err) // the same records were just served
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(vals))
}
