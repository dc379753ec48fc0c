package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dbpl/internal/server"
)

// spec is one workload. The names are fixed: later issues cite them.
type spec struct {
	name string
	// roots is the store size — the working-set dimension of a system whose
	// only cache is the published state.
	roots      int
	durability server.Durability
	replicated bool
	// opsPerSec is how many ops each counted worker issues per second of
	// --seconds (read-bulk's 80 keeps a segment a whole number of its
	// 16-op pattern at the default --seconds). Segments are a fixed op count, never a time: log length,
	// reopen_s and heap_live_mb must not grow when the code gets faster.
	// The constants are sized so that one run measures for about --seconds
	// seconds at the commit that introduced the benchmark.
	opsPerSec int
	// op and op2 pick the latency series the two end-to-end latency slots
	// report for this workload.
	op, op2 series
	// traceOps is K: how many ops of each stream the traced pass and the
	// layer replay cover.
	traceOps int
}

var specs = []spec{
	{name: "read-selective", roots: 4096, opsPerSec: 10000, op: sGet, op2: sGetIdx, traceOps: 2000},
	{name: "read-bulk", roots: 4096, opsPerSec: 80, op: sGet, op2: sJoin, traceOps: 64},
	{name: "write-commit", roots: 1024, opsPerSec: 40, op: sPut, op2: sTxn, traceOps: 100},
	{name: "mixed-replicated", roots: 1024, durability: server.DurGroup, replicated: true,
		opsPerSec: 45, op: sPut, op2: sVisible, traceOps: 100},
}

// writes reports whether the workload's headline op is a write.
func (sp spec) writes() bool { return sp.op == sPut }

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

const (
	// segments is the number of measured segments; a metric's value is the
	// median over them. Ten rather than five: the host slows down in bursts
	// of about a second, and a median over more, shorter segments shrugs
	// more of them off.
	segments = 10
	// setups is how many times a run times the set-up; setup_s is the
	// median, and the last set-up is the one the segments then run on.
	// coldSetups more come first, untimed: the first set-up in a process
	// runs cold (heap growth, the type intern and subtype caches) and takes
	// half as long again.
	setups     = 4
	coldSetups = 1
	// reopens is the least number of timed reopens; reopen_s is their
	// median. A log that reopens in well under a second is reopened until
	// reopenFloor has been spent (at most maxReopens times), because a
	// median of three 90 ms samples is mostly noise.
	reopens     = 3
	maxReopens  = 9
	reopenFloor = 1500 * time.Millisecond
	// readsPerWrite is how many GETs the mixed-replicated reader issues on
	// the follower for every PUT the writer starts — about half of what it
	// issued flat out at the commit that introduced the benchmark, so reads
	// run beside every write and the reader still keeps up when the code
	// gets slower. A fixed ratio, not "as many as fit": the op mix, and with
	// it allocs_per_op and cpu_us_per_op, must not follow the timing.
	readsPerWrite = 32
)

// sizing is what -smoke shrinks.
type sizing struct {
	seconds  float64
	segments int
	setups   int
	// coldSetups is how many untimed set-ups precede the timed ones.
	coldSetups int
	reopens    int
	// maxReopens caps the extra reopens of a log that reopens quickly.
	maxReopens int
	smoke      bool
}

func (z sizing) roots(sp spec) int {
	if z.smoke {
		return 512
	}
	return sp.roots
}

// segOps is the fixed op count of one segment, per counted worker.
func (z sizing) segOps(sp spec) int {
	n := int(float64(sp.opsPerSec) * z.seconds / float64(segments))
	if n < 10 {
		n = 10 // one whole pattern of the write mix
	}
	return n
}

// warmOps is the unmeasured warm-up segment, per counted worker: a fifth
// of a segment, and at least the planner's observation floor.
func (z sizing) warmOps(sp spec) int {
	n := z.segOps(sp) / 5
	if n < 40 {
		n = 40
	}
	return n
}

func (z sizing) traceOps(sp spec) int {
	if z.smoke {
		return 20
	}
	return sp.traceOps
}

// clients is the closed-loop concurrency: the users are database programs
// that block on each call and a server connection is served strictly
// sequentially, so concurrency = connections.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// stream is one worker's pre-generated ops.
type stream struct {
	ops []op
	// paced marks the mixed-replicated reader: no op quota of its own, it
	// reads from the follower readsPerWrite times per write the writer starts.
	paced bool
}

// inputs is everything generated from the seed; the servers receive only
// this.
type inputs struct {
	m        *model
	joinWant int
	streams  []stream
}

// readStream is the length of a read stream. Workers walk their streams
// cyclically; reads may repeat, so a short stream keeps the harness's own
// heap out of heap_live_mb.
const readStream = 4096

// genInputs makes the store contents and the op streams. A write stream is
// long enough for the warm-up and all measured segments without wrapping,
// so no write is ever issued twice.
func genInputs(sp spec, z sizing, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{m: newModel(z.roots(sp), rng)}
	in.joinWant = in.m.joinWant()
	per := z.warmOps(sp) + z.segOps(sp)*z.segments
	for i := 0; i < clients(); i++ {
		switch sp.name {
		case "read-selective":
			in.streams = append(in.streams, stream{ops: in.m.selectiveOps(readStream, rng)})
		case "read-bulk":
			in.streams = append(in.streams, stream{ops: in.m.bulkOps(readStream)})
		case "write-commit":
			// Each writer owns the root ids congruent to its index, so the
			// last acked value of every root is known without ordering the
			// writers.
			var owned []int
			for id := i; id < len(in.m.roots); id += clients() {
				owned = append(owned, id)
			}
			in.streams = append(in.streams, stream{ops: in.m.commitOps(per, owned, rng)})
		}
	}
	if sp.name == "mixed-replicated" {
		in.streams = []stream{
			{ops: in.m.putOps(per, rng)},
			{ops: in.m.selectiveOps(readStream, rng), paced: true},
		}
	}
	return in
}

// setup generates the inputs from the seed, preloads and boots the
// server(s), declares the index, lets the follower catch up and runs the
// unmeasured warm-up segment (the planner's telemetry-fed priors settle in
// it). All of it is setup_s.
func setup(sp spec, z sizing, seed int64, cfg server.Config) (e *env, err error) {
	in := genInputs(sp, z, seed)
	dir, err := newDir()
	if err != nil {
		return nil, err
	}
	e = &env{dir: dir, m: in.m, joinWant: in.joinWant}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.primary, err = openStore(logPath(dir, "primary")); err != nil {
		return e, err
	}
	if err = e.primary.preload(e.m); err != nil {
		return e, err
	}
	cfg.Durability = sp.durability
	if err = e.primary.serve(cfg); err != nil {
		return e, err
	}
	pc, err := dial(e.primary.addr)
	if err != nil {
		return e, err
	}
	defer pc.Close()
	if _, err = pc.CreateIndex(indexField); err != nil {
		return e, err
	}
	if sp.replicated {
		if e.follower, err = openStore(logPath(dir, "follower")); err != nil {
			return e, err
		}
		fcfg := cfg
		fcfg.Follow = e.primary.addr
		if err = e.follower.serve(fcfg); err != nil {
			return e, err
		}
		if err = e.waitCaughtUp(e.primary.store.DurableEnd()); err != nil {
			return e, err
		}
		// The follower's durable end moves before it publishes what it
		// applied; its readers must not start on the empty state.
		if err = e.follower.waitRoots(len(e.m.roots)); err != nil {
			return e, err
		}
	}
	for _, st := range in.streams {
		addr := e.primary.addr
		if st.paced {
			addr = e.follower.addr
		}
		c, err := dial(addr)
		if err != nil {
			return e, err
		}
		e.workers = append(e.workers, &worker{c: c, ops: st.ops, paced: st.paced})
	}
	if warm := e.run(z.warmOps(sp)); warm.failed > 0 {
		return e, fmt.Errorf("warm-up: %d of %d ops failed, first: %w", warm.failed, warm.failed+warm.ops, warm.why)
	}
	return e, nil
}

// measured is everything one workload run produced. setupS and reopenS are
// at the reference host speed (calib.go); segs carry their factor; openS is
// as the host ran it, like every per-layer number.
type measured struct {
	setupS   []float64
	segs     []segment
	heapMB   float64
	logMB    float64
	reopenS  []float64
	openS    []float64 // the OpenFS share of each reopen
	groups   int64     // commit groups in the final log, from the primary's registry
	failed   int
	deltas   []nodeDelta // registry and device deltas over the measured segments
	mismatch int         // reopen oracle mismatches
}

// runEndToEnd is the untraced pass: set up (several times, keeping the
// last), run the measured segments, then close and reopen the store.
func runEndToEnd(sp spec, z sizing, seed int64) (*measured, error) {
	var out measured
	var e *env
	host := hostClock{off: z.smoke}
	for i := 0; i < z.coldSetups+z.setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		if i == z.coldSetups {
			host.start()
		}
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		if e, err = setup(sp, z, seed, server.Config{}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i >= z.coldSetups {
			wall, cpu := time.Since(t0), cpuTime()-cpu0
			out.setupS = append(out.setupS, atRef(wall, cpu, host.factor()).Seconds())
		}
	}
	defer e.close()

	before := e.snapshot()
	for i := 0; i < z.segments; i++ {
		seg := e.run(z.segOps(sp))
		seg.host = host.factor()
		out.failed += seg.failed
		out.segs = append(out.segs, seg)
	}
	out.deltas = e.snapshot().sub(before)

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	out.logMB = float64(e.primary.store.DurableEnd()) / (1 << 20)
	if c, ok := e.primary.reg.Snapshot().Counter("dbpl_server_commits_total"); ok {
		out.groups = int64(c) + 1 // the preload commit went to the store directly
	}

	if err := e.stopServers(); err != nil {
		return nil, err
	}
	var spent time.Duration
	host.start()
	for i := 0; i < z.reopens || (i < z.maxReopens && spent < reopenFloor); i++ {
		total, cpu, open, bad, err := e.reopen()
		spent += total
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		out.reopenS = append(out.reopenS, atRef(total, cpu, host.factor()).Seconds())
		out.openS = append(out.openS, open.Seconds())
		out.mismatch += bad
	}
	return &out, nil
}
