package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/telemetry"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// node is one in-process server over the modeled disk. The store is opened
// through telemetry.InstrumentFS around the slow FS, and the server shares
// the registry, so one snapshot covers store and server.
type node struct {
	path  string
	fs    slowFS
	reg   *telemetry.Registry
	store *intrinsic.Store
	srv   *server.Server
	addr  string
	done  chan error

	stopped bool
}

// openStore opens (or creates) the log at path over a fresh modeled disk.
func openStore(path string) (*node, error) {
	n := &node{path: path, fs: newSlowFS(), reg: telemetry.NewRegistry()}
	st, err := intrinsic.OpenFS(telemetry.InstrumentFS(n.fs, n.reg), path)
	if err != nil {
		return nil, err
	}
	n.store = st
	return n, nil
}

// serve boots a server over the node's store on a loopback port.
func (n *node) serve(cfg server.Config) error {
	cfg.Registry = n.reg
	srv, err := server.New(n.store, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv, n.addr, n.done = srv, ln.Addr().String(), make(chan error, 1)
	go func() { n.done <- srv.Serve(ln) }()
	return nil
}

// stop drains the server (when one was booted) and closes the store. It
// is a no-op on a nil or already stopped node.
func (n *node) stop() error {
	if n == nil || n.stopped {
		return nil
	}
	n.stopped = true
	var err error
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = n.srv.Shutdown(ctx)
		cancel()
		<-n.done
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func dial(addr string) (*client.Client, error) {
	return client.Dial(addr, &client.Options{
		PoolSize:    1,
		RetryPolicy: client.RetryPolicy{MaxAttempts: 1}, // failures must surface, not be retried away
	})
}

// series names one latency sample set of a segment.
type series uint8

const (
	sGet series = iota
	sGetIdx
	sJoin
	sPut
	sDelete
	sTxn
	sVisible // primary ack → follower durable end covers it
	numSeries
)

var seriesNames = [numSeries]string{"get", "get_indexed", "join", "put", "delete", "txn", "repl_visible"}

// worker is one closed-loop client: a connection and the op stream it
// walks, one blocking call at a time.
type worker struct {
	c    *client.Client
	ops  []op
	next int
	// paced marks the mixed-replicated reader: it has no op quota of its own
	// and issues readsPerWrite GETs for every op a counted worker starts.
	paced bool

	// record is how many of the segment's first ops keep the interval of
	// their client call (the traced pass's root spans) in calls.
	record int
	calls  [][2]time.Time

	lat    [numSeries][]int64
	done   int // ops completed this segment (a transaction counts once)
	failed int
	why    error // the first failure, for the error message
	groups int   // commit groups acked this segment
}

// env is one booted workload: its servers, its clients and the oracle.
type env struct {
	dir      string
	m        *model
	primary  *node
	follower *node // nil unless the workload replicates
	workers  []*worker
	joinWant int
}

// stopServers closes the clients and drains the servers; the logs stay.
func (e *env) stopServers() error {
	for _, w := range e.workers {
		w.c.Close()
	}
	e.workers = nil
	// The follower goes first so it does not spend its shutdown redialing a
	// primary that is already gone.
	first := e.follower.stop()
	if err := e.primary.stop(); first == nil {
		first = err
	}
	return first
}

// close stops whatever still runs and removes the stores.
func (e *env) close() error {
	err := e.stopServers()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// preload binds every model root and commits them as one group.
func (n *node) preload(m *model) error {
	for _, r := range m.roots {
		if err := n.store.Bind(r.name, r.val, m.lat.classes[r.class].typ); err != nil {
			return err
		}
	}
	_, err := n.store.Commit()
	return err
}

// waitCaughtUp blocks until the follower's durable end covers target.
func (e *env) waitCaughtUp(target int64) error {
	deadline := time.Now().Add(20 * time.Second)
	for e.follower.store.DurableEnd() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at %d, primary at %d", e.follower.store.DurableEnd(), target)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// waitRoots blocks until the server's published state holds n roots, as
// its public registry reports them.
func (n *node) waitRoots(want int) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		got, _ := n.reg.Snapshot().Gauge("dbpl_server_roots")
		if int(got) == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s publishes %d roots, want %d", n.addr, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// do runs one op to completion, timing each client call, and checks the
// answer against the model. A wrong answer is a failed op.
func (w *worker) do(e *env, o *op) {
	l := e.m.lat
	var err error
	switch o.kind {
	case opGet, opGetIdx:
		q := &l.queries[o.q]
		t0 := time.Now()
		var ps []client.Packed
		ps, err = w.c.Get(q.t)
		d := int64(time.Since(t0))
		w.lat[sGet] = append(w.lat[sGet], d)
		if o.kind == opGetIdx {
			w.lat[sGetIdx] = append(w.lat[sGetIdx], d)
		}
		if err == nil && len(ps) != q.want {
			err = fmt.Errorf("GET %s returned %d records, the model has %d", q.t, len(ps), q.want)
		}
	case opJoin:
		t0 := time.Now()
		var vs []value.Value
		vs, err = w.c.Join(l.queries[l.joinL].t, l.queries[l.joinR].t)
		w.lat[sJoin] = append(w.lat[sJoin], int64(time.Since(t0)))
		if err == nil && len(vs) != e.joinWant {
			err = fmt.Errorf("JOIN returned %d records, the model has %d", len(vs), e.joinWant)
		}
	case opPut:
		err = w.put(e, o.roots[0], o.vals[0])
	case opDelPut:
		r := &e.m.roots[o.roots[0]]
		t0 := time.Now()
		var existed bool
		existed, err = w.c.Delete(r.name)
		w.lat[sDelete] = append(w.lat[sDelete], int64(time.Since(t0)))
		if err == nil && !existed {
			err = fmt.Errorf("DELETE %s: the server had no such root", r.name)
		}
		if err != nil {
			break
		}
		r.val = nil
		w.groups++
		w.done++ // the DELETE and the PUT are two ops
		err = w.put(e, o.roots[0], o.vals[0])
	case opTxn:
		t0 := time.Now()
		err = w.txn(e, o)
		w.lat[sTxn] = append(w.lat[sTxn], int64(time.Since(t0)))
		if err == nil {
			w.groups++
			for i, id := range o.roots {
				e.m.roots[id].val = o.vals[i]
			}
		}
	}
	if err == nil {
		w.done++
		return
	}
	w.failed++
	if w.why == nil {
		w.why = err
	}
}

// step runs the worker's next op, the i-th of the segment.
func (w *worker) step(e *env, i int) {
	t0 := time.Now()
	w.do(e, &w.ops[w.next%len(w.ops)])
	w.next++
	if i < w.record {
		w.calls = append(w.calls, [2]time.Time{t0, time.Now()})
	}
}

// put is one autocommit PUT; on a replicated workload it then waits until
// the follower's durable end covers the primary's.
func (w *worker) put(e *env, id int, v value.Value) error {
	r := &e.m.roots[id]
	t0 := time.Now()
	err := w.c.Put(r.name, v, e.m.lat.classes[r.class].typ)
	t1 := time.Now()
	w.lat[sPut] = append(w.lat[sPut], int64(t1.Sub(t0)))
	if err != nil {
		return err
	}
	r.val = v
	w.groups++
	if e.follower != nil {
		if err := e.waitCaughtUp(e.primary.store.DurableEnd()); err != nil {
			return err
		}
		w.lat[sVisible] = append(w.lat[sVisible], int64(time.Since(t1)))
	}
	return nil
}

func (w *worker) txn(e *env, o *op) error {
	s, err := w.c.Begin()
	if err != nil {
		return err
	}
	defer s.Close()
	for i, id := range o.roots {
		r := &e.m.roots[id]
		if err := s.Put(r.name, o.vals[i], e.m.lat.classes[r.class].typ); err != nil {
			return err
		}
	}
	return s.Commit()
}

// segment is what one measured (or warm-up) stretch of ops produced.
type segment struct {
	// host is the host-speed factor of the moment (calib.go): end-to-end
	// times of the segment are multiplied by it. 1 where nothing calibrated.
	host      float64
	wall      time.Duration
	cpu       time.Duration
	ops       int // succeeded
	failed    int
	why       error // the first failure
	groups    int   // commit groups acked
	logBytes  int64 // primary durable-end growth
	mallocs   uint64
	gcCycles  uint32
	gcPauseNS uint64
	lat       [numSeries][]int64 // sorted
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run drives every counted worker through its next n ops and returns what
// the segment measured. A paced worker is handed readsPerWrite tokens as
// each of those ops starts and runs one op per token, so the segment's op
// mix is fixed whatever the timing; the token channel holds a whole
// segment's worth, so the writer never waits for the reader. The counters
// are read outside the timed stretch; the heap is collected first so every
// segment starts from the same place.
func (e *env) run(n int) segment {
	for _, w := range e.workers {
		for s := range w.lat {
			w.lat[s] = w.lat[s][:0] // grown in the warm-up, reused since
		}
		w.done, w.failed, w.groups, w.why = 0, 0, 0, nil
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end0 := e.primary.store.DurableEnd()
	cpu0 := cpuTime()
	start := time.Now()

	var counted, paced sync.WaitGroup
	pacing := false
	for _, w := range e.workers {
		pacing = pacing || w.paced
	}
	tokens := make(chan struct{}, len(e.workers)*n*readsPerWrite)
	for _, w := range e.workers {
		if w.paced {
			paced.Add(1)
			go func() {
				defer paced.Done()
				i := 0
				for range tokens {
					w.step(e, i)
					i++
				}
			}()
			continue
		}
		counted.Add(1)
		go func() {
			defer counted.Done()
			for i := 0; i < n; i++ {
				for k := 0; pacing && k < readsPerWrite; k++ {
					tokens <- struct{}{}
				}
				w.step(e, i)
			}
		}()
	}
	counted.Wait()
	close(tokens)
	paced.Wait()

	seg := segment{host: 1, wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	seg.logBytes = e.primary.store.DurableEnd() - end0
	seg.mallocs = after.Mallocs - before.Mallocs
	seg.gcCycles = after.NumGC - before.NumGC
	seg.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	for _, w := range e.workers {
		seg.ops += w.done
		seg.failed += w.failed
		if seg.why == nil {
			seg.why = w.why
		}
		seg.groups += w.groups
		for s := range w.lat {
			seg.lat[s] = append(seg.lat[s], w.lat[s]...)
		}
	}
	for s := range seg.lat {
		slices.Sort(seg.lat[s])
	}
	return seg
}

// verifyStore checks a reopened store against the model: the same names,
// each at its declared type with the last acked value. It returns the
// number of mismatches.
func (e *env) verifyStore(st *intrinsic.Store) int {
	bad, live := 0, 0
	for _, r := range e.m.roots {
		got, ok := st.Root(r.name)
		if r.val == nil {
			if ok {
				bad++
			}
			continue
		}
		live++
		if !ok || !types.Equal(got.Declared, e.m.lat.classes[r.class].typ) || !value.Equal(got.Value, r.val) {
			bad++
		}
	}
	if len(st.Names()) != live {
		bad++
	}
	return bad
}

// reopen times recovery of the primary's final log: OpenFS + server.New
// until a client gets its first correct GET; cpu is the process's CPU time
// over the same stretch. openOnly is the OpenFS share (log replay). The store is then checked against the model, outside the
// timing. Each reopen works on a fresh copy of the log, because a server's
// shutdown appends a commit group and the next reopen must not replay it.
func (e *env) reopen() (total, cpu, openOnly time.Duration, mismatches int, err error) {
	b, err := os.ReadFile(e.primary.path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	path := logPath(e.dir, "reopen")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return 0, 0, 0, 0, err
	}
	b = nil
	runtime.GC()
	t0, cpu0 := time.Now(), cpuTime()
	n, err := openStore(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	openOnly = time.Since(t0)
	defer func() {
		if serr := n.stop(); err == nil {
			err = serr
		}
	}()
	if err = n.serve(server.Config{}); err != nil {
		return 0, 0, 0, 0, err
	}
	c, err := dial(n.addr)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer c.Close()
	q := e.m.lat.queries[e.m.lat.badgeLevel]
	ps, err := c.Get(q.t)
	total, cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(ps) != q.want {
		mismatches++
	}
	return total, cpu, openOnly, mismatches + e.verifyStore(n.store), nil
}

// newDir makes a scratch directory for one set-up's stores under out/, so
// the benchmark writes only inside its checkout.
func newDir() (string, error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp("out", "stores-")
}

func logPath(dir, name string) string { return filepath.Join(dir, name+".log") }
