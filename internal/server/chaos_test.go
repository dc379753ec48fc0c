package server_test

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/server/netfault"
	"dbpl/internal/telemetry"
	"dbpl/internal/value"
)

// bootCfg is boot with a non-default server.Config and an optional
// pre-opened store (for fault-injected disks); st == nil opens path.
func bootCfg(t testing.TB, path string, st *intrinsic.Store, cfg server.Config) *harness {
	t.Helper()
	if st == nil {
		var err error
		st, err = intrinsic.Open(path)
		if err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	srv, err := server.New(st, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	h := &harness{t: t, path: path, store: st, srv: srv, reg: cfg.Registry, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- srv.Serve(ln) }()
	t.Cleanup(h.stop)
	return h
}

// proxied puts a netfault proxy in front of h and dials a client through
// it with the given options.
func proxied(t *testing.T, h *harness, opts *client.Options) (*netfault.Proxy, *client.Client) {
	t.Helper()
	p, err := netfault.New(h.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := client.Dial(p.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

// noRetry disables the client's retry policy so tests can observe raw
// fault surfaces.
func noRetry() *client.Options {
	return &client.Options{
		RetryPolicy:    client.RetryPolicy{MaxAttempts: -1},
		RequestTimeout: 2 * time.Second,
	}
}

// TestChaosResetsAroundAckedPuts fires connection resets in both
// directions around a stream of retried PUTs, then reopens the log and
// checks the acknowledgement contract: every acknowledged write is on
// disk with its exact value. Resets on the request path make the retry
// re-send an unapplied write; resets on the response path make it
// re-send an *applied* one, which the idempotency dedup must absorb.
func TestChaosResetsAroundAckedPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos-resets.log")
	h := bootCfg(t, path, nil, server.Config{})
	p, c := proxied(t, h, &client.Options{
		RetryPolicy: client.RetryPolicy{MaxAttempts: 8, Budget: -1},
	})

	const n = 40
	acked := make(map[string]int64)
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 1:
			p.ResetAfter(netfault.ClientToServer, 0) // kill the request
		case 3:
			p.ResetAfter(netfault.ServerToClient, 0) // kill the ack
		}
		name := fmt.Sprintf("k%03d", i)
		if err := c.Put(name, value.Int(int64(i)), nil); err == nil {
			acked[name] = int64(i)
		}
	}
	if len(acked) < n/2 {
		t.Fatalf("only %d/%d puts acknowledged; the retry policy should have absorbed the one-shot resets", len(acked), n)
	}

	p.Close()
	h.stop()

	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer fresh.Close()
	for name, want := range acked {
		r, ok := fresh.Root(name)
		if !ok {
			t.Errorf("acknowledged root %q lost", name)
			continue
		}
		if !value.Equal(r.Value, value.Int(want)) {
			t.Errorf("root %q = %v, want %d", name, r.Value, want)
		}
	}
}

// TestChaosRetriedDeleteAppliesExactlyOnce is the observable face of the
// dedup: DELETE's existed bit distinguishes first application (true)
// from a blind re-application (false). The ack of the first DELETE is
// reset in flight; without server-side dedup the retry would re-execute
// against the already-deleted root and report existed=false.
func TestChaosRetriedDeleteAppliesExactlyOnce(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "chaos-dedup.log"), nil, server.Config{})
	p, c := proxied(t, h, nil)

	if err := c.Put("victim", value.Int(7), nil); err != nil {
		t.Fatal(err)
	}
	p.ResetAfter(netfault.ServerToClient, 0)
	existed, err := c.Delete("victim")
	if err != nil {
		t.Fatalf("retried Delete: %v", err)
	}
	if !existed {
		t.Fatal("retried Delete reported existed=false: the retry re-executed instead of hitting the applied-write dedup")
	}
	names, err := c.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == "victim" {
			t.Fatal("victim still bound after acknowledged delete")
		}
	}
}

// blockFS wraps an FS so a test can hold one Sync open: arm() makes the
// next Sync park on a channel (signaling entry), release() lets it
// finish. It turns "a commit is in flight" into a deterministic state
// the overload test can hold the server in.
type blockFS struct {
	iofault.FS
	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{}
}

func (b *blockFS) arm() (entered, hold chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entered = make(chan struct{})
	b.hold = make(chan struct{})
	return b.entered, b.hold
}

func (b *blockFS) OpenFile(name string, flag int, perm iofs.FileMode) (iofault.File, error) {
	f, err := b.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockFile{File: f, b: b}, nil
}

type blockFile struct {
	iofault.File
	b *blockFS
}

func (f *blockFile) Sync() error {
	f.b.mu.Lock()
	entered, hold := f.b.entered, f.b.hold
	f.b.entered, f.b.hold = nil, nil
	f.b.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return f.File.Sync()
}

// TestChaosOverloadStormShedsTyped wedges a cap-1 server's single
// admission slot on a held commit fsync, floods it with concurrent
// writers, and asserts load shedding stays typed and bounded: every
// refusal is CodeOverloaded with a retry-after hint, HEALTH keeps
// answering mid-storm, goroutines do not grow with the request count,
// and the server is fully responsive once the slot frees.
func TestChaosOverloadStormShedsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos-storm.log")
	bfs := &blockFS{FS: iofault.OS{}}
	st, err := intrinsic.OpenFS(bfs, path)
	if err != nil {
		t.Fatal(err)
	}
	h := bootCfg(t, path, st, server.Config{MaxInFlight: 1})

	const clients = 12
	cs := make([]*client.Client, clients)
	for i := range cs {
		cs[i] = dial(t, h, noRetry())
	}
	health := dial(t, h, nil)
	blocker := dial(t, h, noRetry())

	// Occupy the only admission slot: this Put parks inside its commit's
	// fsync until released.
	entered, hold := bfs.arm()
	blockerErr := make(chan error, 1)
	go func() { blockerErr <- blocker.Put("blocker", value.Int(0), nil) }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker Put never reached its commit fsync")
	}

	before := runtime.NumGoroutine()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		sheds   int
		badErrs []error
	)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				err := c.Put(fmt.Sprintf("s%d-%d", i, j), value.Int(int64(j)), nil)
				mu.Lock()
				switch {
				case errors.Is(err, client.ErrOverloaded):
					sheds++
				case err != nil:
					badErrs = append(badErrs, err)
				default:
					// Admitted despite the held slot: the cap leaked.
					badErrs = append(badErrs, fmt.Errorf("s%d-%d was admitted past the cap", i, j))
				}
				mu.Unlock()
			}
		}(i, c)
	}

	// HEALTH and STATS are exempt from admission: both must answer
	// during the storm — the observer keeps observing mid-overload.
	hrep, herr := health.Health()
	midSnap, midErr := health.Stats()
	wg.Wait()

	if herr != nil {
		t.Errorf("Health during storm: %v", herr)
	} else {
		if hrep.Poisoned {
			t.Errorf("Health reported poisoned during a mere overload")
		}
		if hrep.InFlight != 1 {
			t.Errorf("Health.InFlight = %d during the held commit, want 1", hrep.InFlight)
		}
	}
	if midErr != nil {
		t.Errorf("Stats during storm: %v", midErr)
	} else if got, _ := midSnap.Gauge("dbpl_server_inflight"); got < 1 {
		t.Errorf("mid-storm inflight gauge = %d, want >= 1 (the held commit)", got)
	}
	for _, err := range badErrs {
		t.Errorf("storm produced an untyped failure: %v", err)
	}
	if want := clients * 5; sheds != want {
		t.Errorf("sheds = %d, want all %d storm writes refused", sheds, want)
	}

	// The storm is fully accounted for in the registry: every refusal in
	// the shed counter AND under its error code.
	snap, err := health.Stats()
	if err != nil {
		t.Fatalf("Stats after storm: %v", err)
	}
	if got, _ := snap.Counter("dbpl_server_shed_total"); got != uint64(sheds) {
		t.Errorf("shed_total = %d, want %d", got, sheds)
	}
	if got, _ := snap.Counter(`dbpl_server_errors_total{code="overloaded"}`); got != uint64(sheds) {
		t.Errorf(`errors_total{code="overloaded"} = %d, want %d`, got, sheds)
	}

	// Goroutines must be bounded by the connection count, not the request
	// count: the cap sheds instead of queueing.
	if g := runtime.NumGoroutine(); g > before+4*clients {
		t.Errorf("goroutines grew from %d to %d during the storm", before, g)
	}

	// Release the slot: the blocker's write completes and the server is
	// undamaged.
	close(hold)
	select {
	case err := <-blockerErr:
		if err != nil {
			t.Errorf("blocker Put: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocker Put never returned after release")
	}
	if err := health.Put("after", value.Int(1), nil); err != nil {
		t.Errorf("Put after storm: %v", err)
	}
}

// TestChaosPoisonedDegradedHealth poisons the write path through the
// fault-injecting disk (failed commit + failed rollback) and asserts the
// degraded read-only contract: HEALTH reports poisoned, reads keep
// working, and writes refuse with the typed ErrDegraded.
func TestChaosPoisonedDegradedHealth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos-poison.log")
	inj := iofault.NewInjector(iofault.OS{})
	st, err := intrinsic.OpenFS(inj, path)
	if err != nil {
		t.Fatal(err)
	}
	h := bootCfg(t, path, st, server.Config{})
	c := dial(t, h, nil)

	if err := c.Put("A", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Health(); err != nil || rep.Poisoned {
		t.Fatalf("Health before poison = %+v, %v", rep, err)
	}

	// Fail the next commit's append and the rollback's trim behind it.
	inj.FailAt(iofault.OpWrite, inj.Count(iofault.OpWrite)+1)
	inj.FailAt(iofault.OpTruncate, inj.Count(iofault.OpTruncate)+1)
	if err := c.Put("B", value.Int(2), nil); err == nil {
		t.Fatal("Put over failing disk succeeded")
	}

	rep, err := c.Health()
	if err != nil {
		t.Fatalf("Health on poisoned server: %v", err)
	}
	if !rep.Poisoned {
		t.Error("Health.Poisoned = false after failed rollback")
	}
	if rep.Roots != 1 {
		t.Errorf("Health.Roots = %d, want 1", rep.Roots)
	}
	if rep.Uptime <= 0 {
		t.Errorf("Health.Uptime = %v, want > 0", rep.Uptime)
	}

	// Reads still serve the committed view.
	ps, err := c.GetExpr("Int")
	if err != nil {
		t.Fatalf("Get on poisoned server: %v", err)
	}
	if len(ps) != 1 {
		t.Errorf("Get returned %d roots, want 1", len(ps))
	}

	// Writes refuse with the typed degraded error, dispatchable by
	// errors.Is and still naming the poisoning for humans.
	err = c.Put("C", value.Int(3), nil)
	if !errors.Is(err, client.ErrDegraded) {
		t.Errorf("Put on poisoned server = %v, want errors.Is ErrDegraded", err)
	}
	if err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Errorf("degraded refusal %v does not name the poisoning", err)
	}
}

// TestChaosPartitionHealTaxonomy cuts the network mid-session and checks
// the failure is a bounded, typed error — then that the pool recovers
// transparently once the partition heals.
func TestChaosPartitionHealTaxonomy(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "chaos-part.log"), nil, server.Config{})
	p, c := proxied(t, h, noRetry())

	if err := c.Put("pre", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}

	p.Partition()
	start := time.Now()
	_, err := c.Names()
	if err == nil {
		t.Fatal("Names across a partition succeeded")
	}
	var ne net.Error
	if !errors.Is(err, client.ErrConnLost) && !errors.Is(err, client.ErrDeadline) && !errors.As(err, &ne) {
		t.Errorf("partition surfaced as %v, want conn-lost / deadline / net error", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("partitioned call took %v, want bounded by the request timeout", el)
	}

	p.Heal()
	// The pool redials on next use; give the no-retry client a few tries.
	var names []string
	for i := 0; i < 5; i++ {
		if names, err = c.Names(); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("Names after heal: %v", err)
	}
	if len(names) != 1 || names[0] != "pre" {
		t.Errorf("Names after heal = %v, want [pre]", names)
	}
}

// TestChaosFlipByteNeverPanics corrupts the first byte of a response
// frame and asserts the client fails the connection with an error — not
// a panic, not a hang — and recovers on the next call.
func TestChaosFlipByteNeverPanics(t *testing.T) {
	h := bootCfg(t, filepath.Join(t.TempDir(), "chaos-flip.log"), nil, server.Config{})
	p, c := proxied(t, h, noRetry())

	if err := c.Put("x", value.Int(1), nil); err != nil {
		t.Fatal(err)
	}
	p.FlipByte(netfault.ServerToClient, 0)
	if _, err := c.Names(); err == nil {
		t.Fatal("Names over a corrupted frame succeeded")
	}
	// One-shot corruption: the pool redials and the next call is clean.
	var names []string
	var err error
	for i := 0; i < 5; i++ {
		if names, err = c.Names(); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("Names after corruption: %v", err)
	}
	if len(names) != 1 || names[0] != "x" {
		t.Errorf("Names after corruption = %v, want [x]", names)
	}
}
