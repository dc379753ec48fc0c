// End-to-end group-commit tests: concurrent writers racing through the
// wire protocol against a coalescing server, meaningful under -race
// (`make race`). The stress test proves the coalescer under real client
// concurrency, not just the white-box batches.
package server_test

import (
	"fmt"
	iofs "io/fs"
	"math/rand"
	"path/filepath"
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

// slowSyncFS models a disk whose fsync takes 2 ms, as the benchmark's
// modeled disk does. On a fast disk the shared fsync can finish before
// the next writer's frame is even parsed, and a group-commit server then
// sees batches of one; over this one, concurrent writers queue behind
// every fsync and batches form on any host.
type slowSyncFS struct{ iofault.FS }

func (s slowSyncFS) OpenFile(name string, flag int, perm iofs.FileMode) (iofault.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f}, nil
}

type slowSyncFile struct{ iofault.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(2 * time.Millisecond)
	return f.File.Sync()
}

// bootSlowSync is bootCfg over a store opened on slowSyncFS.
func bootSlowSync(t *testing.T, path string, cfg server.Config) *harness {
	t.Helper()
	st, err := intrinsic.OpenFS(slowSyncFS{iofault.OS{}}, path)
	if err != nil {
		t.Fatal(err)
	}
	return bootCfg(t, path, st, cfg)
}

// TestGroupCommitRaceStress races PUT, DELETE and multi-op transactions
// from many goroutines against a Durability=group server, recording
// exactly what was acknowledged, then reopens the log and checks the
// whole acknowledgement contract at once: every acked write is durable
// with its exact value, every acked delete stayed deleted, and the
// coalescer actually shared fsyncs (the batch metrics are non-trivial).
func TestGroupCommitRaceStress(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stress.log")
	reg := telemetry.NewRegistry()
	h := bootSlowSync(t, path, server.Config{Durability: server.DurGroup, Registry: reg})

	const (
		writers = 8
		rounds  = 30
	)
	// ground truth per goroutine: root -> last acked value, or -1 for an
	// acked delete. Namespaces are disjoint (g<i>-r<j>) so no cross-writer
	// coordination is needed to know the expected final state.
	truth := make([]map[string]int64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		truth[g] = make(map[string]int64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(h.addr, &client.Options{PoolSize: 1})
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("g%d-r%d", g, rng.Intn(8))
				switch rng.Intn(4) {
				case 0: // delete whatever the name holds
					if _, err := c.Delete(name); err != nil {
						errs[g] = fmt.Errorf("round %d delete %s: %w", r, name, err)
						return
					}
					truth[g][name] = -1
				case 1: // multi-op transaction: two roots commit atomically
					sess, err := c.Begin()
					if err != nil {
						errs[g] = fmt.Errorf("round %d begin: %w", r, err)
						return
					}
					other := fmt.Sprintf("g%d-r%d", g, rng.Intn(8))
					v1, v2 := int64(r*2), int64(r*2+1)
					if err := sess.Put(name, value.Int(v1), nil); err == nil {
						err = sess.Put(other, value.Int(v2), nil)
						if err == nil {
							err = sess.Commit()
						}
					}
					if err != nil {
						errs[g] = fmt.Errorf("round %d txn: %w", r, err)
						return
					}
					truth[g][name] = v1
					truth[g][other] = v2
				default: // plain put
					v := int64(r)
					if err := c.Put(name, value.Int(v), nil); err != nil {
						errs[g] = fmt.Errorf("round %d put %s: %w", r, name, err)
						return
					}
					truth[g][name] = v
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}

	// The coalescer must have formed at least one multi-group batch under
	// this much concurrency: commits outnumber fsyncs.
	// Each batch saves its groups but one fsync: the batch-size sum minus
	// its count.
	snap := reg.Snapshot()
	batches, _ := snap.Histogram("dbpl_commit_batch_groups")
	saved := uint64(batches.Sum) - batches.Count
	commits, _ := snap.Counter("dbpl_server_commits_total")
	if saved == 0 {
		t.Errorf("dbpl_commit_batch_groups sum %d, count %d after %d concurrent writers x %d rounds: nothing coalesced",
			batches.Sum, batches.Count, writers, rounds)
	}
	t.Logf("stress: %d commits, %d fsyncs saved", commits, saved)

	h.stop()
	fresh, err := intrinsic.Open(path)
	if err != nil {
		t.Fatalf("reopen after stress: %v", err)
	}
	defer fresh.Close()
	for g := 0; g < writers; g++ {
		for name, want := range truth[g] {
			r, ok := fresh.Root(name)
			if want == -1 {
				if ok {
					t.Errorf("root %q bound after an acknowledged delete", name)
				}
				continue
			}
			if !ok {
				t.Errorf("acknowledged root %q lost", name)
				continue
			}
			if !value.Equal(r.Value, value.Int(want)) {
				t.Errorf("root %q = %v, want %d", name, r.Value, want)
			}
		}
	}
}

// TestGroupCommitChaosRetries is the chaos resets test pointed at a
// coalescing server: one-shot connection resets force client retries
// whose idempotency keys cross batch boundaries, and the dedup must still
// apply each acked write exactly once. Reopen verifies values.
func TestGroupCommitChaosRetries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos-group.log")
	h := bootSlowSync(t, path, server.Config{Durability: server.DurGroup})
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
			p.ResetAfter(netfault.ServerToClient, 0) // kill the ack: retry re-sends an applied write
		}
		name := fmt.Sprintf("k%03d", i)
		if err := c.Put(name, value.Int(int64(i)), nil); err == nil {
			acked[name] = int64(i)
		}
	}
	if len(acked) < n/2 {
		t.Fatalf("only %d/%d puts acknowledged through the retries", len(acked), n)
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
