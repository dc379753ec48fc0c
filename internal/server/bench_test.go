package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"dbpl/client"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/server"
	"dbpl/internal/types"
	"dbpl/internal/value"
)

// BenchmarkServeGet measures the full remote GET round trip — client
// encode, TCP, server-side lock-free extent extraction, response framing,
// client decode — over a 512-root store at three selectivities: the query
// type matches all roots, a tagged 1/8 subset, or none (E13 in
// EXPERIMENTS.md). A fourth query matches the 512 roots and one more, a
// record with a list of 8192 ints, so its reply mixes image sizes.
// Parallel variants multiplex pipelined clients over the loopback.
func BenchmarkServeGet(b *testing.B) {
	const nRoots = 512
	baseT := types.MustParse("{Name: String, Empno: Int}")
	taggedT := types.MustParse("{Name: String, Empno: Int, Tag: Bool}")
	missT := types.MustParse("{Nonesuch: Int}")
	nameT := types.MustParse("{Name: String}")

	st, err := intrinsic.Open(filepath.Join(b.TempDir(), "bench.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < nRoots; i++ {
		name := fmt.Sprintf("r%04d", i)
		var v value.Value
		var t types.Type
		if i%8 == 0 { // the 1/8 selectivity tier
			v = value.Rec("Name", value.String(name), "Empno", value.Int(int64(i)), "Tag", value.Bool(true))
			t = taggedT
		} else {
			v = value.Rec("Name", value.String(name), "Empno", value.Int(int64(i)))
			t = baseT
		}
		if err := st.Bind(name, v, t); err != nil {
			b.Fatal(err)
		}
	}
	log := make([]value.Value, 8192)
	for i := range log {
		log[i] = value.Int(int64(i))
	}
	bigT := types.MustParse("{Name: String, Log: List[Int]}")
	if err := st.Bind("big", value.Rec("Name", value.String("big"), "Log", value.NewList(log...)), bigT); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		b.Fatal(err)
	}

	srv, err := server.New(st, server.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	cases := []struct {
		name string
		t    types.Type
		want int
	}{
		{"all-512", baseT, nRoots},
		{"tagged-64", taggedT, nRoots / 8},
		{"miss-0", missT, 0},
		{"mixed-513", nameT, nRoots + 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			c, err := client.Dial(addr, &client.Options{PoolSize: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps, err := c.Get(tc.t)
				if err != nil {
					b.Fatal(err)
				}
				if len(ps) != tc.want {
					b.Fatalf("got %d, want %d", len(ps), tc.want)
				}
			}
		})
		b.Run(tc.name+"-parallel", func(b *testing.B) {
			c, err := client.Dial(addr, &client.Options{PoolSize: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					ps, err := c.Get(tc.t)
					if err != nil {
						b.Fatal(err)
					}
					if len(ps) != tc.want {
						b.Fatalf("got %d, want %d", len(ps), tc.want)
					}
				}
			})
		})
	}
}

// joinBulkServer serves a store shaped like the read-bulk benchmark's
// JOIN: 128 {Id, Name, Dept, L} and 8 {…, L2: String} roots on the left,
// 8 {Dept, DName, R} on the right, Dept being a root's position in its
// class mod 8, so every left root meets exactly one right root. It returns
// the address and the two query types; the server stops at cleanup.
func joinBulkServer(tb testing.TB) (addr string, left, right types.Type) {
	tb.Helper()
	left = types.MustParse("{Id: Int, Name: String, Dept: Int, L: Int}")
	wide := types.MustParse("{Id: Int, Name: String, Dept: Int, L: Int, L2: String}")
	right = types.MustParse("{Dept: Int, DName: String, R: Int}")
	st, err := intrinsic.Open(filepath.Join(tb.TempDir(), "join.log"))
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	word := func() value.Value {
		b := make([]byte, 12)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(26))
		}
		return value.String(b)
	}
	noise := func() value.Value { return value.Int(1<<24 + rng.Int63n(1<<24)) }
	bind := func(name string, v value.Value, t types.Type) {
		if err := st.Bind(name, v, t); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 136; i++ {
		r, t := value.Rec("Id", value.Int(int64(i)), "Name", word(), "Dept", value.Int(int64(i%8)), "L", noise()), left
		if i >= 128 {
			r.Set("L2", word())
			t = wide
		}
		bind(fmt.Sprintf("l%03d", i), r, t)
	}
	for i := 0; i < 8; i++ {
		bind(fmt.Sprintf("r%d", i), value.Rec("Dept", value.Int(int64(i)), "DName", word(), "R", noise()), right)
	}
	if _, err := st.Commit(); err != nil {
		tb.Fatal(err)
	}
	srv, err := server.New(st, server.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() {
		srv.Shutdown(context.Background())
		st.Close()
	})
	return ln.Addr().String(), left, right
}

// BenchmarkServeJoin measures the full remote JOIN round trip of the
// read-bulk shape, 136 × 8 records joined into 136 (E29 and E36 in
// EXPERIMENTS.md): client encode, TCP, both sides' kept relations read,
// the hash join, each row merged from its pair's stored bytes at the meet
// of their witnesses, and the client's decode. In warm no commit comes
// between the JOINs, so each reads both sides' relations as the index
// set's type generation keeps them. In after-commit each JOIN follows an
// untimed PUT that rebinds a left root, so each rebuilds the left side's
// relation: the price of a kept relation's miss.
func BenchmarkServeJoin(b *testing.B) {
	addr, left, right := joinBulkServer(b)
	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, afterCommit := range []bool{false, true} {
		name := "warm"
		if afterCommit {
			name = "after-commit"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if afterCommit {
					b.StopTimer()
					v := value.Rec("Id", value.Int(0), "Name", value.String("rebound"), "Dept", value.Int(0), "L", value.Int(int64(i)))
					if err := c.Put("l000", v, left); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				vs, err := c.Join(left, right)
				if err != nil {
					b.Fatal(err)
				}
				if len(vs) != 136 {
					b.Fatalf("got %d, want 136", len(vs))
				}
			}
		})
	}
}

// TestServeJoinBulkAllocs: a warm loopback JOIN of the read-bulk shape
// costs at most 40 allocations in the whole process. It measures 35 with
// Go 1.24 on linux/amd64, 36 under -race; the bound is within 15 % of
// both. The server makes 9: 4 read the request and 5 write the reply,
// whose rows are merged from the members' stored bytes. Reading the two
// sides costs nothing: each side's relation is kept in the index set's
// type generation while its extents are unchanged, and the relation keeps
// its label set and its partition on the join label, so relation.PlanJoin
// and relation.EachPair only probe them. The client's request and its
// decode of the reply make the other 26. No joined record is built, and
// each pair of witnesses meets once per type generation.
func TestServeJoinBulkAllocs(t *testing.T) {
	const maxAllocs = 40
	addr, left, right := joinBulkServer(t)
	c, err := client.Dial(addr, &client.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	join := func() {
		vs, err := c.Join(left, right)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 136 {
			t.Fatalf("JOIN returned %d records, want 136", len(vs))
		}
	}
	for i := 0; i < 5; i++ {
		join()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		join()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("a 136 × 8 JOIN: %.0f allocations process-wide", allocs)
	if allocs > maxAllocs {
		t.Errorf("a 136 × 8 JOIN costs %.0f allocations process-wide, want <= %d", allocs, maxAllocs)
	}
}

// BenchmarkServePutConcurrency measures aggregate autocommitting PUT
// throughput as the writer count grows, per durability mode (E18 in
// EXPERIMENTS.md). Under per-commit every writer pays a private fsync so
// the aggregate flatlines; under group concurrent commits share one
// fsync and throughput scales with the batch.
func BenchmarkServePutConcurrency(b *testing.B) {
	rec := value.Rec("Name", value.String("bench"), "Empno", value.Int(1))
	recT := types.MustParse("{Name: String, Empno: Int}")

	for _, mode := range []server.Durability{server.DurPerCommit, server.DurGroup} {
		for _, writers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/writers-%d", mode, writers), func(b *testing.B) {
				st, err := intrinsic.Open(filepath.Join(b.TempDir(), "bench-e18.log"))
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				srv, err := server.New(st, server.Config{Durability: mode})
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go srv.Serve(ln)
				defer srv.Shutdown(context.Background())
				addr := ln.Addr().String()

				clients := make([]*client.Client, writers)
				for w := range clients {
					if clients[w], err = client.Dial(addr, &client.Options{PoolSize: 1}); err != nil {
						b.Fatal(err)
					}
					defer clients[w].Close()
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					w := w
					n := b.N / writers
					if w < b.N%writers {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						name := fmt.Sprintf("w%d", w)
						for i := 0; i < n; i++ {
							if err := clients[w].Put(name, rec, recT); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkReopen measures recovery: intrinsic.Open replaying a 4 096-root
// log declared at 41 record types — one root in eight carries a list of 16
// sub-records — and server.New deriving the published state from it. The
// log is written as 16 commit groups and is never appended to, so every
// iteration replays the same bytes.
func BenchmarkReopen(b *testing.B) {
	const nRoots, nTypes, perGroup = 4096, 41, 256
	path := filepath.Join(b.TempDir(), "reopen.log")
	st, err := intrinsic.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	itemT := types.MustParse("{Sku: Int, Qty: Int}")
	for i := 0; i < nRoots; i++ {
		k := i % nTypes
		v := value.Rec("Id", value.Int(int64(i)), "Name", value.String(fmt.Sprintf("n%05d", i)),
			fmt.Sprintf("F%d", k), value.Int(int64(k)))
		t := types.MustParse(fmt.Sprintf("{Id: Int, Name: String, F%d: Int}", k))
		if i%8 == 0 {
			items := value.NewList()
			for j := 0; j < 16; j++ {
				items.Append(value.Rec("Sku", value.Int(int64(j)), "Qty", value.Int(1)))
			}
			v.Set("Items", items)
			t = types.NewRecord(append(t.(*types.Record).Fields(), types.Field{Label: "Items", Type: types.NewList(itemT)})...)
		}
		if err := st.Bind(fmt.Sprintf("r%05d", i), v, t); err != nil {
			b.Fatal(err)
		}
		if (i+1)%perGroup == 0 {
			if _, err := st.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	st.Close()
	fixture, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := intrinsic.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(st, server.Config{})
		if err != nil {
			b.Fatal(err)
		}
		srv.Shutdown(context.Background())
		st.Close()
	}
	b.StopTimer()
	after, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	if after.Size() != fixture.Size() {
		b.Fatalf("the reopen fixture grew from %d to %d bytes", fixture.Size(), after.Size())
	}
}

// BenchmarkServePut measures the autocommitting remote PUT round trip —
// the write path the resilience layer touches twice per request: the
// admission gate (one atomic add/sub) and the idempotency-key lookup +
// record inside the commit (E14 in EXPERIMENTS.md). The dedup-off
// variant isolates the key machinery's cost by disabling the cache. The
// roots dimension pre-binds a store of that many roots at another type,
// so a flat row shows that publishing one rebind costs what it changed,
// not a copy of the store (E24).
func BenchmarkServePut(b *testing.B) {
	rec := value.Rec("Name", value.String("bench"), "Empno", value.Int(1))
	recT := types.MustParse("{Name: String, Empno: Int}")
	fillT := types.MustParse("{Name: String, Id: Int}")

	for _, tc := range []struct {
		name string
		cfg  server.Config
	}{
		{"dedup-on", server.Config{}},
		{"dedup-off", server.Config{IdemCacheSize: -1}},
	} {
		for _, roots := range []int{1, 1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("%s/roots-%d", tc.name, roots), func(b *testing.B) {
				st, err := intrinsic.Open(filepath.Join(b.TempDir(), "bench-put.log"))
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				for i := 0; i < roots; i++ {
					name := fmt.Sprintf("r%05d", i)
					if err := st.Bind(name, value.Rec("Name", value.String(name), "Id", value.Int(int64(i))), fillT); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := st.Commit(); err != nil {
					b.Fatal(err)
				}
				srv, err := server.New(st, tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				go srv.Serve(ln)
				defer srv.Shutdown(context.Background())
				c, err := client.Dial(ln.Addr().String(), &client.Options{PoolSize: 1})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.Put("k", rec, recT); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
