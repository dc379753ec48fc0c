// The serve verb: a concurrent database server over an intrinsic store.
//
//	dbpl serve [-addr :7070] [-drain 5s] [-follow primary:7070] [-allow-promote] [-fsck]
//	           [-max-inflight n] [-durability per-commit|group]
//	           [-ops 127.0.0.1:7071] [-trace-sample p] [-trace-ring n] store.log
//
// With -follow the server is a read-only replication follower: it streams
// the primary's log, applies each verified commit group to its own, and
// serves reads while refusing writes. With -allow-promote it additionally
// accepts the PROMOTE admin opcode (`dbpl promote addr`), which turns a
// follower into the new primary at a bumped, durable promotion epoch —
// see docs/REPLICATION.md for the failover runbook.
//
// -durability selects how many commits share one fsync. Both modes run
// the same commit pipeline and ack a write only after its fsync:
// per-commit (default) is a batch of one commit group per fsync; group
// coalesces up to 64 concurrent commits under one shared fsync (same
// guarantee, amortized cost). See docs/PERSISTENCE.md.
//
// See docs/SERVER.md for the wire protocol and transaction semantics,
// docs/RESILIENCE.md for admission control and degraded mode,
// docs/REPLICATION.md for log shipping and follower semantics,
// docs/OBSERVABILITY.md for the metrics the -ops endpoint exposes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/iofault"
	"dbpl/internal/server"
	"dbpl/internal/telemetry"
)

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":7070", "TCP listen `address`")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain budget on SIGINT/SIGTERM")
	fsck := fs.Bool("fsck", false, "verify the log before serving; refuse to start on corruption")
	maxInflight := fs.Int("max-inflight", 0, "admission-control cap of `n` concurrently executing requests (0 = default 1024, negative = uncapped)")
	follow := fs.String("follow", "", "replicate from the `primary` at this address and serve read-only")
	allowPromote := fs.Bool("allow-promote", false, "accept the PROMOTE admin opcode (dbpl promote) to take over as primary during failover")
	opsAddr := fs.String("ops", "", "HTTP ops endpoint `address` exposing /metrics, /traces and /debug/pprof; unauthenticated — bind loopback (e.g. 127.0.0.1:7071)")
	durability := fs.String("durability", "per-commit", "`per-commit|group`: per-commit pays one fsync per commit, group lets concurrent commits share one; both ack a write only after its fsync")
	traceSample := fs.Float64("trace-sample", 0, "head-sampling probability `p` for span-based request tracing (0 = off, 1 = trace everything); slow requests are always retained")
	traceRing := fs.Int("trace-ring", 0, "`n` completed traces retained in memory for TRACES//traces (0 = default 256)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError(fs, "store.log")
	}
	dur, err := server.ParseDurability(*durability)
	if err != nil {
		return fmt.Errorf("serve -durability: %w", err)
	}
	if *fsck {
		// Catch a damaged log at startup, before binding the listener —
		// not at the first commit hours later. A missing log is fine (Open
		// creates it); a torn tail is fine too (recovery truncates it and
		// fsck would report the same after a crash).
		if _, err := os.Stat(fs.Arg(0)); err == nil {
			rep, err := intrinsic.Fsck(fs.Arg(0))
			if err != nil {
				return fmt.Errorf("serve -fsck: %w", err)
			}
			if rep.Corrupt != nil {
				return fmt.Errorf("serve -fsck: refusing to serve a corrupt log (%d commits recoverable):\n%s\nrun `dbpl fsck -salvage fresh.log %s` to recover the valid prefix",
					rep.Commits, rep.Corrupt, fs.Arg(0))
			}
			note := "clean"
			if rep.TornTail {
				note = "torn tail, recovery will truncate it"
			}
			fmt.Fprintf(out, "dbpl: fsck %s: %s (%d commits, %d roots)\n", fs.Arg(0), note, rep.Commits, rep.Roots)
		}
	}
	// One registry spans both layers: the store's file I/O is counted by
	// the instrumented FS it is opened through, the server registers its
	// request metrics into the same registry, and one STATS frame (or one
	// /metrics scrape) reports fsync latency next to request latency.
	reg := telemetry.NewRegistry()
	st, err := intrinsic.OpenFS(telemetry.InstrumentFS(iofault.OS{}, reg), fs.Arg(0))
	if err != nil {
		return err
	}
	defer st.Close()

	srv, err := server.New(st, server.Config{
		Logf:            func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
		MaxInFlight:     *maxInflight,
		Registry:        reg,
		Follow:          *follow,
		AllowPromote:    *allowPromote,
		Durability:      dur,
		TraceSampleRate: *traceSample,
		TraceRingSize:   *traceRing,
	})
	if err != nil {
		return err
	}
	if *opsAddr != "" {
		oln, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			return fmt.Errorf("serve -ops: %w", err)
		}
		defer oln.Close()
		go http.Serve(oln, srv.OpsHandler())
		fmt.Fprintf(out, "dbpl: ops endpoint on http://%s/metrics\n", oln.Addr())
	}
	// SIGINT/SIGTERM drain the server, let its committer sync what it
	// holds, and close the store — the same graceful path every verb now
	// shares. The handler goes in before the banner below announces
	// readiness, so a supervisor reacting to the banner can never catch
	// the default (store-abandoning) signal disposition.
	//
	// Shutdown closes the listener first, which makes srv.Serve below
	// return while the handler is still draining in-flight requests — so
	// the handler signals completion through shutdownDone, and Serve's
	// caller waits on it before letting the process exit. Without that
	// wait, returning from runServe would kill requests mid-commit against
	// a store the deferred Close is closing.
	shutdownDone := make(chan struct{})
	stop := onSignal(func(sig os.Signal) {
		defer close(shutdownDone)
		fmt.Fprintf(os.Stderr, "dbpl: %v — draining server and closing store\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "dbpl: shutdown:", err)
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dbpl: close:", err)
		}
		fmt.Fprintln(os.Stderr, "dbpl: store closed")
	})
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The banner is a protocol for scripts and tests: the bound address on
	// one line, flushed before the first Accept.
	if *follow != "" {
		fmt.Fprintf(out, "dbpl: serving %s on %s (%d roots, read-only follower of %s)\n",
			fs.Arg(0), ln.Addr(), srv.Stats().Roots, *follow)
	} else if dur != server.DurPerCommit {
		fmt.Fprintf(out, "dbpl: serving %s on %s (%d roots, durability=%s)\n",
			fs.Arg(0), ln.Addr(), srv.Stats().Roots, dur)
	} else {
		fmt.Fprintf(out, "dbpl: serving %s on %s (%d roots)\n", fs.Arg(0), ln.Addr(), srv.Stats().Roots)
	}

	err = srv.Serve(ln)
	if err != nil && !errors.Is(err, server.ErrServerClosed) {
		return err
	}
	if errors.Is(err, server.ErrServerClosed) {
		// ErrServerClosed means the signal handler called Shutdown; wait
		// for the drain, the committer's last fsync, and the store close
		// to complete before the process exits.
		<-shutdownDone
	}
	fmt.Fprintln(out, "dbpl: server stopped")
	return nil
}

// usageError renders a verb's synopsis from its FlagSet, so the usage line
// names every flag the verb defines and cannot drift from them.
func usageError(fs *flag.FlagSet, operands string) error {
	var b strings.Builder
	b.WriteString("usage: dbpl " + fs.Name())
	fs.VisitAll(func(f *flag.Flag) {
		if arg, _ := flag.UnquoteUsage(f); arg != "" {
			fmt.Fprintf(&b, " [-%s %s]", f.Name, arg)
		} else {
			fmt.Fprintf(&b, " [-%s]", f.Name)
		}
	})
	b.WriteString(" " + operands)
	return errors.New(b.String())
}
