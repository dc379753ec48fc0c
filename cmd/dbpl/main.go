// Command dbpl runs programs in the database programming language, or an
// interactive REPL when no script is given.
//
// Usage:
//
//	dbpl [-store file] [-rep dir] [script.dbpl ...]
//
// With -store, `persistent` declarations and commit/abort are backed by an
// intrinsic store at the given path; with -rep, extern/intern are backed by
// a replicating store in the given directory. Scripts run in order in one
// session, so a later script sees the bindings of earlier ones.
//
// The fsck verb verifies an intrinsic store log offline:
//
//	dbpl fsck [-salvage out.log] store.log
//
// The serve verb exposes a store to concurrent remote clients (see
// docs/SERVER.md):
//
//	dbpl serve [-addr :7070] store.log
//
// The stats verb renders a running server's telemetry snapshot (see
// docs/OBSERVABILITY.md):
//
//	dbpl stats [-watch] addr
//
// The trace verb renders a server's retained request traces — the span
// trees a server started with -trace-sample records:
//
//	dbpl trace [-follow] addr
//
// The promote verb orders a follower started with -allow-promote to take
// over as primary during failover (see docs/REPLICATION.md):
//
//	dbpl promote addr
//
// Every verb handles SIGINT/SIGTERM gracefully: open stores are closed
// (the server additionally drains in-flight requests) before exiting.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dbpl/internal/lang"
	"dbpl/internal/persist/intrinsic"
	"dbpl/internal/persist/replicating"
)

// verbs maps each subcommand to its runner; any other first argument is
// a script path (or a flag) for the language runner.
var verbs = map[string]func([]string, io.Writer) error{
	"fsck":    runFsck,
	"serve":   runServe,
	"stats":   runStats,
	"trace":   runTrace,
	"promote": runPromote,
}

func main() {
	if len(os.Args) > 1 {
		if verb, ok := verbs[os.Args[1]]; ok {
			if err := verb(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "dbpl: %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dbpl:", err)
		os.Exit(1)
	}
}

func run() error {
	storePath := flag.String("store", "", "intrinsic store file backing `persistent` declarations")
	repDir := flag.String("rep", "", "replicating store directory backing extern/intern")
	quiet := flag.Bool("q", false, "suppress the value echo of top-level declarations")
	flag.Parse()

	in := lang.New(os.Stdout)
	var st *intrinsic.Store
	if *storePath != "" {
		var err error
		st, err = intrinsic.Open(*storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		in.Intrinsic = st
	}
	if *repDir != "" {
		rep, err := replicating.Open(*repDir)
		if err != nil {
			return err
		}
		in.Replicating = rep
	}
	// SIGINT/SIGTERM must not abandon an open store: close it (waiting out
	// any in-flight commit, which holds the store mutex) before exiting —
	// the same graceful-shutdown discipline the serve verb uses.
	stop := onSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "dbpl: %v — closing store\n", sig)
		if st != nil {
			st.Close()
		}
		os.Exit(exitCode(sig))
	})
	defer stop()

	if flag.NArg() == 0 {
		return repl(in)
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		results, err := in.Run(string(src))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !*quiet {
			for _, r := range results {
				fmt.Println(r)
			}
		}
	}
	return nil
}

// repl reads declarations interactively. Input accumulates until the
// brackets balance and the line ends with a semicolon (or is blank), so
// multi-line functions paste naturally.
func repl(in *lang.Interp) error {
	fmt.Println("dbpl — a database programming language (SIGMOD '86 reproduction)")
	fmt.Println(`end inputs with ";" — e.g.  let x = 1;  then  x + 1;`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("dbpl> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		pending.WriteString(line)
		pending.WriteByte('\n')
		src := pending.String()
		if strings.TrimSpace(src) == "" {
			pending.Reset()
			prompt()
			continue
		}
		if !balanced(src) || !strings.HasSuffix(strings.TrimSpace(src), ";") {
			prompt()
			continue
		}
		pending.Reset()
		results, err := in.Run(src)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			for _, r := range results {
				fmt.Println(r)
			}
		}
		prompt()
	}
	fmt.Println()
	return sc.Err()
}

// balanced reports whether every bracket in src is closed (strings and
// comments are respected loosely: quotes toggle, -- skips to newline).
func balanced(src string) bool {
	depth := 0
	inStr := byte(0)
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inStr != 0 {
			if c == '\\' {
				i++
			} else if c == inStr {
				inStr = 0
			}
			continue
		}
		switch c {
		case '"', '\'':
			inStr = c
		case '-':
			if i+1 < len(src) && src[i+1] == '-' {
				for i < len(src) && src[i] != '\n' {
					i++
				}
			}
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		}
	}
	return depth == 0 && inStr == 0
}
