package main

import (
	"flag"
	"fmt"
	"io"

	"dbpl/internal/persist/intrinsic"
)

// runFsck implements the `dbpl fsck` verb:
//
//	dbpl fsck [-salvage out.log] store.log
//
// It verifies the intrinsic store's log — record structure and the
// CRC-32C of every commit group — and reports the last valid commit
// offset. With -salvage it additionally copies the valid prefix into a
// fresh log at the given path. The exit status is nonzero when the log is
// corrupt (a torn tail alone is recoverable and exits zero) or of another
// format version, which the error names and nothing rewrites.
func runFsck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	fs.SetOutput(out)
	salvage := fs.String("salvage", "", "copy the valid log prefix into a fresh log at `path`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dbpl fsck [-salvage out.log] store.log")
	}
	path := fs.Arg(0)

	rep, err := intrinsic.Fsck(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, rep)
	if *salvage != "" {
		if _, err := intrinsic.Salvage(path, *salvage); err != nil {
			return err
		}
		fmt.Fprintf(out, "salvaged %d bytes to %s\n", rep.GoodEnd, *salvage)
	}
	if rep.Corrupt != nil {
		return fmt.Errorf("log is corrupt: %v", rep.Corrupt)
	}
	return nil
}
