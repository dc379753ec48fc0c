package intrinsic

import (
	"fmt"
	"io"
	"os"

	"dbpl/internal/persist/iofault"
	"dbpl/internal/types"
)

// FsckReport is the verdict of a structural log verification: how much of
// the file is valid, what it holds, and — when the log is damaged — whether
// the damage is a recoverable torn tail or deterministic corruption.
type FsckReport struct {
	Path    string
	Version byte  // log format version: logVersion, the only one read
	Size    int64 // file size in bytes
	GoodEnd int64 // offset just past the last valid commit group
	Commits int   // valid commit groups
	Nodes   int   // node records inside valid groups
	Types   int   // 'T' records inside valid groups: the type table's size
	Roots   int   // handles in the root table folded over every valid group
	// IndexDefs counts the entries of the last valid index-definition
	// table ('X' record) — the field indexes a reopen will rebuild.
	IndexDefs int
	// Epoch is the last committed promotion epoch ('E' record); 0 for a
	// log that was never promoted.
	Epoch uint64
	// TornTail reports bytes past GoodEnd that a crash explains (an
	// interrupted commit); they are ignored by Open and dropped by Salvage.
	TornTail bool
	// Corrupt is non-nil when the log holds deterministically detected
	// corruption (checksum mismatch or structurally impossible bytes);
	// Open refuses such a log, Salvage recovers the prefix before it.
	Corrupt *CorruptError
}

// String renders the report in the format the fsck CLI verb prints.
func (r *FsckReport) String() string {
	s := fmt.Sprintf("%s: log v%d, %d bytes, %d commits, %d nodes, %d types, %d roots, %d index defs, epoch %d\n",
		r.Path, r.Version, r.Size, r.Commits, r.Nodes, r.Types, r.Roots, r.IndexDefs, r.Epoch)
	s += fmt.Sprintf("last valid commit ends at offset %d", r.GoodEnd)
	switch {
	case r.Corrupt != nil:
		s += fmt.Sprintf("\nCORRUPT at offset %d: %s", r.Corrupt.Offset, r.Corrupt.Reason)
		s += fmt.Sprintf("\nsalvageable prefix: %d bytes", r.GoodEnd)
	case r.TornTail:
		s += fmt.Sprintf("\ntorn tail: %d trailing bytes from an interrupted commit (ignored on open)", r.Size-r.GoodEnd)
	default:
		s += "\nclean"
	}
	return s
}

// Fsck verifies the log at path without opening it as a store: it checks
// every record's structure, that every type ordinal is defined by a 'T'
// record before it, and every commit group's CRC-32C, and reports the last
// valid commit offset. It never modifies the file. A log of another
// version is not verified: Fsck returns its *LogVersionError.
func Fsck(path string) (*FsckReport, error) {
	return FsckFS(iofault.OS{}, path)
}

// FsckFS is Fsck over an explicit file system.
func FsckFS(fsys iofault.FS, path string) (*FsckReport, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := fsys.Stat(path)
	if err != nil {
		return nil, err
	}
	data, err := readLog(f)
	if err != nil {
		return nil, err
	}

	rep := &FsckReport{Path: path, Size: fi.Size()}
	var fold groupFold // no data: node records are counted, not kept
	var tab []types.Type
	sum, err := scanLog(data, fold.sink(&tab))
	if err != nil {
		return nil, err
	}
	rep.Version = logVersion
	if sum.empty {
		return rep, nil
	}
	rep.GoodEnd = sum.goodEnd
	rep.Commits = sum.commits
	rep.Nodes = fold.nodeRecs
	rep.Types = len(tab)
	rep.Roots = len(fold.upserts)
	rep.IndexDefs = len(fold.defs)
	rep.Epoch = fold.epoch
	rep.TornTail = sum.torn
	rep.Corrupt = sum.corrupt
	return rep, nil
}

// Salvage copies the valid prefix of the log at src — everything up to and
// including the last valid commit group — into a fresh log at dst, written
// atomically and durably. The result opens cleanly and holds exactly the
// last committed state; torn or corrupt bytes are dropped. It returns the
// fsck report of the source, whose GoodEnd is the number of bytes kept. A
// source of another log version is refused (*LogVersionError) and no dst
// is written.
func Salvage(src, dst string) (*FsckReport, error) {
	return SalvageFS(iofault.OS{}, src, dst)
}

// SalvageFS is Salvage over an explicit file system.
func SalvageFS(fsys iofault.FS, src, dst string) (*FsckReport, error) {
	rep, err := FsckFS(fsys, src)
	if err != nil {
		return nil, err
	}
	if rep.Corrupt != nil && rep.GoodEnd == 0 {
		// Not even the header survived; a fresh empty log is all that can
		// be salvaged.
		err := iofault.AtomicWriteFile(fsys, dst, func(w io.Writer) error {
			_, werr := w.Write(append([]byte(logMagic), logVersion))
			return werr
		})
		if err != nil {
			return nil, err
		}
		return rep, nil
	}
	f, err := fsys.OpenFile(src, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	err = iofault.AtomicWriteFile(fsys, dst, func(w io.Writer) error {
		_, cerr := io.CopyN(w, f, rep.GoodEnd)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}
