package main

import (
	"os"
	"sync/atomic"
	"time"

	"dbpl/internal/persist/iofault"
)

// syncDelay is the modeled device: every file Sync costs this long. The
// host's fsync is near-free (and varies with whatever file system the
// checkout sits on), so the model replaces it rather than adding to it:
// Sync sleeps and does not reach the host. Crash durability is not under
// test here; the flush *policy* — when the server asks for a sync — is,
// and it is identical on both sides of any comparison.
const syncDelay = 2 * time.Millisecond

// slowFS is the harness-owned disk: an iofault.FS whose files charge
// syncDelay per Sync and count what reaches the device.
type slowFS struct {
	iofault.FS
	c *fsCounters
}

// fsCounters is what the device saw; the fs.* per-layer metrics are
// deltas of it.
type fsCounters struct {
	writes, bytes, syncs, syncNS atomic.Int64
	// onSync, when set, is told each sync's interval; the single-threaded
	// layer replay records its fs.fsync spans through it.
	onSync func(start, end time.Time)
}

type fsCount struct{ writes, bytes, syncs, syncNS int64 }

func (c *fsCounters) load() fsCount {
	return fsCount{c.writes.Load(), c.bytes.Load(), c.syncs.Load(), c.syncNS.Load()}
}

func (a fsCount) sub(b fsCount) fsCount {
	return fsCount{a.writes - b.writes, a.bytes - b.bytes, a.syncs - b.syncs, a.syncNS - b.syncNS}
}

func newSlowFS() slowFS { return slowFS{FS: iofault.OS{}, c: &fsCounters{}} }

func (f slowFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowFile{File: file, c: f.c}, nil
}

type slowFile struct {
	iofault.File
	c *fsCounters
}

func (f slowFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f slowFile) Sync() error {
	start := time.Now()
	time.Sleep(syncDelay)
	end := time.Now()
	f.c.syncs.Add(1)
	f.c.syncNS.Add(int64(end.Sub(start)))
	if f.c.onSync != nil {
		f.c.onSync(start, end)
	}
	return nil
}
