package telemetry

import (
	"os"
	"time"

	"dbpl/internal/persist/iofault"
)

// FSMetrics is the persistence-seam instrument set: the counters and
// histograms an InstrumentFS updates. One hook point covers every store
// (intrinsic, snapshot, replicating, pascalr) because they all perform
// file I/O exclusively through the iofault.FS seam.
type FSMetrics struct {
	Fsyncs   *Counter   // file fsyncs (the commit latency driver)
	FsyncNS  *Histogram // latency of file and directory fsyncs
	BytesIn  *Counter   // bytes read (reads + ReadFile)
	BytesOut *Counter   // bytes written
	Opens    *Counter   // OpenFile + CreateTemp
	IOErrors *Counter   // failed operations of any kind
}

// NewFSMetrics registers the persistence metrics on r under the
// dbpl_persist_* names documented in docs/OBSERVABILITY.md.
func NewFSMetrics(r *Registry) *FSMetrics {
	return &FSMetrics{
		Fsyncs:   r.Counter("dbpl_persist_fsync_total"),
		FsyncNS:  r.Histogram("dbpl_persist_fsync_seconds", UnitDuration, DurationBuckets),
		BytesIn:  r.Counter("dbpl_persist_read_bytes_total"),
		BytesOut: r.Counter("dbpl_persist_write_bytes_total"),
		Opens:    r.Counter("dbpl_persist_open_total"),
		IOErrors: r.Counter("dbpl_persist_io_errors_total"),
	}
}

// InstrumentFS wraps an iofault.FS so every store opened through it
// feeds the dbpl_persist_* metrics: fsync count and latency, bytes in
// and out, opens, and failed operations. The wrapper composes with the
// fault injector in either order (metrics outside the injector see
// injected faults as failures; inside, they see what reached the
// "disk").
func InstrumentFS(inner iofault.FS, r *Registry) iofault.FS {
	return &instrFS{inner: inner, m: NewFSMetrics(r)}
}

type instrFS struct {
	inner iofault.FS
	m     *FSMetrics
}

func (f *instrFS) fail(err error) error {
	if err != nil {
		f.m.IOErrors.Inc()
	}
	return err
}

func (f *instrFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, f.fail(err)
	}
	f.m.Opens.Inc()
	return &instrFile{File: file, m: f.m}, nil
}

func (f *instrFS) CreateTemp(dir, pattern string) (iofault.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, f.fail(err)
	}
	f.m.Opens.Inc()
	return &instrFile{File: file, m: f.m}, nil
}

func (f *instrFS) Rename(oldpath, newpath string) error {
	return f.fail(f.inner.Rename(oldpath, newpath))
}

func (f *instrFS) Remove(name string) error { return f.fail(f.inner.Remove(name)) }

func (f *instrFS) ReadFile(name string) ([]byte, error) {
	b, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, f.fail(err)
	}
	f.m.BytesIn.Add(uint64(len(b)))
	return b, nil
}

func (f *instrFS) ReadDir(name string) ([]os.DirEntry, error) {
	es, err := f.inner.ReadDir(name)
	return es, f.fail(err)
}

func (f *instrFS) Stat(name string) (os.FileInfo, error) {
	fi, err := f.inner.Stat(name)
	return fi, f.fail(err)
}

func (f *instrFS) MkdirAll(path string, perm os.FileMode) error {
	return f.fail(f.inner.MkdirAll(path, perm))
}

func (f *instrFS) SyncDir(dir string) error {
	start := time.Now()
	if err := f.inner.SyncDir(dir); err != nil {
		return f.fail(err)
	}
	f.m.FsyncNS.ObserveDuration(time.Since(start))
	return nil
}

// instrFile counts bytes through a store's file handle and times its
// fsyncs.
type instrFile struct {
	iofault.File
	m *FSMetrics
}

// Read counts bytes only: io.EOF is the normal end-of-log signal during
// replay, not a fault, so read errors are left to the stores to classify.
func (f *instrFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if n > 0 {
		f.m.BytesIn.Add(uint64(n))
	}
	return n, err
}

func (f *instrFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if n > 0 {
		f.m.BytesOut.Add(uint64(n))
	}
	if err != nil {
		f.m.IOErrors.Inc()
	}
	return n, err
}

func (f *instrFile) Sync() error {
	start := time.Now()
	if err := f.File.Sync(); err != nil {
		f.m.IOErrors.Inc()
		return err
	}
	f.m.Fsyncs.Inc()
	f.m.FsyncNS.ObserveDuration(time.Since(start))
	return nil
}
