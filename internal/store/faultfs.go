package store

import (
	"errors"
	"io/fs"
	"os"
	"sync"
)

// ErrCrashed is what FaultFS returns for operations cut off by a simulated
// process crash (SetCrashed).
var ErrCrashed = errors.New("store: simulated crash")

// FaultFS wraps an FS with deterministic fault injection — the storage-layer
// counterpart of netx.Faulty. Tests and the crash experiment use it to
// simulate a full disk (every write fails with ENOSPC), a failing device
// (read EIO, fail-on-Nth-write), torn writes (a prefix of the data lands,
// then an error), and a dead process (renames fail and unlinks are
// suppressed, leaving whatever was on disk as a kill would). All controls are
// safe for concurrent use.
type FaultFS struct {
	inner FS

	mu sync.Mutex
	// writeErr, when non-nil, fails every write with it (e.g. ENOSPC).
	writeErr error
	// nthCountdown > 0 arms a single failure: it decrements on each write
	// and the write that reaches zero fails with nthErr.
	nthCountdown int
	nthErr       error
	// tornBytes >= 0 arms one torn write: only that prefix of the next
	// write lands before it reports tornErr.
	tornBytes int
	tornErr   error
	// readErr, when non-nil, fails every ReadFile and ReadAt (e.g. EIO).
	readErr error
	// crashed simulates the process dying: renames fail and removes
	// silently do nothing, so debris stays for recovery to find.
	crashed bool

	writes int // completed or attempted data writes, for tests
}

// NewFaultFS wraps inner (nil = the real filesystem).
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner, tornBytes: -1}
}

// FailWrites makes every subsequent write fail with err; nil heals.
func (f *FaultFS) FailWrites(err error) {
	f.mu.Lock()
	f.writeErr = err
	f.mu.Unlock()
}

// FailNthWrite makes the n-th write from now (1 = the next one) fail once
// with err.
func (f *FaultFS) FailNthWrite(n int, err error) {
	f.mu.Lock()
	f.nthCountdown = n
	f.nthErr = err
	f.mu.Unlock()
}

// TornWrite makes the next write persist only its first n bytes and then
// report err — a short, torn write.
func (f *FaultFS) TornWrite(n int, err error) {
	f.mu.Lock()
	f.tornBytes = n
	f.tornErr = err
	f.mu.Unlock()
}

// FailReads makes every ReadFile, and every ReadAt on a handle from OpenRead,
// fail with err; nil heals.
func (f *FaultFS) FailReads(err error) {
	f.mu.Lock()
	f.readErr = err
	f.mu.Unlock()
}

// SetCrashed simulates a dead process: while set, Rename fails with
// ErrCrashed and Remove is suppressed, so whatever the store left behind
// stays on disk for the next OpenLog to deal with.
func (f *FaultFS) SetCrashed(crashed bool) {
	f.mu.Lock()
	f.crashed = crashed
	f.mu.Unlock()
}

// Writes reports how many data writes were attempted.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// writeVerdict decides the fate of one write of n bytes: how many bytes may
// land and which error (if any) to report.
func (f *FaultFS) writeVerdict(n int) (allow int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.tornBytes >= 0 {
		allow, err = f.tornBytes, f.tornErr
		f.tornBytes = -1
		if err == nil {
			err = errors.New("store: injected torn write")
		}
		if allow > n {
			allow = n
		}
		return allow, err
	}
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	if f.nthCountdown > 0 {
		f.nthCountdown--
		if f.nthCountdown == 0 {
			return 0, f.nthErr
		}
	}
	return n, nil
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.inner.ReadDir(dir) }

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.readFault(path); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// readFault returns the injected read error for path, if one is armed.
func (f *FaultFS) readFault(path string) error {
	f.mu.Lock()
	err := f.readErr
	f.mu.Unlock()
	if err != nil {
		return &os.PathError{Op: "read", Path: path, Err: err}
	}
	return nil
}

// Create implements FS.
func (f *FaultFS) Create(path string) (File, error) {
	inner, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: ErrCrashed}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		// A dead process cleans nothing up; the debris stays.
		return nil
	}
	return f.inner.Remove(path)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error { return f.inner.SyncDir(dir) }

// OpenRead implements FS. The injected read fault is consulted on every
// ReadAt, so FailReads also hits handles opened before it was armed.
func (f *FaultFS) OpenRead(path string) (ReaderAtCloser, error) {
	inner, err := f.inner.OpenRead(path)
	if err != nil {
		return nil, err
	}
	return &faultReader{ReaderAtCloser: inner, fs: f, path: path}, nil
}

// faultReader applies the parent's read fault to one open read handle.
type faultReader struct {
	ReaderAtCloser
	fs   *FaultFS
	path string
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	if err := r.fs.readFault(r.path); err != nil {
		return 0, err
	}
	return r.ReaderAtCloser.ReadAt(p, off)
}

// faultFile applies the parent's write verdicts to one open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	allow, err := f.fs.writeVerdict(len(p))
	if err != nil {
		n := 0
		if allow > 0 {
			n, _ = f.inner.Write(p[:allow])
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error  { return f.inner.Sync() }
func (f *faultFile) Close() error { return f.inner.Close() }
