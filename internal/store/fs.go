package store

import (
	"io"
	"io/fs"
	"os"
)

// FS abstracts the filesystem calls the log store makes, so tests can
// inject storage faults (disk full, I/O errors, torn appends, a process that
// dies before it cleans up) the way netx.Faulty injects network faults.
// The production implementation is OSFS; FaultFS wraps any FS with
// deterministic fault injection.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// ReadFile returns the full contents of path.
	ReadFile(path string) ([]byte, error)
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// OpenRead opens path for random-access reads. The handle reads the file
	// itself, not a snapshot: bytes appended after the open are visible.
	OpenRead(path string) (ReaderAtCloser, error)
	// SyncDir flushes dir's entries (the names of files created in it) to
	// stable storage.
	SyncDir(dir string) error
}

// File is the writable handle Create returns; the store appends records,
// optionally syncs, and closes.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// ReaderAtCloser is the random-access read handle OpenRead returns.
type ReaderAtCloser interface {
	io.ReaderAt
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// OpenRead implements FS.
func (OSFS) OpenRead(path string) (ReaderAtCloser, error) { return os.Open(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
