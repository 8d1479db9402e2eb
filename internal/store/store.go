// Package store holds cached CGI result bodies. Following the paper's
// design, cached results live on disk and the OS file cache makes recently
// used ones cheap to serve; only meta-data lives in memory. The durable
// backend, Log, appends every entry to segmented, append-only files. Where
// each record lies (a Loc) is listed by an Index: a cache directory that
// adopts the log (Adopt) keeps each body's Loc in its own entry, so a node
// holds one in-memory index per cached body, and the log answers its
// liveness questions — what the cleaner copies, where a moved record went —
// from that table; a log nobody adopted keeps a key map of its own. Memory,
// a map behind the same interface, serves tests and experiments that should
// not touch disk.
//
// Beyond the paper, the log is durable and self-healing: records are
// self-describing (format.go) and checksum-verified on every read, OpenLog
// rebuilds the index from the segments after a restart or crash (skipping and
// counting anything corrupt), and write failures flip the store into a
// degraded read-only mode instead of failing requests. OpenLog leaves files
// that are not segments alone, so a directory holding an older file-per-entry
// cache starts cold.
package store

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNotFound is returned when a key has no stored body.
var ErrNotFound = errors.New("store: entry not found")

// ErrClosed is returned by operations on a closed log store.
var ErrClosed = errors.New("store: log store closed")

// ErrDegraded is returned by Put while the log store is in degraded
// read-only mode after a write failure; reads keep working and a periodic
// re-probe write decides when to leave the mode.
var ErrDegraded = errors.New("store: degraded (writes suspended)")

// Store persists cache entry bodies keyed by the canonical request key.
// Implementations are safe for concurrent use.
type Store interface {
	// Put stores body under key, overwriting any existing body.
	Put(key string, contentType string, body []byte) error
	// Get returns the body and content type for key.
	Get(key string) (contentType string, body []byte, err error)
	// Delete removes key's body. Deleting an absent key is not an error.
	Delete(key string) error
	// Len reports how many bodies are stored.
	Len() int
	// Close releases resources. The log store keeps its segments so a later
	// OpenLog can recover them; use Destroy to delete them.
	Close() error

	// The located operations, through which a cache directory that lists
	// each body's Loc files, reads and drops bodies.

	// Append stores body, with the meta-data a recovery scan rebuilds
	// directory entries from, as a record of its own, and hands its Loc to
	// list, which must list it (or drop it, DropAt) before returning.
	Append(key, contentType string, body []byte, execTime time.Duration, expires time.Time, list func(Loc)) error
	// ReadAt returns key's body at loc — still there after its listing was
	// dropped, until the log's cleaner retires the record. The body is valid
	// until release is called; release is nil when the body is the caller's
	// own, and on error.
	ReadAt(key string, loc Loc) (contentType string, body []byte, release func(), err error)
	// DropAt reports that no entry lists the record at loc any more. With
	// tombstone no entry lists key and none is being installed: the key
	// leaves the store for good (the log appends a tombstone).
	DropAt(key string, loc Loc, tombstone bool)
}

// MetaPutter is implemented by stores that persist cache meta-data (CGI
// execution time, TTL deadline) alongside the body, so a recovery scan can
// rebuild directory entries, not just bodies.
type MetaPutter interface {
	PutEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) error
}

// PutWithMeta stores body with its cache meta-data when the store supports
// it, falling back to a plain Put.
func PutWithMeta(s Store, key, contentType string, body []byte, execTime time.Duration, expires time.Time) error {
	if mp, ok := s.(MetaPutter); ok {
		return mp.PutEntry(key, contentType, body, execTime, expires)
	}
	return s.Put(key, contentType, body)
}

// GetLeased is s.Get into a pooled buffer when s can lease one (the log
// store): body is then valid until release is called, and keeping it longer
// means copying it. release is nil when body is the caller's own, and on
// error. ReadAt is the located form.
func GetLeased(s Store, key string) (contentType string, body []byte, release func(), err error) {
	if l, ok := s.(*Log); ok {
		ct, body, ls, err := l.get(key, true)
		if err != nil {
			return "", nil, nil, err
		}
		return ct, body, ls.Release, nil
	}
	contentType, body, err = s.Get(key)
	return contentType, body, nil, err
}

// --- storage health ---

// StorageStatus is a point-in-time view of a persistent store's health,
// surfaced on /swala-status, in the wire StatsReply, and by swalactl stats.
type StorageStatus struct {
	// Persistent is true for disk-backed stores.
	Persistent bool
	// Degraded is true while writes are suspended after a storage fault;
	// DegradedSince is when the mode was entered and LastError the fault
	// that caused it (kept, for observability, after recovery too).
	Degraded      bool
	DegradedSince time.Time
	LastError     string
	// PutFailures counts Puts that did not store an entry (the request was
	// still served, just not cached).
	PutFailures uint64
	// Quarantined counts corrupt records dropped instead of served: skipped
	// by the recovery scan, or taken out of the index when a read or the
	// cleaner failed to verify them.
	Quarantined uint64
	// Recovered is how many entries the startup scan rebuilt; OrphansSwept
	// how many torn tails and leftover files it removed.
	Recovered    uint64
	OrphansSwept uint64
}

// StatusOf reports storage health for s; ok is false for stores without
// health state (the in-memory backend).
func StatusOf(s Store) (StorageStatus, bool) {
	if l, ok := s.(*Log); ok {
		return l.StorageStatus(), true
	}
	return StorageStatus{}, false
}

// --- in-memory store ---

type memEntry struct {
	contentType string
	body        []byte
}

// Memory is a map-backed Store for tests and simulation runs.
type Memory struct {
	mu      sync.RWMutex
	entries map[string]memEntry
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{entries: make(map[string]memEntry)}
}

// Put implements Store.
func (m *Memory) Put(key, contentType string, body []byte) error {
	cp := make([]byte, len(body))
	copy(cp, body)
	m.mu.Lock()
	m.entries[key] = memEntry{contentType: contentType, body: cp}
	m.mu.Unlock()
	return nil
}

// Get implements Store.
func (m *Memory) Get(key string) (string, []byte, error) {
	m.mu.RLock()
	e, ok := m.entries[key]
	m.mu.RUnlock()
	if !ok {
		return "", nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	cp := make([]byte, len(e.body))
	copy(cp, e.body)
	return e.contentType, cp, nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
	return nil
}

// Len implements Store.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.entries)
}

// Append implements Store: body is stored under key, which is where every
// Memory record lies, so list gets the zero Loc.
func (m *Memory) Append(key, contentType string, body []byte, _ time.Duration, _ time.Time, list func(Loc)) error {
	m.Put(key, contentType, body)
	list(Loc{})
	return nil
}

// ReadAt implements Store by key; the body is the caller's own.
func (m *Memory) ReadAt(key string, _ Loc) (string, []byte, func(), error) {
	ct, body, err := m.Get(key)
	return ct, body, nil, err
}

// DropAt implements Store: with tombstone the body goes.
func (m *Memory) DropAt(key string, _ Loc, tombstone bool) {
	if tombstone {
		m.Delete(key)
	}
}

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.entries = make(map[string]memEntry)
	m.mu.Unlock()
	return nil
}

// --- log store options and recovery report ---

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncNever relies on OS writeback (the default; a crash may lose the
	// most recent appends, which recovery truncates away or never finds).
	FsyncNever FsyncPolicy = iota
	// FsyncAlways syncs every append — Put, tombstone, cleaner batch — before
	// it is acknowledged, and the directory after each new segment is
	// created, so acknowledged inserts survive power loss.
	FsyncAlways
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	default:
		return "never"
	}
}

// ParseFsyncPolicy parses the swalad -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "never", "":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	default:
		return FsyncNever, fmt.Errorf("store: unknown fsync policy %q (want never or always)", s)
	}
}

// DefaultReprobeInterval is how long a degraded store waits between write
// re-probes.
const DefaultReprobeInterval = 5 * time.Second

// RecoveredEntry is one cache entry the startup scan rebuilt, with the
// meta-data core needs to repopulate the local directory table.
type RecoveredEntry struct {
	Key         string
	ContentType string
	Size        int64
	ExecTime    time.Duration
	Expires     time.Time
	// Loc is where the entry's record lies, for the adopting directory.
	Loc Loc
}

// RecoveryReport summarizes what OpenLog found in an existing cache
// directory.
type RecoveryReport struct {
	// Recovered lists the verified live entries, oldest write first.
	Recovered []RecoveredEntry
	// Quarantined is how many records failed header or checksum verification
	// and were skipped.
	Quarantined int
	// OrphansSwept is how many torn tails, empty segments and abandoned .tmp
	// files were removed.
	OrphansSwept int
	// Duplicates is how many superseded records of a recovered key were
	// skipped: overwrites, and copies a crash mid-cleaning left beside their
	// originals.
	Duplicates int
	// Expired is how many verified entries were past their TTL deadline and
	// dropped instead of recovered.
	Expired int
}
