// Package store holds cached CGI result bodies. Following the paper's
// design, the production backend keeps each cached result in its own
// operating-system file and relies on the OS file cache to make recently
// used entries cheap to serve; only meta-data lives in memory. An in-memory
// backend with the same interface serves tests and experiments that should
// not touch disk.
//
// Beyond the paper, the disk backend is durable and self-healing: entry
// files are self-describing (format.go) and checksum-verified on every
// read, OpenDisk rebuilds the key→file map from the files after a restart
// or crash (quarantining anything corrupt), and write failures flip the
// store into a degraded read-only mode instead of failing requests.
package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned when a key has no stored body.
var ErrNotFound = errors.New("store: entry not found")

// ErrClosed is returned by operations on a closed disk store.
var ErrClosed = errors.New("store: disk store closed")

// ErrDegraded is returned by Put while the disk store is in degraded
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
	// Close releases resources. The disk store keeps its files so a later
	// OpenDisk can recover them; use Destroy to delete them.
	Close() error
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
// store, alone or behind a memory tier): body is then valid until release is
// called, and keeping it longer means copying it. release is nil when body is
// the caller's own, and on error.
func GetLeased(s Store, key string) (contentType string, body []byte, release func(), err error) {
	switch s := s.(type) {
	case *Log:
		ct, body, ls, err := s.get(key, true)
		if err != nil {
			return "", nil, nil, err
		}
		return ct, body, ls.Release, nil
	case *Tiered:
		return s.get(key, true)
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
	// Quarantined counts corrupt entry files moved aside (at recovery and
	// at read time) instead of served.
	Quarantined uint64
	// Recovered is how many entries the startup scan rebuilt; OrphansSwept
	// how many abandoned temp files it deleted.
	Recovered    uint64
	OrphansSwept uint64
}

// statusReporter is the optional interface stores with health state expose.
type statusReporter interface {
	StorageStatus() StorageStatus
}

// StatusOf reports storage health for s, unwrapping the memory tier; ok is
// false for stores without health state (the in-memory backend).
func StatusOf(s Store) (StorageStatus, bool) {
	for {
		switch v := s.(type) {
		case *Tiered:
			s = v.backing
		case statusReporter:
			return v.StorageStatus(), true
		default:
			return StorageStatus{}, false
		}
	}
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

// Close implements Store.
func (m *Memory) Close() error {
	m.mu.Lock()
	m.entries = make(map[string]memEntry)
	m.mu.Unlock()
	return nil
}

// --- disk store ---

// FsyncPolicy selects when entry writes are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncNever relies on OS writeback (the default; a crash may lose the
	// most recent inserts, which recovery simply does not find).
	FsyncNever FsyncPolicy = iota
	// FsyncAlways syncs every entry file before the rename that publishes
	// it, so acknowledged inserts survive power loss.
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

// quarantineSubdir is where corrupt entry files are moved, inside the cache
// directory; files there are counted, never read back.
const quarantineSubdir = "quarantine"

// DiskOptions tunes OpenDisk. The zero value is the production default:
// the real filesystem, no fsync, 5-second degraded re-probe.
type DiskOptions struct {
	// FS is the filesystem seam (nil = OSFS); tests inject a FaultFS here.
	FS FS
	// Fsync is the entry-write durability policy.
	Fsync FsyncPolicy
	// ReprobeInterval is how often a degraded store lets a Put through as a
	// recovery probe (0 = DefaultReprobeInterval).
	ReprobeInterval time.Duration
}

// RecoveredEntry is one cache entry the startup scan rebuilt, with the
// meta-data core needs to repopulate the local directory table.
type RecoveredEntry struct {
	Key         string
	ContentType string
	Size        int64
	ExecTime    time.Duration
	Expires     time.Time
}

// RecoveryReport summarizes what OpenDisk found in an existing cache
// directory.
type RecoveryReport struct {
	// Recovered lists the verified entries, oldest write first.
	Recovered []RecoveredEntry
	// Quarantined is how many files failed header or checksum verification
	// and were moved into quarantine/.
	Quarantined int
	// OrphansSwept is how many abandoned .tmp files (crash before rename)
	// were deleted.
	OrphansSwept int
	// Duplicates is how many superseded files for an already-recovered key
	// (crash between rename and old-file removal) were deleted.
	Duplicates int
	// Expired is how many verified entries were past their TTL deadline and
	// deleted instead of recovered.
	Expired int
}

// Disk stores one file per entry under a directory, as the paper's server
// does. File names are sequence numbers; the key-to-file mapping is the
// in-memory meta-data, rebuilt from the self-describing files on OpenDisk.
type Disk struct {
	dir   string
	fs    FS
	fsync FsyncPolicy

	mu      sync.RWMutex
	files   map[string]string // key -> file path
	nextSeq int64
	closed  bool

	storeHealth
}

// NewDisk creates (or recovers) a disk store rooted at dir with default
// options, discarding the recovery report. Callers that care about recovered
// entries use OpenDisk.
func NewDisk(dir string) (*Disk, error) {
	d, _, err := OpenDisk(dir, DiskOptions{})
	return d, err
}

// OpenDisk opens a disk store rooted at dir, creating the directory if
// necessary and recovering any entries a previous incarnation left behind:
// every entry file is header- and checksum-verified, corrupt files are moved
// into quarantine/ (never served), abandoned temp files are swept, and
// duplicate files for one key (a crash between rename and old-file removal)
// keep only the newest write.
func OpenDisk(dir string, opts DiskOptions) (*Disk, *RecoveryReport, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.ReprobeInterval <= 0 {
		opts.ReprobeInterval = DefaultReprobeInterval
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	d := &Disk{
		dir:   dir,
		fs:    opts.FS,
		fsync: opts.Fsync,
		files: make(map[string]string),
	}
	d.reprobe = opts.ReprobeInterval
	rep, err := d.recover()
	if err != nil {
		return nil, nil, err
	}
	d.recovered = uint64(len(rep.Recovered))
	d.orphans = uint64(rep.OrphansSwept)
	d.quarantined.Store(uint64(rep.Quarantined))
	return d, rep, nil
}

// recover scans the store directory and rebuilds the key→file map.
func (d *Disk) recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	listing, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", d.dir, err)
	}
	type candidate struct {
		seq  int64
		path string
		meta entryMeta
	}
	byKey := make(map[string]candidate)
	now := time.Now()
	for _, de := range listing {
		name := de.Name()
		if de.IsDir() {
			continue // quarantine/ from an earlier incarnation
		}
		full := filepath.Join(d.dir, name)
		if strings.HasSuffix(name, ".tmp") {
			// A write that never reached its rename: the entry was never
			// acknowledged, so the debris is simply deleted.
			d.fs.Remove(full)
			rep.OrphansSwept++
			continue
		}
		seq, ok := parseEntryFileName(name)
		if !ok {
			continue // not ours; leave it alone
		}
		if seq > d.nextSeq {
			d.nextSeq = seq
		}
		data, err := d.fs.ReadFile(full)
		var meta entryMeta
		if err == nil {
			meta, _, err = decodeEntry(data)
		}
		if err != nil {
			d.moveToQuarantine(full)
			rep.Quarantined++
			continue
		}
		if !meta.Expires.IsZero() && !meta.Expires.After(now) {
			d.fs.Remove(full)
			rep.Expired++
			continue
		}
		if prev, dup := byKey[meta.Key]; dup {
			// Two verified files for one key: a crash landed between the
			// rename publishing the newer write and the old file's removal.
			// The higher sequence number is the newer write; the loser goes.
			if prev.seq >= seq {
				d.fs.Remove(full)
				rep.Duplicates++
				continue
			}
			d.fs.Remove(prev.path)
			rep.Duplicates++
		}
		byKey[meta.Key] = candidate{seq: seq, path: full, meta: meta}
	}
	ordered := make([]candidate, 0, len(byKey))
	for _, c := range byKey {
		ordered = append(ordered, c)
	}
	// Oldest write first, so directory repopulation approximates the
	// original insertion order (and LRU state) of the previous incarnation.
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	for _, c := range ordered {
		d.files[c.meta.Key] = c.path
		rep.Recovered = append(rep.Recovered, RecoveredEntry{
			Key:         c.meta.Key,
			ContentType: c.meta.ContentType,
			Size:        int64(c.meta.bodyLen),
			ExecTime:    c.meta.ExecTime,
			Expires:     c.meta.Expires,
		})
	}
	return rep, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

func entryFileName(seq int64) string {
	return "entry-" + strconv.FormatInt(seq, 10) + ".cache"
}

func parseEntryFileName(name string) (int64, bool) {
	s, ok := strings.CutPrefix(name, "entry-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".cache")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// Put implements Store.
func (d *Disk) Put(key, contentType string, body []byte) error {
	return d.PutEntry(key, contentType, body, 0, time.Time{})
}

// PutEntry implements MetaPutter: the entry file records execution time and
// TTL deadline so recovery can rebuild the directory entry.
func (d *Disk) PutEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.nextSeq++
	seq := d.nextSeq
	d.mu.Unlock()

	if err := d.writeGate(); err != nil {
		d.putFailures.Add(1)
		return err
	}

	path := filepath.Join(d.dir, entryFileName(seq))
	if err := d.writeFileAtomic(path, encodeEntry(key, contentType, body, execTime, expires)); err != nil {
		d.noteWriteError(err)
		return err
	}
	d.noteWriteOK()

	// Publish in the map only after the file exists, and remove whatever
	// path the key previously held only after the swap: with two concurrent
	// Puts for one key, the second swapper removes the first's file, so no
	// loser file is ever leaked and the map always points at a live file.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.fs.Remove(path)
		return ErrClosed
	}
	old := d.files[key]
	d.files[key] = path
	d.mu.Unlock()
	if old != "" {
		d.fs.Remove(old)
	}
	return nil
}

// StorageStatus implements the health reporter used by /swala-status and
// the wire stats.
func (d *Disk) StorageStatus() StorageStatus { return d.status() }

// writeFileAtomic writes data to path via a temp file + rename so that a
// concurrent Get never observes a torn body. The temp file is removed on
// every failure path, so a short write cannot leave debris behind (debris
// from a crash is swept by the next OpenDisk).
func (d *Disk) writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := d.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil && d.fsync == FsyncAlways {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		d.fs.Remove(tmp)
		return werr
	}
	if err := d.fs.Rename(tmp, path); err != nil {
		d.fs.Remove(tmp)
		return err
	}
	return nil
}

// Get implements Store. The body is checksum-verified on every read; a file
// that fails verification is quarantined and reported as an error, so a
// corrupt body is never served (the caller re-executes the CGI instead).
func (d *Disk) Get(key string) (string, []byte, error) {
	d.mu.RLock()
	path, ok := d.files[key]
	d.mu.RUnlock()
	if !ok {
		return "", nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	data, err := d.fs.ReadFile(path)
	if err != nil {
		return "", nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	meta, body, err := decodeEntry(data)
	if err == nil && meta.Key != key {
		err = fmt.Errorf("%w: file records key %q", ErrCorrupt, meta.Key)
	}
	if err != nil {
		d.quarantineEntry(key, path)
		return "", nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return meta.ContentType, body, nil
}

// quarantineEntry drops key's mapping (if it still points at path) and moves
// the file into quarantine/.
func (d *Disk) quarantineEntry(key, path string) {
	d.mu.Lock()
	if d.files[key] == path {
		delete(d.files, key)
	}
	d.mu.Unlock()
	d.moveToQuarantine(path)
	d.quarantined.Add(1)
}

// moveToQuarantine renames path into the quarantine subdirectory, falling
// back to deletion if the rename fails (served-corruption risk outweighs
// keeping the evidence).
func (d *Disk) moveToQuarantine(path string) {
	qdir := filepath.Join(d.dir, quarantineSubdir)
	d.fs.MkdirAll(qdir, 0o755)
	if err := d.fs.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		d.fs.Remove(path)
	}
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	d.mu.Lock()
	path, ok := d.files[key]
	delete(d.files, key)
	d.mu.Unlock()
	if !ok {
		return nil
	}
	if err := d.fs.Remove(path); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	return nil
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.files)
}

// Close implements Store. The entry files are kept on disk so the next
// OpenDisk on the directory recovers them (a warm restart); tests that want
// the seed's delete-on-close behavior call Destroy.
func (d *Disk) Close() error {
	d.mu.Lock()
	d.closed = true
	d.files = make(map[string]string)
	d.mu.Unlock()
	return nil
}

// Destroy closes the store and removes its directory and every file in it.
func (d *Disk) Destroy() error {
	d.Close()
	return d.fs.RemoveAll(d.dir)
}
