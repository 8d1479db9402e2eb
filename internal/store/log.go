package store

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lease"
)

// Log is the durable store. Entries are appended to segmented, append-only
// files ("seg-N.log"), each record being one checksummed entry encoding
// (format.go); the key→location index lives in memory and is rebuilt by a
// recovery scan on open. A warm miss costs one sequential append.
//
// Crash semantics:
//
//   - A crash mid-append leaves a torn record at the tail of the newest
//     segment; recovery truncates it away (the append was never
//     acknowledged).
//   - Bit rot is caught by the per-record checksum — at recovery the damaged
//     record is skipped (counted as quarantined) and the scan resynchronizes
//     on the next record magic; at read time the entry is dropped from the
//     index and an error returned, so a corrupt body is never served.
//   - Overwrites and deletes append (tombstones for deletes); the old bytes
//     become dead and are reclaimed by the cleaner, which retires the oldest
//     segment, one at a time, after copying what is still live in it to the
//     tail. Replay order is (segment, offset) ascending with newest-wins and
//     a copy is byte-identical to its original, so a crash at any point of
//     cleaning leaves a directory that replays to the same live set.
type Log struct {
	dir   string
	fs    FS
	fsync FsyncPolicy

	segMax      int64
	compactFrac float64
	compactMin  int64

	mu         sync.RWMutex
	index      map[string]recordLoc
	active     File  // nil until the first append after open/rotate
	activeSeq  int64 // valid only when active != nil
	activeOff  int64
	nextSeq    int64                // highest segment number ever used
	segBytes   map[int64]int64      // on-disk bytes per segment
	segLive    map[int64]int64      // bytes per segment that index entries point at
	handles    map[int64]*segHandle // one shared read handle per segment read so far
	totalBytes int64                // bytes across all segments (live + dead)
	deadBytes  int64                // bytes no current index entry points at
	closed     bool

	compacting bool      // one cleaner at a time; guarded by mu
	cleanRetry time.Time // a failed cleaning pass is not retried before this
	compactWG  sync.WaitGroup

	storeHealth
}

// recordLoc locates one live record: segment number, byte offset, length.
type recordLoc struct {
	seg int64
	off int64
	n   int
}

// tombstoneContentType marks a deletion record in the log. Real entries
// never carry it: content types come from CGI responses, and the store
// rejects storing a body under the sentinel.
const tombstoneContentType = "application/x-swala-tombstone"

// LogOptions tunes OpenLog. The zero value is the production default: the
// real filesystem, no fsync, 5-second degraded re-probe, 4 MiB segments,
// cleaning at 50% dead bytes once 1 MiB is dead.
type LogOptions struct {
	// FS is the filesystem seam (nil = OSFS); tests inject a FaultFS here.
	FS FS
	// Fsync is the append durability policy (FsyncAlways syncs per append).
	Fsync FsyncPolicy
	// ReprobeInterval is how often a degraded store lets a Put through as a
	// recovery probe (0 = DefaultReprobeInterval).
	ReprobeInterval time.Duration
	// SegmentMaxBytes rotates the active segment once it reaches this size
	// (0 = DefaultSegmentMaxBytes).
	SegmentMaxBytes int64
	// CompactFraction starts the cleaner when dead bytes exceed this
	// fraction of total bytes (0 = 0.5).
	CompactFraction float64
	// CompactMinBytes is the dead-byte floor below which the cleaner never
	// runs, so small stores don't churn (0 = DefaultCompactMinBytes).
	CompactMinBytes int64
}

// Defaults for LogOptions zero values.
const (
	DefaultSegmentMaxBytes = 4 << 20
	DefaultCompactMinBytes = 1 << 20
	defaultCompactFraction = 0.5
)

// OpenLog opens a log-structured store rooted at dir, creating the directory
// if necessary and recovering whatever a previous incarnation left behind:
// segments are replayed in (segment, offset) order with newest-wins, torn
// tails are truncated, damaged records are skipped and counted, tombstones
// erase, and expired entries are dropped.
func OpenLog(dir string, opts LogOptions) (*Log, *RecoveryReport, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.ReprobeInterval <= 0 {
		opts.ReprobeInterval = DefaultReprobeInterval
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if opts.CompactFraction <= 0 {
		opts.CompactFraction = defaultCompactFraction
	}
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = DefaultCompactMinBytes
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	l := &Log{
		dir:         dir,
		fs:          opts.FS,
		fsync:       opts.Fsync,
		segMax:      opts.SegmentMaxBytes,
		compactFrac: opts.CompactFraction,
		compactMin:  opts.CompactMinBytes,
		index:       make(map[string]recordLoc),
		segBytes:    make(map[int64]int64),
		segLive:     make(map[int64]int64),
		handles:     make(map[int64]*segHandle),
	}
	l.reprobe = opts.ReprobeInterval
	rep, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	l.recovered = uint64(len(rep.Recovered))
	l.orphans = uint64(rep.OrphansSwept)
	l.quarantined.Store(uint64(rep.Quarantined))
	return l, rep, nil
}

// Dir returns the store's root directory.
func (l *Log) Dir() string { return l.dir }

func segmentFileName(seq int64) string {
	return "seg-" + strconv.FormatInt(seq, 10) + ".log"
}

func parseSegmentFileName(name string) (int64, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".log")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// isSegmentTmp reports whether name is a segment's truncation scratch file
// (truncateSegment's seg-N.log.tmp).
func isSegmentTmp(name string) bool {
	seg, ok := strings.CutSuffix(name, ".tmp")
	if !ok {
		return false
	}
	_, ok = parseSegmentFileName(seg)
	return ok
}

func (l *Log) segmentPath(seq int64) string {
	return filepath.Join(l.dir, segmentFileName(seq))
}

// recover scans the segment files and rebuilds the in-memory index.
func (l *Log) recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	listing, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", l.dir, err)
	}
	var seqs []int64
	for _, de := range listing {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		full := filepath.Join(l.dir, name)
		if isSegmentTmp(name) {
			// A truncation that never reached its rename: the original file
			// is still in place, so the debris just goes.
			l.fs.Remove(full)
			rep.OrphansSwept++
			continue
		}
		seq, ok := parseSegmentFileName(name)
		if !ok {
			continue // not ours; leave it alone
		}
		if seq > l.nextSeq {
			l.nextSeq = seq
		}
		seqs = append(seqs, seq)
	}
	// Replay in segment order so later segments overwrite earlier ones.
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	metas := make(map[string]entryMeta)
	now := time.Now()
	for i, seq := range seqs {
		isLast := i == len(seqs)-1
		path := l.segmentPath(seq)
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		if len(data) == 0 {
			// An empty trailing segment (rotation or open with no appends
			// before the crash) carries nothing; sweep it.
			l.fs.Remove(path)
			rep.OrphansSwept++
			continue
		}
		off := 0
		for off < len(data) {
			m, body, n, derr := decodeRecord(data[off:])
			if derr == nil {
				loc := recordLoc{seg: seq, off: int64(off), n: n}
				off += n
				if m.ContentType == tombstoneContentType {
					delete(l.index, m.Key)
					delete(metas, m.Key)
					continue
				}
				if !m.Expires.IsZero() && !m.Expires.After(now) {
					if _, lived := l.index[m.Key]; lived {
						delete(l.index, m.Key)
						delete(metas, m.Key)
					}
					rep.Expired++
					continue
				}
				if _, dup := l.index[m.Key]; dup {
					// A superseded copy (overwrite, or a crash mid-cleaning that
					// left both a record and its copy at the tail).
					rep.Duplicates++
				}
				_ = body // bodies stay on disk; only locations are indexed
				l.index[m.Key] = loc
				metas[m.Key] = m
				continue
			}
			if errors.Is(derr, errShortRecord) && isLast {
				// Torn tail of the newest segment: the record's append never
				// completed, so it was never acknowledged. Truncate it away so
				// the segment is clean for future scans.
				if terr := l.truncateSegment(path, data[:off]); terr != nil {
					return nil, terr
				}
				data = data[:off]
				rep.OrphansSwept++
				break
			}
			// Damaged record: count it, then resynchronize on the next record
			// magic. A CRC failure yields a clean record length to skip; a
			// structural failure forces a byte scan.
			rep.Quarantined++
			if n > 0 {
				off += n
				continue
			}
			next := nextMagic(data, off+1)
			if next < 0 {
				if isLast {
					if terr := l.truncateSegment(path, data[:off]); terr != nil {
						return nil, terr
					}
					data = data[:off]
				}
				break
			}
			off = next
		}
		if len(data) > 0 {
			l.segBytes[seq] = int64(len(data))
			l.totalBytes += int64(len(data))
		}
	}
	// Surviving index entries, in write order, for directory repopulation.
	type liveEntry struct {
		loc  recordLoc
		meta entryMeta
	}
	ordered := make([]liveEntry, 0, len(l.index))
	var liveBytes int64
	for key, loc := range l.index {
		ordered = append(ordered, liveEntry{loc: loc, meta: metas[key]})
		liveBytes += int64(loc.n)
		l.segLive[loc.seg] += int64(loc.n)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].loc.seg != ordered[j].loc.seg {
			return ordered[i].loc.seg < ordered[j].loc.seg
		}
		return ordered[i].loc.off < ordered[j].loc.off
	})
	for _, e := range ordered {
		rep.Recovered = append(rep.Recovered, RecoveredEntry{
			Key:         e.meta.Key,
			ContentType: e.meta.ContentType,
			Size:        int64(e.meta.bodyLen),
			ExecTime:    e.meta.ExecTime,
			Expires:     e.meta.Expires,
		})
	}
	l.deadBytes = l.totalBytes - liveBytes
	return rep, nil
}

// SegmentSpan locates one structurally parseable record inside a segment
// image; Valid reports whether its checksum verifies. The crash harness uses
// spans to aim damage at individual records.
type SegmentSpan struct {
	Off, Len int
	Key      string
	Valid    bool
}

// ScanSegment walks a segment image and returns a span per structurally
// parseable record, stopping at a torn tail or structural damage.
func ScanSegment(data []byte) []SegmentSpan {
	var spans []SegmentSpan
	off := 0
	for off < len(data) {
		m, n, err := parseEntryRecord(data[off:])
		if err != nil {
			break
		}
		_, _, _, verr := decodeRecord(data[off : off+n])
		spans = append(spans, SegmentSpan{Off: off, Len: n, Key: m.Key, Valid: verr == nil})
		off += n
	}
	return spans
}

// nextMagic returns the offset of the next record magic at or after from,
// or -1.
func nextMagic(data []byte, from int) int {
	for i := from; i+len(entryMagic) <= len(data); i++ {
		if data[i] == entryMagic[0] && [4]byte(data[i:i+4]) == entryMagic {
			return i
		}
	}
	return -1
}

// truncateSegment rewrites path to keep, via temp + rename so a crash during
// the truncation never loses the good prefix.
func (l *Log) truncateSegment(path string, keep []byte) error {
	tmp := path + ".tmp"
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: truncating %s: %w", path, err)
	}
	_, werr := f.Write(keep)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = l.fs.Rename(tmp, path)
	}
	if werr != nil {
		l.fs.Remove(tmp)
		return fmt.Errorf("store: truncating %s: %w", path, werr)
	}
	return nil
}

// rotateLocked closes the active segment (if any) and opens a fresh one.
// Under FsyncAlways the new segment's directory entry is synced before
// anything is appended to it, or a power cut could drop the whole segment.
// Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.nextSeq++
	f, err := l.fs.Create(l.segmentPath(l.nextSeq))
	if err == nil && l.fsync == FsyncAlways {
		if err = l.fs.SyncDir(l.dir); err != nil {
			f.Close()
		}
	}
	if err != nil {
		l.nextSeq-- // the segment never held anything; the next rotation reuses it
		return err
	}
	l.active = f
	l.activeSeq = l.nextSeq
	l.activeOff = 0
	l.segBytes[l.activeSeq] = 0
	return nil
}

// appendLocked appends one encoded record to the active segment, rotating
// first if needed, and returns where it landed. Callers hold l.mu. On error
// the active segment is abandoned (its tail may be torn); the next append
// starts a fresh segment so later records never follow garbage.
func (l *Log) appendLocked(rec []byte) (recordLoc, error) {
	if l.active == nil || l.activeOff >= l.segMax {
		if err := l.rotateLocked(); err != nil {
			return recordLoc{}, err
		}
	}
	_, err := l.active.Write(rec)
	if err == nil && l.fsync == FsyncAlways {
		err = l.active.Sync()
	}
	if err != nil {
		// The segment may now hold a torn record; recovery would truncate it,
		// but the running store must also never append after the tear.
		l.active.Close()
		l.active = nil
		return recordLoc{}, err
	}
	loc := recordLoc{seg: l.activeSeq, off: l.activeOff, n: len(rec)}
	l.activeOff += int64(len(rec))
	l.segBytes[l.activeSeq] += int64(len(rec))
	l.totalBytes += int64(len(rec))
	return loc, nil
}

// Put implements Store.
func (l *Log) Put(key, contentType string, body []byte) error {
	return l.PutEntry(key, contentType, body, 0, time.Time{})
}

// PutEntry implements MetaPutter. The write path is a single segment append.
func (l *Log) PutEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) error {
	if contentType == tombstoneContentType {
		return fmt.Errorf("store: content type %q is reserved", contentType)
	}
	if err := l.writeGate(); err != nil {
		l.putFailures.Add(1)
		return err
	}
	rec := encodeEntry(key, contentType, body, execTime, expires)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	loc, err := l.appendLocked(rec)
	if err != nil {
		l.mu.Unlock()
		l.noteWriteError(err)
		return err
	}
	if old, ok := l.index[key]; ok {
		l.deadenLocked(old)
	}
	l.index[key] = loc
	l.segLive[loc.seg] += int64(loc.n)
	l.startCleanerLocked()
	l.mu.Unlock()
	l.noteWriteOK()
	return nil
}

// deadenLocked takes loc, which the index just stopped pointing at, out of
// the live accounting.
func (l *Log) deadenLocked(loc recordLoc) {
	l.deadBytes += int64(loc.n)
	l.segLive[loc.seg] -= int64(loc.n)
}

// dropIfAt removes key from the index if it still points at loc.
func (l *Log) dropIfAt(key string, loc recordLoc) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.index[key] != loc {
		return false
	}
	delete(l.index, key)
	l.deadenLocked(loc)
	return true
}

// Get implements Store; the body is the caller's own, allocated to size.
func (l *Log) Get(key string) (string, []byte, error) {
	ct, body, _, err := l.get(key, false)
	return ct, body, err
}

// get reads key's record with one ReadAt through its segment's shared handle
// into a buffer of its own or, when leased, into a leased one, which the
// returned body then aliases until the lease (nil on error) is released. The
// record is checksum-verified on every read; an entry that fails is dropped
// from the index and reported as an error, so a corrupt body is never served.
// A read that races the cleaner (its segment retired between lookup and read)
// retries against the updated index.
func (l *Log) get(key string, leased bool) (string, []byte, *lease.Buf, error) {
	var ls *lease.Buf
	var data []byte
	for attempt := 0; ; attempt++ {
		l.mu.RLock()
		closed := l.closed
		loc, ok := l.index[key]
		h := l.handles[loc.seg]
		if h != nil {
			h.refs.Add(1)
		}
		l.mu.RUnlock()
		if closed {
			return "", nil, nil, ErrClosed
		}
		if !ok {
			return "", nil, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		if cap(data) < loc.n {
			ls.Release()
			if leased {
				ls = new(lease.Buf) // a Buf leases once
				ls.Lease(loc.n)
				data = ls.B
			} else {
				data = make([]byte, loc.n)
			}
		}
		data = data[:loc.n]
		if err := l.readRecord(data, loc, h); err != nil {
			if errors.Is(err, iofs.ErrNotExist) && attempt < 4 {
				continue // the cleaner retired the segment under us; re-look up
			}
			ls.Release()
			return "", nil, nil, fmt.Errorf("store: reading %s@%d: %w", segmentFileName(loc.seg), loc.off, err)
		}
		k, ct, _, body, err := verifyRecord(data)
		if err == nil && string(k) != key {
			err = fmt.Errorf("%w: record holds key %q", ErrCorrupt, k)
		}
		if err == nil {
			return string(ct), body, ls, nil
		}
		// Verification failed. If the cleaner moved the entry meanwhile, the
		// stale bytes we read say nothing about the live record — retry.
		if !l.dropIfAt(key, loc) && attempt < 4 {
			continue
		}
		ls.Release()
		l.quarantined.Add(1)
		return "", nil, nil, fmt.Errorf("store: %s@%d: %w", segmentFileName(loc.seg), loc.off, err)
	}
}

// readRecord fills data with loc's bytes by one ReadAt through its segment's
// handle: h, on which the caller holds a reference, or the table's after
// opening it.
func (l *Log) readRecord(data []byte, loc recordLoc, h *segHandle) error {
	if h == nil {
		var err error
		if h, err = l.openHandle(loc.seg); err != nil {
			return err
		}
	}
	defer h.release()
	_, err := h.f.ReadAt(data, loc.off)
	return err
}

// segHandle is one segment's shared read handle. refs counts the handle
// table's own reference plus every read in flight, and whoever drops the
// last one closes the file — so it is never closed under a reader.
type segHandle struct {
	f    ReaderAtCloser
	refs atomic.Int32
}

func (h *segHandle) release() {
	if h.refs.Add(-1) == 0 {
		h.f.Close()
	}
}

// openHandle returns seg's read handle with a reference taken for the
// caller, opening it on the first read of that segment (the active one
// included: the handle sees later appends). A segment the cleaner has retired
// reports ErrNotExist, which sends Get back to the index.
func (l *Log) openHandle(seg int64) (*segHandle, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	h := l.handles[seg]
	if h == nil {
		if _, live := l.segBytes[seg]; !live {
			return nil, iofs.ErrNotExist
		}
		f, err := l.fs.OpenRead(l.segmentPath(seg))
		if err != nil {
			return nil, err
		}
		h = &segHandle{f: f}
		h.refs.Store(1) // the table's reference
		l.handles[seg] = h
	}
	h.refs.Add(1)
	return h, nil
}

// dropHandleLocked takes seg's handle out of the table; reads in flight
// keep the file open until they finish. Callers hold l.mu.
func (l *Log) dropHandleLocked(seg int64) {
	if h := l.handles[seg]; h != nil {
		delete(l.handles, seg)
		h.release()
	}
}

// Delete implements Store: the key leaves the index immediately and a
// tombstone record makes the deletion durable. If the store is degraded the
// tombstone is skipped — the entry may resurrect on the next open — rather
// than failing an eviction that must proceed.
func (l *Log) Delete(key string) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	loc, ok := l.index[key]
	if !ok {
		l.mu.Unlock()
		return nil
	}
	delete(l.index, key)
	l.deadenLocked(loc)
	l.mu.Unlock()

	if err := l.writeGate(); err != nil {
		return nil
	}
	rec := encodeEntry(key, tombstoneContentType, nil, 0, time.Time{})
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	_, err := l.appendLocked(rec)
	if err == nil {
		l.deadBytes += int64(len(rec)) // a tombstone is dead on arrival
		l.startCleanerLocked()
	}
	l.mu.Unlock()
	if err != nil {
		l.noteWriteError(err)
		return nil
	}
	l.noteWriteOK()
	return nil
}

// overDeadLocked reports whether dead bytes justify cleaning.
func (l *Log) overDeadLocked() bool {
	return l.deadBytes >= l.compactMin &&
		float64(l.deadBytes) >= l.compactFrac*float64(l.totalBytes)
}

// startCleanerLocked launches the cleaner if dead bytes justify it, none is
// running and the last failure is ReprobeInterval old. Callers hold l.mu.
func (l *Log) startCleanerLocked() {
	if l.compacting || l.closed || !l.overDeadLocked() || time.Now().Before(l.cleanRetry) {
		return
	}
	l.compacting = true
	l.compactWG.Add(1)
	go l.clean()
}

// clean retires oldest segments for as long as the trigger holds. It runs on
// its own goroutine with l.compacting held true; Close interrupts it between
// segments. A pass that failed ends it: a write error has put the store in
// degraded mode, which gates the appends that would relaunch the cleaner, and
// a read error is retried no sooner than a degraded store is re-probed.
func (l *Log) clean() {
	defer l.compactWG.Done()
	var buf []byte
	var err error
	for {
		l.mu.Lock()
		if err != nil {
			l.cleanRetry = time.Now().Add(l.reprobe)
		}
		if err != nil || l.closed || !l.overDeadLocked() {
			l.compacting = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		buf, err = l.cleanOldest(buf)
	}
}

// cleanBatchBytes bounds one copy of survivors to the tail, and with it how
// long the cleaner holds the write lock.
const cleanBatchBytes = 256 << 10

// cleanOldest retires the oldest segment: unread if nothing in it is live,
// otherwise after copying its live records to the tail through buf, which is
// returned for the next pass — never more than one segment in memory. A crash
// anywhere is safe: a copy is byte-identical to its original and replays
// after it, and a tombstone in the oldest segment can only mask records of
// that same segment, so it may leave with it.
func (l *Log) cleanOldest(buf []byte) ([]byte, error) {
	l.mu.Lock()
	victim := int64(math.MaxInt64)
	for seq := range l.segBytes {
		victim = min(victim, seq)
	}
	if l.active != nil && l.activeSeq == victim {
		// Seal it: the next append, a copy included, starts a new segment.
		l.active.Close()
		l.active = nil
	}
	size, live := l.segBytes[victim], l.segLive[victim]
	l.mu.Unlock()

	if live > 0 {
		if int64(cap(buf)) < size {
			buf = make([]byte, size)
		}
		if err := l.copyLive(victim, buf[:size]); err != nil {
			return buf, err
		}
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return buf, ErrClosed
	}
	if l.segLive[victim] != 0 {
		// What the index still holds here the scan did not find where the
		// index says it is (damage before it, another key's record in its
		// place, a short file): it cannot be verified, so it goes.
		for key, loc := range l.index {
			if loc.seg == victim {
				delete(l.index, key)
				l.deadenLocked(loc)
				l.quarantined.Add(1)
			}
		}
	}
	l.totalBytes -= l.segBytes[victim]
	l.deadBytes -= l.segBytes[victim]
	delete(l.segBytes, victim)
	delete(l.segLive, victim)
	// Handle out of the table, then unlink: a Get racing this retries and
	// finds the copy; one already reading keeps its handle until it is done.
	l.dropHandleLocked(victim)
	l.mu.Unlock()
	return buf, l.fs.Remove(l.segmentPath(victim))
}

// liveRecord is a record of the victim the index pointed at when scanned.
type liveRecord struct {
	key string
	loc recordLoc
}

// copyLive reads the sealed segment victim into data, walks its records as
// recovery does, and copies to the tail each one the index still points at —
// by (segment, offset), so of several records of one key at most the newest —
// once it verifies as in Get: whole-record parse, checksum, stored key indexed
// there. A live record that fails its checksum is dropped and counted.
func (l *Log) copyLive(victim int64, data []byte) error {
	h, err := l.openHandle(victim)
	if err != nil {
		return err
	}
	got, err := h.f.ReadAt(data, 0)
	h.release()
	if err != nil && !errors.Is(err, io.EOF) {
		return fmt.Errorf("store: cleaning %s: %w", segmentFileName(victim), err)
	}
	data = data[:got]

	var batch []liveRecord
	batchBytes := 0
	for off := 0; off < len(data); {
		m, n, err := parseEntryRecord(data[off:])
		if err != nil {
			next := nextMagic(data, off+1)
			if next < 0 {
				break
			}
			off = next
			continue
		}
		loc := recordLoc{seg: victim, off: int64(off), n: n}
		off += n
		l.mu.RLock()
		live := l.index[m.Key] == loc
		l.mu.RUnlock()
		if !live {
			continue
		}
		if _, _, _, err := decodeRecord(data[loc.off:off]); err != nil {
			if l.dropIfAt(m.Key, loc) {
				l.quarantined.Add(1)
			}
			continue
		}
		if batchBytes+n > cleanBatchBytes && len(batch) > 0 {
			if err := l.copyBatch(data, batch); err != nil {
				return err
			}
			batch, batchBytes = batch[:0], 0
		}
		batch = append(batch, liveRecord{key: m.Key, loc: loc})
		batchBytes += n
	}
	return l.copyBatch(data, batch)
}

// copyBatch appends the records of batch (in offset order, bytes in data) that
// the index still points at to the tail with one append and swings the index
// to the copies — all under the one lock a Put takes, so a concurrent
// overwrite or delete lands wholly before (no copy) or after (later in the log).
func (l *Log) copyBatch(data []byte, batch []liveRecord) error {
	l.mu.Lock()
	// Survivors are packed at the front of data: a record only moves down,
	// over bytes the scan has passed. (A closed store's index is empty.)
	out, kept := data[:0], batch[:0]
	for _, r := range batch {
		if l.index[r.key] == r.loc {
			out = append(out, data[r.loc.off:r.loc.off+int64(r.loc.n)]...)
			kept = append(kept, r)
		}
	}
	var err error
	if len(kept) > 0 {
		var at recordLoc
		if at, err = l.appendLocked(out); err == nil {
			for _, r := range kept {
				l.deadenLocked(r.loc)
				at.n = r.loc.n
				l.index[r.key] = at
				l.segLive[at.seg] += int64(at.n)
				at.off += int64(at.n)
			}
		}
	}
	l.mu.Unlock()
	if err != nil {
		l.noteWriteError(err)
	}
	return err
}

// StorageStatus implements the health reporter used by /swala-status and
// the wire stats.
func (l *Log) StorageStatus() StorageStatus { return l.status() }

// Len implements Store.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.index)
}

// Close implements Store. Segments stay on disk so the next OpenLog recovers
// them; use Destroy to delete them.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closed = true
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.index = make(map[string]recordLoc)
	for seg := range l.handles {
		l.dropHandleLocked(seg)
	}
	l.mu.Unlock()
	l.compactWG.Wait()
	return nil
}

// Destroy closes the store and removes its segments and their truncation
// scratch files, then the directory if that leaves it empty. Files the log
// did not create stay.
func (l *Log) Destroy() error {
	l.Close()
	listing, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", l.dir, err)
	}
	kept := 0
	for _, de := range listing {
		_, seg := parseSegmentFileName(de.Name())
		if de.IsDir() || !(seg || isSegmentTmp(de.Name())) {
			kept++
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, de.Name())); err != nil {
			return err
		}
	}
	if kept > 0 {
		return nil
	}
	return l.fs.Remove(l.dir)
}
