package store

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"path/filepath"
	"slices"
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
// (format.go). Where each key's live record lies is kept in memory by an
// Index: the log's own key map, rebuilt by a recovery scan on open, until a
// cache directory adopts the log (Adopt) and lists the locations in its own
// entries. A warm miss costs one sequential append.
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

	mu sync.RWMutex
	// idx answers which record of a key is live: ownIndex over index until
	// the log is adopted, the adopter after.
	idx Index
	// index is the log's own key map, guarded by indexMu; nil once adopted.
	indexMu sync.RWMutex
	index   map[string]Loc
	// buf holds the record being appended, reused from append to append.
	buf        []byte
	active     File   // nil until the first append after open/rotate
	activeSeq  uint32 // valid only when active != nil
	activeOff  int64
	nextSeq    uint32                // highest segment number ever used
	segBytes   map[uint32]int64      // on-disk bytes per segment
	segLive    map[uint32]int64      // bytes per segment of listed records, and of appended ones not listed yet
	handles    map[uint32]*segHandle // one shared read handle per segment read so far
	totalBytes int64                 // bytes across all segments (live + dead)
	deadBytes  int64                 // bytes no listing holds
	closed     bool
	// unlisted holds the records appended but not listed yet. The cleaner
	// retires no segment that holds one, and copies no record of a key that
	// has one: the copy would land after the newer record and replay over it.
	// It waits on listed (whose L is &mu) instead.
	unlisted []liveRecord
	listed   sync.Cond

	compacting bool      // one cleaner at a time; guarded by mu
	cleanRetry time.Time // a failed cleaning pass is not retried before this
	compactWG  sync.WaitGroup

	storeHealth
}

// Loc is where one record lies: segment number, byte offset and length. It
// is opaque outside the store and comparable; the zero Loc names no record.
// Each field fits 32 bits — segments rotate below maxSegmentBytes and no
// record reaches maxRecordBytes — so a directory slot holds one in 12 bytes.
type Loc struct {
	seg, off, n uint32
}

// Len returns the record's length in bytes (0 for the zero Loc).
func (loc Loc) Len() int { return int(loc.n) }

// Index lists, for each key, where its live record lies. The log asks it
// every liveness question — is this record still listed, move a listing to
// its copy, drop a listing whose record failed verification — and a Log
// that is not adopted answers them from its own key map. The log calls
// LocalLoc and Repoint with its lock held, so that a listing and the live
// accounting change together: they must neither call into the log nor wait
// for anything that does.
type Index interface {
	// LocalLoc returns key's listed location; ok is false when key is not
	// listed. A listed key may hold the zero Loc: its record was dropped.
	LocalLoc(key string) (loc Loc, ok bool)
	// Repoint lists next for key if key is listed at prev, in one step,
	// and reports whether it did. The log repoints a copied record to its
	// copy, and a record that failed verification to the zero Loc.
	Repoint(key string, prev, next Loc) bool
	// LocalLen reports how many keys are listed.
	LocalLen() int
}

// Segments rotate once they reach maxSegmentBytes and a record must stay
// below maxRecordBytes, so every offset and length fits a Loc's 32 bits.
const (
	maxSegmentBytes = 1 << 30
	maxRecordBytes  = 1 << 31
	// maxKeptBuf bounds the append buffer a log keeps between appends.
	maxKeptBuf = 256 << 10
)

// errRecordTooLarge refuses an entry whose record would not fit a Loc.
var errRecordTooLarge = errors.New("store: entry too large for one record")

// errAdopted refuses a keyed Put on an adopted log: a record enters its
// adopter's index through Append.
var errAdopted = errors.New("store: the log is adopted; entries enter through Append")

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
	// (0 = DefaultSegmentMaxBytes; at most 1 GiB).
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
	opts.SegmentMaxBytes = min(opts.SegmentMaxBytes, maxSegmentBytes)
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
		index:       make(map[string]Loc),
		segBytes:    make(map[uint32]int64),
		segLive:     make(map[uint32]int64),
		handles:     make(map[uint32]*segHandle),
	}
	l.idx = (*ownIndex)(l)
	l.listed.L = &l.mu
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

func segmentFileName(seq uint32) string {
	return "seg-" + strconv.FormatUint(uint64(seq), 10) + ".log"
}

func parseSegmentFileName(name string) (uint32, bool) {
	s, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".log")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 32)
	if err != nil || n == 0 {
		return 0, false
	}
	return uint32(n), true
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

func (l *Log) segmentPath(seq uint32) string {
	return filepath.Join(l.dir, segmentFileName(seq))
}

// recover scans the segment files and rebuilds the log's key map.
func (l *Log) recover() (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	listing, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", l.dir, err)
	}
	var seqs []uint32
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
		if len(data) > maxSegmentBytes+maxRecordBytes {
			return nil, fmt.Errorf("store: %s: %d bytes, more than a segment holds", path, len(data))
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
				loc := Loc{seg: seq, off: uint32(off), n: uint32(n)}
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
		loc  Loc
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
			Loc:         e.loc,
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
	if l.nextSeq == math.MaxUint32 {
		return errors.New("store: segment numbers exhausted")
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
func (l *Log) appendLocked(rec []byte) (Loc, error) {
	if l.active == nil || l.activeOff >= l.segMax {
		if err := l.rotateLocked(); err != nil {
			return Loc{}, err
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
		return Loc{}, err
	}
	loc := Loc{seg: l.activeSeq, off: uint32(l.activeOff), n: uint32(len(rec))}
	l.activeOff += int64(len(rec))
	l.segBytes[l.activeSeq] += int64(len(rec))
	l.totalBytes += int64(len(rec))
	return loc, nil
}

// appendEntryLocked encodes one entry into the log's append buffer and
// appends it. Callers hold l.mu and have checked the record's size.
func (l *Log) appendEntryLocked(key, contentType string, body []byte, execTime time.Duration, expires time.Time) (Loc, error) {
	l.buf = appendEntry(l.buf, key, contentType, body, execTime, expires)
	loc, err := l.appendLocked(l.buf)
	if cap(l.buf) > maxKeptBuf {
		l.buf = nil // one large body must not stay resident
	}
	return loc, err
}

// Put implements Store.
func (l *Log) Put(key, contentType string, body []byte) error {
	return l.PutEntry(key, contentType, body, 0, time.Time{})
}

// PutEntry implements MetaPutter: one Append, listed in the log's own key
// map, the record it replaces dropped. An adopted log refuses it.
func (l *Log) PutEntry(key, contentType string, body []byte, execTime time.Duration, expires time.Time) error {
	l.indexMu.RLock()
	adopted := l.index == nil
	l.indexMu.RUnlock()
	if adopted {
		return errAdopted
	}
	return l.Append(key, contentType, body, execTime, expires, func(loc Loc) {
		l.indexMu.Lock()
		old := l.index[key]
		l.index[key] = loc
		l.indexMu.Unlock()
		if old != (Loc{}) {
			l.DropAt(key, old, false)
		}
	})
}

// Append implements Store. The write is a single segment append, and the
// record counts as live from it on: list must list loc in the index, or
// drop it (DropAt), before it returns. Until then the cleaner neither retires
// the record's segment — it copies only listed records — nor copies an older
// record of key, which would land after this one and replay over it. list
// runs without the log's locks held.
func (l *Log) Append(key, contentType string, body []byte, execTime time.Duration, expires time.Time, list func(Loc)) error {
	if contentType == tombstoneContentType {
		return fmt.Errorf("store: content type %q is reserved", contentType)
	}
	if recordSize(key, contentType, body) >= maxRecordBytes {
		return errRecordTooLarge
	}
	if err := l.writeGate(); err != nil {
		l.putFailures.Add(1)
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	loc, err := l.appendEntryLocked(key, contentType, body, execTime, expires)
	if err != nil {
		l.mu.Unlock()
		l.noteWriteError(err)
		return err
	}
	l.segLive[loc.seg] += int64(loc.n)
	l.unlisted = append(l.unlisted, liveRecord{key: key, loc: loc})
	l.mu.Unlock()
	l.noteWriteOK()

	list(loc)

	l.mu.Lock()
	i := slices.Index(l.unlisted, liveRecord{key: key, loc: loc})
	last := len(l.unlisted) - 1
	l.unlisted[i] = l.unlisted[last]
	l.unlisted[last] = liveRecord{}
	l.unlisted = l.unlisted[:last]
	l.listed.Broadcast()
	l.startCleanerLocked()
	l.mu.Unlock()
	return nil
}

// DropAt implements Store: the record at loc, which no listing holds any
// more, stops counting as live, and with tombstone a tombstone record makes
// the key's deletion durable. The caller decides the tombstone: written while
// a newer record of key is listed or being appended, it would erase that
// record at the next open. If the store is degraded the tombstone is skipped
// — the entry may resurrect on the next open — rather than failing an
// eviction that must proceed.
func (l *Log) DropAt(key string, loc Loc, tombstone bool) {
	if loc != (Loc{}) {
		l.mu.Lock()
		if !l.closed {
			l.deadenLocked(loc)
		}
		l.mu.Unlock()
	}
	if tombstone {
		l.appendTombstone(key)
	}
}

// appendTombstone appends key's tombstone, dead on arrival.
func (l *Log) appendTombstone(key string) {
	if err := l.writeGate(); err != nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	loc, err := l.appendEntryLocked(key, tombstoneContentType, nil, 0, time.Time{})
	if err == nil {
		l.deadBytes += int64(loc.n)
		l.startCleanerLocked()
	}
	l.mu.Unlock()
	if err != nil {
		l.noteWriteError(err)
		return
	}
	l.noteWriteOK()
}

// deadenLocked takes loc, which no listing holds any more, out of the live
// accounting. The zero Loc is no record, and a record of a retired segment
// left the accounting with its segment. Callers hold l.mu.
func (l *Log) deadenLocked(loc Loc) {
	if _, ok := l.segBytes[loc.seg]; !ok {
		return
	}
	l.deadBytes += int64(loc.n)
	l.segLive[loc.seg] -= int64(loc.n)
}

// unlist repoints key's listing from loc to the zero Loc, if it is still
// there, and reports whether it was.
func (l *Log) unlist(key string, loc Loc) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.idx.Repoint(key, loc, Loc{}) {
		return false
	}
	l.deadenLocked(loc)
	return true
}

// Get implements Store; the body is the caller's own, allocated to size.
func (l *Log) Get(key string) (string, []byte, error) {
	ct, body, _, err := l.get(key, false)
	return ct, body, err
}

// get reads the record the index lists for key (see read).
func (l *Log) get(key string, leased bool) (string, []byte, *lease.Buf, error) {
	l.mu.RLock()
	closed, idx := l.closed, l.idx
	l.mu.RUnlock()
	if closed {
		return "", nil, nil, ErrClosed
	}
	loc, _ := idx.LocalLoc(key)
	return l.read(key, loc, leased)
}

// ReadAt implements Store. The body is leased: valid until release is
// called.
func (l *Log) ReadAt(key string, loc Loc) (string, []byte, func(), error) {
	ct, body, ls, err := l.read(key, loc, true)
	if err != nil {
		return "", nil, nil, err
	}
	return ct, body, ls.Release, nil
}

// read reads key's record at loc with one ReadAt through its segment's
// shared handle into a buffer of its own or, when leased, into a leased one,
// which the returned body then aliases until the lease (nil on error) is
// released. A record no listing holds any more still reads back until the
// cleaner retires its segment; a read that finds the segment retired asks the
// index where key lives now and reads there — or, when the index still lists
// key in the retired segment, where the cleaner could not find the record,
// drops the listing and counts it. The record is checksum-verified on every
// read; one that fails is dropped from the index and reported as an error, so
// a corrupt body is never served.
func (l *Log) read(key string, loc Loc, leased bool) (string, []byte, *lease.Buf, error) {
	var ls *lease.Buf
	var data []byte
	for attempt := 0; ; attempt++ {
		if loc == (Loc{}) {
			ls.Release()
			return "", nil, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		l.mu.RLock()
		closed, idx := l.closed, l.idx
		h := l.handles[loc.seg]
		if h != nil {
			h.refs.Add(1)
		}
		l.mu.RUnlock()
		if closed {
			if h != nil {
				h.release()
			}
			ls.Release()
			return "", nil, nil, ErrClosed
		}
		n := int(loc.n)
		if cap(data) < n {
			ls.Release()
			if leased {
				ls = new(lease.Buf) // a Buf leases once
				ls.Lease(n)
				data = ls.B
			} else {
				data = make([]byte, n)
			}
		}
		data = data[:n]
		err := l.readRecord(data, loc, h)
		if errors.Is(err, iofs.ErrNotExist) {
			// The cleaner retired the segment: ask the index again.
			next, _ := idx.LocalLoc(key)
			if next != loc && attempt < 4 {
				loc = next
				continue
			}
			if next == loc && l.unlist(key, loc) {
				l.quarantined.Add(1)
			}
			ls.Release()
			return "", nil, nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		if err != nil {
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
		if !l.unlist(key, loc) && attempt < 4 {
			loc, _ = idx.LocalLoc(key)
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
func (l *Log) readRecord(data []byte, loc Loc, h *segHandle) error {
	if h == nil {
		var err error
		if h, err = l.openHandle(loc.seg); err != nil {
			return err
		}
	}
	defer h.release()
	_, err := h.f.ReadAt(data, int64(loc.off))
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
// reports ErrNotExist, which sends a read back to the index.
func (l *Log) openHandle(seg uint32) (*segHandle, error) {
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
func (l *Log) dropHandleLocked(seg uint32) {
	if h := l.handles[seg]; h != nil {
		delete(l.handles, seg)
		h.release()
	}
}

// Delete implements Store: the key's listing is dropped at once — an adopted
// log's adopter keeps the key listed without a record — and a tombstone
// makes the deletion durable (see DropAt).
func (l *Log) Delete(key string) error {
	for {
		l.mu.RLock()
		closed, idx := l.closed, l.idx
		l.mu.RUnlock()
		if closed {
			return ErrClosed
		}
		loc, _ := idx.LocalLoc(key)
		if loc == (Loc{}) {
			return nil
		}
		if l.unlist(key, loc) {
			break
		}
	}
	l.appendTombstone(key)
	return nil
}

// Adopt makes idx — a cache directory's table of the entries it holds — the
// log's index, and frees the log's own key map. fill runs first, with the
// cleaner held off: it lists in idx the recovered entries that stay
// (RecoveredEntry.Loc) and drops the rest. When it returns, what idx lists is
// what is live. Adopt must run before the log sees concurrent use.
func (l *Log) Adopt(idx Index, fill func()) {
	l.compactWG.Wait()
	l.mu.Lock()
	l.compacting = true
	l.mu.Unlock()
	if fill != nil {
		fill()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.indexMu.Lock()
	own := l.index
	l.index = nil
	l.indexMu.Unlock()
	l.idx = idx
	// Drops during fill counted against the key map; recount from idx.
	clear(l.segLive)
	l.deadBytes = l.totalBytes
	for key, loc := range own {
		if at, _ := idx.LocalLoc(key); at == loc {
			l.segLive[loc.seg] += int64(loc.n)
			l.deadBytes -= int64(loc.n)
		}
	}
	l.compacting = false
	l.startCleanerLocked()
}

// ownIndex is a Log's own key map in the role of its Index.
type ownIndex Log

// LocalLoc implements Index.
func (x *ownIndex) LocalLoc(key string) (Loc, bool) {
	x.indexMu.RLock()
	defer x.indexMu.RUnlock()
	loc, ok := x.index[key]
	return loc, ok
}

// Repoint implements Index; repointing to the zero Loc forgets the key.
func (x *ownIndex) Repoint(key string, prev, next Loc) bool {
	x.indexMu.Lock()
	defer x.indexMu.Unlock()
	if cur, ok := x.index[key]; !ok || cur != prev {
		return false
	}
	if next == (Loc{}) {
		delete(x.index, key)
	} else {
		x.index[key] = next
	}
	return true
}

// LocalLen implements Index.
func (x *ownIndex) LocalLen() int {
	x.indexMu.RLock()
	defer x.indexMu.RUnlock()
	return len(x.index)
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
// otherwise after copying its listed records to the tail through buf, which
// is returned for the next pass — never more than one segment in memory. It
// first waits out the appends whose records in the segment are not listed
// yet (unlisted). A crash anywhere is safe: a copy is byte-identical to its original and
// replays after it, and a tombstone in the oldest segment can only mask
// records of that same segment, so it may leave with it.
func (l *Log) cleanOldest(buf []byte) ([]byte, error) {
	l.mu.Lock()
	victim := uint32(math.MaxUint32)
	for seq := range l.segBytes {
		victim = min(victim, seq)
	}
	if l.active != nil && l.activeSeq == victim {
		// Seal it: the next append, a copy included, starts a new segment.
		l.active.Close()
		l.active = nil
	}
	l.waitListedLocked(func(r liveRecord) bool { return r.loc.seg == victim })
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
	if l.segLive[victim] != 0 && l.index != nil {
		// What the key map still lists here the scan did not find where the
		// map says it is (damage before it, another key's record in its
		// place, a short file): it cannot be verified, so it goes. An
		// adopter's listings of this kind are found by the read (read).
		l.indexMu.Lock()
		for key, loc := range l.index {
			if loc.seg == victim {
				delete(l.index, key)
				l.deadenLocked(loc)
				l.quarantined.Add(1)
			}
		}
		l.indexMu.Unlock()
	}
	// Whatever still counts as live here — a drop on its way, an adopter's
	// listing the scan did not find — leaves with the segment.
	l.totalBytes -= l.segBytes[victim]
	l.deadBytes -= l.segBytes[victim] - l.segLive[victim]
	delete(l.segBytes, victim)
	delete(l.segLive, victim)
	// Handle out of the table, then unlink: a read racing this retries and
	// finds the copy; one already reading keeps its handle until it is done.
	l.dropHandleLocked(victim)
	l.mu.Unlock()
	return buf, l.fs.Remove(l.segmentPath(victim))
}

// liveRecord is one record of key: a record of the cleaner's victim the
// index listed when scanned, or an append not listed yet.
type liveRecord struct {
	key string
	loc Loc
}

// waitListedLocked waits until no append that is not listed yet satisfies
// holds. Callers hold l.mu, which the wait releases.
func (l *Log) waitListedLocked(holds func(liveRecord) bool) {
	for slices.ContainsFunc(l.unlisted, holds) {
		l.listed.Wait()
	}
}

// copyLive reads the sealed segment victim into data, walks its records as
// recovery does, and copies to the tail each one the index still lists — by
// (segment, offset), so of several records of one key at most the newest —
// once it verifies as in Get: whole-record parse, checksum, stored key listed
// there. A listed record that fails its checksum is dropped and counted.
func (l *Log) copyLive(victim uint32, data []byte) error {
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
	l.mu.RLock()
	idx := l.idx
	l.mu.RUnlock()

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
		loc := Loc{seg: victim, off: uint32(off), n: uint32(n)}
		off += n
		if at, _ := idx.LocalLoc(m.Key); at != loc {
			continue
		}
		if _, _, _, err := decodeRecord(data[loc.off:off]); err != nil {
			if l.unlist(m.Key, loc) {
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

// copyBatch appends the records of batch (in offset order, bytes in data)
// that the index still lists to the tail with one append, and repoints each
// listing to its copy — all under the write lock, so of a concurrent append or
// drop of the same key, and of a repoint, one wins whole: a listing that moved
// on since the check leaves its copy dead on arrival. It first waits out the
// appends of the batch's keys that are not listed yet, whose records the
// copies would otherwise follow on disk.
func (l *Log) copyBatch(data []byte, batch []liveRecord) error {
	l.mu.Lock()
	l.waitListedLocked(func(r liveRecord) bool {
		return slices.ContainsFunc(batch, func(b liveRecord) bool { return b.key == r.key })
	})
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Survivors are packed at the front of data: a record only moves down,
	// over bytes the scan has passed.
	out, kept := data[:0], batch[:0]
	for _, r := range batch {
		if at, _ := l.idx.LocalLoc(r.key); at == r.loc {
			out = append(out, data[r.loc.off:r.loc.off+r.loc.n]...)
			kept = append(kept, r)
		}
	}
	var err error
	if len(kept) > 0 {
		var at Loc
		if at, err = l.appendLocked(out); err == nil {
			for _, r := range kept {
				at.n = r.loc.n
				if l.idx.Repoint(r.key, r.loc, at) {
					l.deadenLocked(r.loc)
					l.segLive[at.seg] += int64(at.n)
				} else {
					l.deadBytes += int64(at.n)
				}
				at.off += at.n
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

// LiveBytes reports the bytes of the records the index lists, together with
// those of records appended but not listed yet and those dropped but not yet
// reported (DropAt).
func (l *Log) LiveBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.totalBytes - l.deadBytes
}

// Len implements Store: how many keys the index lists.
func (l *Log) Len() int {
	l.mu.RLock()
	idx := l.idx
	l.mu.RUnlock()
	return idx.LocalLen()
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
	l.indexMu.Lock()
	if l.index != nil {
		l.index = make(map[string]Loc)
	}
	l.indexMu.Unlock()
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
