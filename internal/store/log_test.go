package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// testLogOptions uses tiny thresholds so tests exercise rotation and
// compaction without megabytes of data. Compaction stays effectively off
// unless a test lowers the fraction/min further.
func testLogOptions(fs FS) LogOptions {
	return LogOptions{
		FS:              fs,
		SegmentMaxBytes: 1 << 30, // no rotation unless the test wants it
		CompactMinBytes: 1 << 30, // no compaction unless the test wants it
	}
}

func newTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

func TestLogPutGetRoundTrip(t *testing.T) {
	l, _ := newTestLog(t)
	if err := l.Put("k1", "text/html", []byte("hello")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ct, body, err := l.Get("k1")
	if err != nil || ct != "text/html" || string(body) != "hello" {
		t.Fatalf("Get = %q, %q, %v", ct, body, err)
	}
	if _, _, err := l.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get absent err = %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestLogOverwriteAndDelete(t *testing.T) {
	l, _ := newTestLog(t)
	l.Put("k", "a/a", []byte("one"))
	l.Put("k", "b/b", []byte("two"))
	ct, body, err := l.Get("k")
	if err != nil || ct != "b/b" || string(body) != "two" {
		t.Fatalf("after overwrite Get = %q, %q, %v", ct, body, err)
	}
	if err := l.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, _, err := l.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete err = %v", err)
	}
	if err := l.Delete("k"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
}

func TestLogRecoverAcrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	exp := time.Now().Add(time.Hour)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := l.PutEntry(key, "text/plain", []byte("body-"+key), time.Duration(i)*time.Millisecond, exp); err != nil {
			t.Fatalf("PutEntry: %v", err)
		}
	}
	l.Delete("k3")
	l.Close()

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Recovered) != 9 {
		t.Fatalf("Recovered = %d entries, want 9 (k3 tombstoned)", len(rep.Recovered))
	}
	// Write order, with the meta-data each entry was put with.
	for j, e := range rep.Recovered {
		i := j
		if i >= 3 {
			i++ // k3 is gone
		}
		key := fmt.Sprintf("k%d", i)
		if e.Key != key || e.ContentType != "text/plain" || e.Size != int64(len("body-"+key)) ||
			e.ExecTime != time.Duration(i)*time.Millisecond || !e.Expires.Equal(exp) {
			t.Fatalf("Recovered[%d] = %+v, want %s as put", j, e, key)
		}
	}
	if st := l2.StorageStatus(); !st.Persistent || st.Recovered != 9 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}
	ct, body, err := l2.Get("k7")
	if err != nil || ct != "text/plain" || string(body) != "body-k7" {
		t.Fatalf("Get after recovery = %q, %q, %v", ct, body, err)
	}
	if _, _, err := l2.Get("k3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

// TestLogPutIsOneAppend pins the acceptance criterion that a warm miss costs
// exactly one data write on the log's write path — no temp file, no rename
// payload, no second write.
func TestLogPutIsOneAppend(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(ffs))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	l.Put("warmup", "t/t", []byte("x")) // first Put also creates the segment
	before := ffs.Writes()
	for i := 0; i < 5; i++ {
		if err := l.Put(fmt.Sprintf("k%d", i), "t/t", []byte(strings.Repeat("b", 100))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if got := ffs.Writes() - before; got != 5 {
		t.Fatalf("5 Puts cost %d writes, want exactly 5 (one append each)", got)
	}
}

// TestLogTornFinalRecord: a crash mid-append leaves a partial record at the
// segment tail; recovery must truncate it, keep everything before it, and
// not count it as corruption.
func TestLogTornFinalRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Put("keep1", "t/t", []byte("alpha"))
	l.Put("keep2", "t/t", []byte("beta"))
	l.Put("torn", "t/t", []byte("this record will be cut in half"))
	l.Close()

	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want 1", segs)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record roughly in half.
	lastLen := len(appendEntry(nil, "torn", "t/t", []byte("this record will be cut in half"), 0, time.Time{}))
	if err := os.WriteFile(path, data[:len(data)-lastLen/2], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0 (a torn tail is not corruption)", rep.Quarantined)
	}
	if rep.OrphansSwept == 0 {
		t.Fatal("torn tail not reported as swept")
	}
	if len(rep.Recovered) != 2 {
		t.Fatalf("Recovered = %d, want 2", len(rep.Recovered))
	}
	if _, _, err := l2.Get("keep1"); err != nil {
		t.Fatalf("keep1 lost: %v", err)
	}
	if _, _, err := l2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record served: %v", err)
	}
	// The truncated segment must now be clean: a third open sees no damage.
	l2.Close()
	l3, rep3, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	if rep3.Quarantined != 0 || rep3.OrphansSwept != 0 {
		t.Fatalf("third open rep = %+v, want clean", rep3)
	}
}

// TestLogEmptyTrailingSegment: a rotation (or open) followed by a crash
// before any append leaves a zero-byte segment, and a crash mid-truncation a
// .tmp file; recovery sweeps both and a fresh open starts clean.
func TestLogEmptyTrailingSegment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Put("k", "t/t", []byte("v"))
	l.Close()
	// Simulate the crash-after-rotate: an empty segment above the real one.
	if err := os.WriteFile(filepath.Join(dir, segmentFileName(99)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, segmentFileName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("abandoned"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.OrphansSwept != 2 || rep.Quarantined != 0 {
		t.Fatalf("OrphansSwept = %d, Quarantined = %d; want 2 (the empty segment, the .tmp), 0", rep.OrphansSwept, rep.Quarantined)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("orphaned .tmp not swept from disk")
	}
	if len(rep.Recovered) != 1 {
		t.Fatalf("Recovered = %d, want 1", len(rep.Recovered))
	}
	if _, err := os.Stat(filepath.Join(dir, segmentFileName(99))); !os.IsNotExist(err) {
		t.Fatal("empty segment not swept from disk")
	}
	// New appends must go above the swept segment's number, not reuse it.
	if err := l2.Put("k2", "t/t", []byte("v2")); err != nil {
		t.Fatalf("Put after sweep: %v", err)
	}
	segs := segmentFiles(t, dir)
	sort.Strings(segs)
	for _, s := range segs {
		seq, _ := parseSegmentFileName(s)
		if seq > 99 {
			return
		}
	}
	t.Fatalf("no segment above 99 after append; segments = %v", segs)
}

// TestLogLeavesForeignFiles: the log only ever removes the files it creates.
// Recovery sweeps a segment's .tmp but no other .tmp, and Destroy removes
// segments but keeps other files and so the directory.
func TestLogLeavesForeignFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Put("k", "t/t", []byte("v"))
	l.Close()
	foreign := []string{"notes.txt", "x.tmp"}
	for _, name := range append(foreign, segmentFileName(7)+".tmp") {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(rep.Recovered) != 1 || rep.OrphansSwept != 1 {
		t.Fatalf("Recovered = %d, OrphansSwept = %d; want 1 (k), 1 (seg-7.log.tmp)", len(rep.Recovered), rep.OrphansSwept)
	}
	keeps := func(when string) {
		t.Helper()
		for _, name := range foreign {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Fatalf("%s removed %s: %v", when, name, err)
			}
		}
	}
	keeps("recovery")
	if err := l2.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	keeps("Destroy")
	if segs := segmentFiles(t, dir); len(segs) != 0 {
		t.Fatalf("segments left after Destroy: %v", segs)
	}
}

// TestLogDuplicateKeyAcrossSegments: with one key written into several
// segments (rotation between overwrites), recovery must keep the newest.
func TestLogDuplicateKeyAcrossSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	opts := testLogOptions(nil)
	opts.SegmentMaxBytes = 1 // every append rotates onto a fresh segment
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Put("dup", "t/t", []byte(fmt.Sprintf("version-%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	l.Put("other", "t/t", []byte("solo"))
	l.Close()
	if segs := segmentFiles(t, dir); len(segs) < 4 {
		t.Fatalf("segments = %v, want one per append", segs)
	}

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Duplicates != 3 {
		t.Fatalf("Duplicates = %d, want 3 superseded copies", rep.Duplicates)
	}
	if len(rep.Recovered) != 2 {
		t.Fatalf("Recovered = %d, want 2", len(rep.Recovered))
	}
	_, body, err := l2.Get("dup")
	if err != nil || string(body) != "version-3" {
		t.Fatalf("Get dup = %q, %v, want newest version-3", body, err)
	}
}

// TestLogDamagedRecordQuarantinedOnRecovery: a flipped bit inside one record
// must quarantine exactly that record; its neighbors survive.
func TestLogDamagedRecordQuarantined(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Put("before", "t/t", []byte(strings.Repeat("a", 200)))
	l.Put("victim", "t/t", []byte(strings.Repeat("b", 200)))
	l.Put("after", "t/t", []byte(strings.Repeat("c", 200)))
	loc := l.index["victim"]
	l.Close()

	path := filepath.Join(dir, segmentFileName(loc.seg))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[int64(loc.off+loc.n)-10] ^= 0x40 // flip a bit inside victim's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if st := l2.StorageStatus(); rep.Quarantined != 1 || st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d (status %d), want 1", rep.Quarantined, st.Quarantined)
	}
	if len(rep.Recovered) != 2 {
		t.Fatalf("Recovered = %d, want 2", len(rep.Recovered))
	}
	if _, _, err := l2.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("damaged record still indexed: %v", err)
	}
	for _, k := range []string{"before", "after"} {
		if _, _, err := l2.Get(k); err != nil {
			t.Fatalf("neighbor %s lost: %v", k, err)
		}
	}
}

// TestLogBitRotCaughtAtRead: corruption that develops after recovery is
// detected by the per-read checksum; the corrupt body is never served.
func TestLogBitRotCaughtAtRead(t *testing.T) {
	for _, tc := range []struct {
		name      string
		readFirst bool // the rot is seen through an already-open handle
	}{{"FirstRead", false}, {"OpenHandle", true}} {
		t.Run(tc.name, func(t *testing.T) {
			l, dir := newTestLog(t)
			l.Put("rot", "t/t", []byte(strings.Repeat("x", 500)))
			if tc.readFirst {
				if _, _, err := l.Get("rot"); err != nil {
					t.Fatalf("Get before the rot: %v", err)
				}
			}
			loc := l.index["rot"]
			flipByteInPlace(t, filepath.Join(dir, segmentFileName(loc.seg)), int64(loc.off)+50)
			if _, _, err := l.Get("rot"); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get err = %v, want ErrCorrupt", err)
			}
			if _, _, err := l.Get("rot"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("second Get err = %v, want ErrNotFound (dropped)", err)
			}
			if st := l.StorageStatus(); st.Quarantined != 1 {
				t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
			}
		})
	}
}

// flipByteInPlace flips one bit of the file at off without replacing the
// file, so a handle that is already open sees the damage.
func flipByteInPlace(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestLogCompactionReclaimsDeadBytes: overwrite churn triggers compaction,
// which shrinks disk usage and keeps every live entry readable.
func TestLogCompactionReclaims(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	opts := LogOptions{
		SegmentMaxBytes: 4 << 10,
		CompactMinBytes: 8 << 10,
		CompactFraction: 0.5,
	}
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	body := []byte(strings.Repeat("z", 512))
	for round := 0; round < 20; round++ {
		for i := 0; i < 8; i++ {
			if err := l.Put(fmt.Sprintf("k%d", i), "t/t", body); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	l.compactWG.Wait()
	l.mu.RLock()
	dead, total := l.deadBytes, l.totalBytes
	l.mu.RUnlock()
	if total > 100<<10 {
		t.Fatalf("totalBytes = %d after compaction, want well under the ~80 KiB written", total)
	}
	if dead > total {
		t.Fatalf("deadBytes %d > totalBytes %d", dead, total)
	}
	for i := 0; i < 8; i++ {
		_, got, err := l.Get(fmt.Sprintf("k%d", i))
		if err != nil || string(got) != string(body) {
			t.Fatalf("k%d after compaction: %v", i, err)
		}
	}
	// Live set survives a restart of the compacted store.
	l.Close()
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Recovered) != 8 {
		t.Fatalf("Recovered = %d, want 8", len(rep.Recovered))
	}
}

// TestLogCompactionRacesGet hammers Get while overwrite churn drives
// compactions: no read may fail or observe a stale body version mix. Run
// with -race.
func TestLogCompactionRacesGet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	opts := LogOptions{
		SegmentMaxBytes: 2 << 10,
		CompactMinBytes: 4 << 10,
		CompactFraction: 0.3,
	}
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	const keys = 4
	body := strings.Repeat("y", 256)
	for i := 0; i < keys; i++ {
		l.Put(fmt.Sprintf("k%d", i), "t/t", []byte(body))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: constant overwrite churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Put(fmt.Sprintf("k%d", i%keys), "t/t", []byte(body)); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() { // readers racing the compactions
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < keys; i++ {
					_, got, err := l.Get(fmt.Sprintf("k%d", i))
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if string(got) != body {
						t.Errorf("Get returned wrong body (%d bytes)", len(got))
						return
					}
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestLogDegradedMode: append failures flip the store read-only; reads keep
// working; a healed disk lifts the mode via the probe write.
func TestLogDegradedMode(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := filepath.Join(t.TempDir(), "cache")
	opts := testLogOptions(ffs)
	opts.ReprobeInterval = time.Millisecond
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	l.Put("stable", "t/t", []byte("ok"))

	ffs.FailWrites(errors.New("disk full"))
	if err := l.Put("fails", "t/t", []byte("x")); err == nil {
		t.Fatal("Put succeeded during write fault")
	}
	if st := l.StorageStatus(); !st.Degraded {
		t.Fatal("not degraded after write failure")
	}
	if _, _, err := l.Get("stable"); err != nil {
		t.Fatalf("read during degraded mode: %v", err)
	}
	ffs.FailWrites(nil)
	time.Sleep(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := l.Put("probe", "t/t", []byte("y"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never recovered: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := l.StorageStatus(); st.Degraded {
		t.Fatal("still degraded after successful probe")
	}
	if _, _, err := l.Get("probe"); err != nil {
		t.Fatalf("probe entry unreadable: %v", err)
	}
}

// TestLogExpiredEntriesDropped: recovery discards entries past their TTL.
func TestLogExpiredDropped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.PutEntry("fresh", "t/t", []byte("a"), 0, time.Now().Add(time.Hour))
	l.PutEntry("stale", "t/t", []byte("b"), 0, time.Now().Add(-time.Second))
	l.Close()
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Expired != 1 || len(rep.Recovered) != 1 || rep.Recovered[0].Key != "fresh" {
		t.Fatalf("rep = %+v, want 1 expired, fresh recovered", rep)
	}
}

// countingFS counts the read handles OpenRead has handed out and not yet
// seen closed.
type countingFS struct {
	OSFS
	open atomic.Int64
}

func (c *countingFS) OpenRead(path string) (ReaderAtCloser, error) {
	f, err := c.OSFS.OpenRead(path)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedReader{ReaderAtCloser: f, fs: c}, nil
}

type countedReader struct {
	ReaderAtCloser
	fs *countingFS
}

func (r *countedReader) Close() error {
	r.fs.open.Add(-1)
	return r.ReaderAtCloser.Close()
}

// churnBody is the body every version of key carries, so a reader can
// byte-compare whatever version it gets.
func churnBody(key string) []byte {
	return []byte(strings.Repeat(key+"|", 40))
}

// TestLogHandlesUnderCompactionChurn reads a key set from several goroutines
// while overwrite churn drives compactions: every Get succeeds with the right
// bytes, and after each compaction the handle table holds no handle for a
// segment that is gone. Run with -race.
func TestLogHandlesUnderCompactionChurn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cfs := &countingFS{}
	l, _, err := OpenLog(dir, LogOptions{
		FS:              cfs,
		SegmentMaxBytes: 1 << 10, // a cleaner run retires several segments
		CompactMinBytes: 4 << 10,
		CompactFraction: 0.3,
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	const keys, readers, wantCompactions = 8, 4, 6
	key := func(i int) string { return fmt.Sprintf("k%d", i%keys) }
	for i := 0; i < keys; i++ {
		l.Put(key(i), "t/t", churnBody(key(i)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders() // before the deferred Close, whatever ends the test
	var gets atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, got, err := l.Get(key(i))
				if err != nil {
					t.Errorf("Get(%s): %v", key(i), err)
					return
				}
				if !bytes.Equal(got, churnBody(key(i))) {
					t.Errorf("Get(%s) returned the wrong bytes (%d of them)", key(i), len(got))
					return
				}
				gets.Add(1)
			}
		}(r)
	}

	// oldestSegment rises exactly when the cleaner retires a segment; the
	// Wait below lets the run it belongs to finish.
	oldestSegment := func() uint32 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		oldest := uint32(math.MaxUint32)
		for seg := range l.segBytes {
			oldest = min(oldest, seg)
		}
		return oldest
	}
	compactions, fdsAfterFirst, last := 0, 0, oldestSegment()
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; compactions < wantCompactions; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("only %d compactions after 20s of churn", compactions)
		}
		if err := l.Put(key(i), "t/t", churnBody(key(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if oldest := oldestSegment(); oldest != last {
			last = oldest
			compactions++
			l.compactWG.Wait() // the old files are unlinked by now
			l.mu.RLock()
			cached, onDisk := len(l.handles), len(segmentFiles(t, dir))
			l.mu.RUnlock()
			if cached > onDisk {
				t.Fatalf("compaction %d: %d cached handles for %d segment files", compactions, cached, onDisk)
			}
			// Beyond the table, a reader may still hold the one retired
			// handle it is reading through.
			if open := int(cfs.open.Load()); open > cached+readers {
				t.Fatalf("compaction %d: %d handles open, %d cached", compactions, open, cached)
			}
			if fds := openFDs(); compactions == 1 {
				fdsAfterFirst = fds
			} else if fds > fdsAfterFirst+readers+onDisk {
				t.Fatalf("compaction %d: %d file descriptors open, %d after the first compaction", compactions, fds, fdsAfterFirst)
			}
		}
	}
	stopReaders()
	if gets.Load() == 0 {
		t.Fatal("the readers completed no Get")
	}
	l.mu.RLock()
	cached := len(l.handles)
	l.mu.RUnlock()
	if open := int(cfs.open.Load()); open != cached {
		t.Fatalf("with no read in flight %d handles are open, %d cached", open, cached)
	}
}

// openFDs counts this process's open file descriptors (0 where /proc is not
// mounted, which turns the comparison off).
func openFDs() int {
	fds, _ := os.ReadDir("/proc/self/fd")
	return len(fds)
}

// TestLogGetSurvivesUnlink: a segment unlinked after its handle was opened —
// what compaction does to a reader it races — still yields the verified
// record.
func TestLogGetSurvivesUnlink(t *testing.T) {
	l, dir := newTestLog(t)
	l.Put("k", "t/t", []byte("still here"))
	if _, _, err := l.Get("k"); err != nil {
		t.Fatalf("first Get: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, segmentFileName(l.index["k"].seg))); err != nil {
		t.Fatal(err)
	}
	ct, body, err := l.Get("k")
	if err != nil || ct != "t/t" || string(body) != "still here" {
		t.Fatalf("Get after unlink = %q, %q, %v", ct, body, err)
	}
}

// TestLogCloseReleasesHandles: neither Close nor Destroy leaves a segment
// handle open.
func TestLogCloseReleasesHandles(t *testing.T) {
	for _, destroy := range []bool{false, true} {
		cfs := &countingFS{}
		opts := testLogOptions(cfs)
		opts.SegmentMaxBytes = 1 // one record per segment: several handles
		l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), opts)
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("k%d", i)
			l.Put(key, "t/t", churnBody(key))
			if _, _, err := l.Get(key); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
		if open := cfs.open.Load(); open != 5 {
			t.Fatalf("%d handles open after reading 5 segments, want 5", open)
		}
		if destroy {
			err = l.Destroy()
		} else {
			err = l.Close()
		}
		if open := cfs.open.Load(); err != nil || open != 0 {
			t.Fatalf("destroy=%v: err %v, %d handles still open", destroy, err, open)
		}
		if _, _, err := l.Get("k0"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get after close err = %v, want ErrClosed", err)
		}
	}
}

// TestLogGetBodyIsCallersOwn: the returned body aliases no shared state.
func TestLogGetBodyIsCallersOwn(t *testing.T) {
	l, _ := newTestLog(t)
	l.Put("k", "t/t", []byte("pristine"))
	_, first, err := l.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = '!'
	}
	_ = append(first, "spill"...)
	if _, second, err := l.Get("k"); err != nil || string(second) != "pristine" {
		t.Fatalf("second Get = %q, %v", second, err)
	}
}

// The TestDisk* tests hold the log to the contract of a durable on-disk
// store: what its directory holds across Close and Destroy, how a full or
// faulty disk fails a request, and that damage is never served.

func TestDiskDir(t *testing.T) {
	l, dir := newTestLog(t)
	if l.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", l.Dir(), dir)
	}
}

// TestDiskFilesOnDisk: the directory holds segments and nothing else; Close
// keeps them for the next open, Destroy removes the directory.
func TestDiskFilesOnDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	l.Put("a", "t", []byte("1"))
	l.Put("b", "t", []byte("2"))
	l.Delete("a")
	listing, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); len(segs) == 0 || len(segs) != len(listing) {
		t.Fatalf("directory holds %d files, %d of them segments", len(listing), len(segs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("Close must keep the cache directory for recovery: %v", err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0].Key != "b" {
		t.Fatalf("report = %+v, want b recovered", rep)
	}
	if err := l2.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("Destroy must remove the cache directory")
	}
}

func TestDiskPutAfterClose(t *testing.T) {
	l, _ := newTestLog(t)
	l.Close()
	if err := l.Put("k", "t", []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

// TestDiskDegradedModeAndReprobe: a full disk fails the Put that hit it and
// degrades the store; within the reprobe interval a Put fails fast without
// a write; after it a Put probes, and a healed disk lifts the mode.
func TestDiskDegradedModeAndReprobe(t *testing.T) {
	ffs := NewFaultFS(nil)
	opts := testLogOptions(ffs)
	opts.ReprobeInterval = 30 * time.Millisecond
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Destroy()
	if err := l.Put("before", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}

	ffs.FailWrites(syscall.ENOSPC)
	if err := l.Put("k1", "t", []byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on a full disk = %v, want ENOSPC", err)
	}
	if st := l.StorageStatus(); !st.Degraded || st.PutFailures != 1 || st.LastError == "" {
		t.Fatalf("status after the fault = %+v", st)
	}
	if _, body, err := l.Get("before"); err != nil || string(body) != "x" {
		t.Fatalf("read in degraded mode: %q, %v", body, err)
	}
	writes := ffs.Writes()
	if err := l.Put("k2", "t", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put within the reprobe interval = %v, want ErrDegraded", err)
	}
	if ffs.Writes() != writes {
		t.Fatal("a Put within the reprobe interval attempted a write")
	}

	ffs.FailWrites(nil)
	time.Sleep(40 * time.Millisecond)
	if err := l.Put("k3", "t", []byte("x")); err != nil {
		t.Fatalf("probe Put after heal: %v", err)
	}
	if st := l.StorageStatus(); st.Degraded {
		t.Fatalf("still degraded after a successful probe: %+v", st)
	}
}

// TestDiskReadFaultSurfacesError: a read fault on the first read of an entry
// reaches the caller as the error it is, and, being transient, drops nothing.
func TestDiskReadFaultSurfacesError(t *testing.T) {
	ffs := NewFaultFS(nil)
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), testLogOptions(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Destroy()
	if err := l.Put("k", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ffs.FailReads(syscall.EIO)
	if _, _, err := l.Get("k"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Get with read fault = %v, want EIO", err)
	}
	ffs.FailReads(nil)
	if _, body, err := l.Get("k"); err != nil || string(body) != "x" {
		t.Fatalf("Get after heal = %q, %v", body, err)
	}
}

// TestDiskGetQuarantinesRuntimeCorruption: a record that rots after open is
// never served, its key is dropped, its neighbour is kept, and the next open
// quarantines it rather than bringing it back.
func TestDiskGetQuarantinesRuntimeCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	for _, key := range []string{"rot", "sound"} {
		if err := l.PutEntry(key, "text/html", []byte(strings.Repeat(key, 50)), time.Millisecond, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	loc := l.index["rot"]
	flipByteInPlace(t, filepath.Join(dir, segmentFileName(loc.seg)), int64(loc.off+loc.n)-2)

	if _, _, err := l.Get("rot"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on the corrupt entry = %v, want ErrCorrupt", err)
	}
	if _, _, err := l.Get("rot"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound (entry dropped)", err)
	}
	if _, _, err := l.Get("sound"); err != nil {
		t.Fatalf("neighbour lost: %v", err)
	}
	if st := l.StorageStatus(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	l.Close()

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rep.Quarantined != 1 || len(rep.Recovered) != 1 || rep.Recovered[0].Key != "sound" {
		t.Fatalf("report = %+v, want the rotten record quarantined and sound recovered", rep)
	}
}

// TestDiskPutConcurrentSameKeyNoLeak: concurrent overwrites of one key leave
// one live record, accounted once, and the index and a reopen agree on which
// write won. Run with -race.
func TestDiskPutConcurrentSameKeyNoLeak(t *testing.T) {
	l, dir := newTestLog(t)
	const writers, puts = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				if err := l.Put("hot", "t/t", []byte(fmt.Sprintf("writer-%d-%d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 1 {
		t.Fatalf("Len = %d after concurrent Puts of one key, want 1", l.Len())
	}
	checkLogAccounting(t, l)
	_, won, err := l.Get("hot")
	if err != nil {
		t.Fatalf("Get after concurrent Puts: %v", err)
	}
	l.Close()

	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Recovered) != 1 || rep.Duplicates != writers*puts-1 {
		t.Fatalf("report = %+v, want 1 recovered and %d duplicates", rep, writers*puts-1)
	}
	if _, body, err := l2.Get("hot"); err != nil || !bytes.Equal(body, won) {
		t.Fatalf("Get after reopen = %q, %v; the index had %q", body, err, won)
	}
}

// TestDiskFailNthWrite: one failed append fails exactly its own Put; the
// next Put, a probe once the interval has passed, goes on, and a reopen
// recovers every acknowledged entry and nothing else.
func TestDiskFailNthWrite(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := filepath.Join(t.TempDir(), "cache")
	opts := testLogOptions(ffs)
	opts.ReprobeInterval = time.Millisecond
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	ffs.FailNthWrite(3, syscall.EIO)
	var failed []string
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := l.Put(key, "t/t", []byte(key)); err != nil {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("Put %d failed with %v, want EIO", i, err)
			}
			failed = append(failed, key)
			time.Sleep(2 * time.Millisecond) // let the next Put probe
		}
	}
	if len(failed) != 1 || failed[0] != "k2" {
		t.Fatalf("failed Puts = %v, want exactly the 3rd write's [k2]", failed)
	}
	l.Close()
	l2, rep, err := OpenLog(dir, testLogOptions(nil))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if len(rep.Recovered) != 4 || rep.Quarantined != 0 {
		t.Fatalf("report = %+v, want 4 recovered, 0 quarantined", rep)
	}
	if _, _, err := l2.Get("k2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the failed Put = %v, want ErrNotFound", err)
	}
}

// TestLogReadFaultSurfacesError: the log store reads through handles it keeps
// open, so the fault must reach one opened before it was armed.
func TestLogReadFaultSurfacesError(t *testing.T) {
	ffs := NewFaultFS(nil)
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), testLogOptions(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Destroy()
	if err := l.Put("k", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Get("k"); err != nil {
		t.Fatalf("Get before the fault: %v", err)
	}
	ffs.FailReads(syscall.EIO)
	if _, _, err := l.Get("k"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Get with read fault = %v, want EIO", err)
	}
	// A read fault is transient, not corruption: the entry survives.
	if st := l.StorageStatus(); l.Len() != 1 || st.Quarantined != 0 {
		t.Fatalf("after the fault Len = %d, Quarantined = %d; want 1, 0", l.Len(), st.Quarantined)
	}
	ffs.FailReads(nil)
	if _, body, err := l.Get("k"); err != nil || string(body) != "x" {
		t.Fatalf("Get after heal = %q, %v", body, err)
	}
}

// syncLogFS records, in order, the segment creations, directory syncs,
// writes and file syncs the log makes.
type syncLogFS struct {
	OSFS
	mu     sync.Mutex
	events []string
}

func (s *syncLogFS) note(event string) {
	s.mu.Lock()
	s.events = append(s.events, event)
	s.mu.Unlock()
}

func (s *syncLogFS) Create(path string) (File, error) {
	f, err := s.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	s.note("create")
	return &syncLogFile{File: f, fs: s}, nil
}

func (s *syncLogFS) SyncDir(dir string) error {
	s.note("syncdir")
	return s.OSFS.SyncDir(dir)
}

type syncLogFile struct {
	File
	fs *syncLogFS
}

func (f *syncLogFile) Write(p []byte) (int, error) {
	f.fs.note("write")
	return f.File.Write(p)
}

func (f *syncLogFile) Sync() error {
	f.fs.note("sync")
	return f.File.Sync()
}

// TestLogFsyncAlways: under FsyncAlways every acknowledged append — Put,
// tombstone, cleaner batch — is synced before it returns, and every new
// segment's directory entry is synced before its first append; under
// FsyncNever neither happens.
func TestLogFsyncAlways(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := &syncLogFS{}
			opts := testLogOptions(fs)
			opts.Fsync = policy
			opts.SegmentMaxBytes = 1 << 10 // a new segment every few records
			l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), opts)
			if err != nil {
				t.Fatalf("OpenLog: %v", err)
			}
			defer l.Close()
			appends := 0
			put := func(key string) {
				if err := l.Put(key, "t/t", churnBody(key)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				appends++
			}
			put("cold") // stays live in the oldest segment
			for i := 0; i < 12; i++ {
				put(fmt.Sprintf("k%d", i%3))
			}
			if err := l.Delete("k0"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			appends++
			oldest := l.index["cold"].seg
			if _, err := l.cleanOldest(nil); err != nil {
				t.Fatalf("cleanOldest: %v", err)
			}
			if l.index["cold"].seg == oldest {
				t.Fatal("the cleaner copied nothing")
			}
			appends++ // the one batch that moved "cold"

			count := map[string]int{}
			for i, e := range fs.events {
				count[e]++
				if e == "create" && policy == FsyncAlways && (i+1 == len(fs.events) || fs.events[i+1] != "syncdir") {
					t.Fatalf("event %d: a segment was created without a directory sync right after: %v", i, fs.events)
				}
			}
			if count["create"] < 3 || count["write"] != appends {
				t.Fatalf("%d creates, %d writes for %d appends: %v", count["create"], count["write"], appends, fs.events)
			}
			wantSyncs, wantDirSyncs := appends, count["create"]
			if policy == FsyncNever {
				wantSyncs, wantDirSyncs = 0, 0
			}
			if count["sync"] != wantSyncs || count["syncdir"] != wantDirSyncs {
				t.Fatalf("%d syncs, %d directory syncs; want %d, %d: %v",
					count["sync"], count["syncdir"], wantSyncs, wantDirSyncs, fs.events)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	if p, err := ParseFsyncPolicy("always"); err != nil || p != FsyncAlways {
		t.Fatalf("always -> %v, %v", p, err)
	}
	if p, err := ParseFsyncPolicy("never"); err != nil || p != FsyncNever {
		t.Fatalf("never -> %v, %v", p, err)
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestStatusOf(t *testing.T) {
	l, _ := newTestLog(t)
	if st, ok := StatusOf(l); !ok || !st.Persistent {
		t.Fatalf("StatusOf(log) = %+v, %v", st, ok)
	}
	if _, ok := StatusOf(NewMemory()); ok {
		t.Fatal("memory store reported storage status")
	}
}

// segmentFiles lists the segment files under dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	listing, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range listing {
		if _, ok := parseSegmentFileName(de.Name()); ok {
			out = append(out, de.Name())
		}
	}
	return out
}
