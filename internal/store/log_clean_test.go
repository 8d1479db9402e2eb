package store

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// modelSeeds is how many seeds TestLogCleanModel runs; CI raises it.
var modelSeeds = flag.Int("model-seeds", 3, "seeds TestLogCleanModel runs (1..n)")

// checkLogAccounting asserts the cleaner's bookkeeping against the index:
// Σ per-segment live = live bytes, totalBytes = Σ segment bytes, deadBytes =
// total − live, and no segment's live count is negative or orphaned.
func checkLogAccounting(t *testing.T, l *Log) {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	var live, segLive, segBytes int64
	perSeg := make(map[int64]int64)
	for _, loc := range l.index {
		live += int64(loc.n)
		perSeg[loc.seg] += int64(loc.n)
	}
	for seg, n := range l.segLive {
		if _, ok := l.segBytes[seg]; !ok {
			t.Fatalf("segLive holds retired segment %d", seg)
		}
		if n != perSeg[seg] {
			t.Fatalf("segLive[%d] = %d, index says %d", seg, n, perSeg[seg])
		}
		segLive += n
	}
	for _, n := range l.segBytes {
		segBytes += n
	}
	if segLive != live || segBytes != l.totalBytes || l.deadBytes != l.totalBytes-live {
		t.Fatalf("accounting: Σ segLive %d, live %d; Σ segBytes %d, total %d; dead %d, want %d",
			segLive, live, segBytes, l.totalBytes, l.deadBytes, l.totalBytes-live)
	}
}

// segmentDiskBytes sums the sizes of the segment files under dir.
func segmentDiskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range segmentFiles(t, dir) {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// runCleaner starts the cleaner if its trigger holds and waits for it.
func runCleaner(l *Log) {
	l.mu.Lock()
	l.startCleanerLocked()
	l.mu.Unlock()
	l.compactWG.Wait()
}

// versionBody is what version v of key carries: any mix-up of keys or
// versions shows in a byte comparison.
func versionBody(key string, v, size int) []byte {
	unit := fmt.Sprintf("%s#%d|", key, v)
	return []byte(strings.Repeat(unit, size/len(unit)+1))[:size]
}

// checkAgainstModel compares every body and the entry count with the model.
func checkAgainstModel(t *testing.T, l *Log, model map[string][]byte) {
	t.Helper()
	if l.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", l.Len(), len(model))
	}
	for key, want := range model {
		if _, got, err := l.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %d bytes, %v; model has %d bytes", key, len(got), err, len(want))
		}
	}
}

// TestLogCleanModel drives random put / overwrite / delete / get / reopen
// against a map, with segments so small that the cleaner runs constantly and
// a cold set at the bottom of the log that is never touched again.
func TestLogCleanModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*modelSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { logCleanModel(t, seed) })
	}
}

func logCleanModel(t *testing.T, seed int64) {
	const segMax, coldKeys, hotKeys, steps = 4 << 10, 24, 40, 3000
	opts := LogOptions{SegmentMaxBytes: segMax, CompactMinBytes: segMax, CompactFraction: 0.5}
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer func() { l.Close() }()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string][]byte)
	versions := make(map[string]int)
	put := func(key string) {
		versions[key]++
		body := versionBody(key, versions[key], 40+rng.Intn(500))
		if err := l.Put(key, "t/t", body); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
		model[key] = body
	}
	for i := 0; i < coldKeys; i++ {
		put(fmt.Sprintf("cold%d", i))
	}
	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("hot%d", rng.Intn(hotKeys))
		switch op := rng.Intn(100); {
		case op < 55:
			put(key) // fresh key or overwrite
		case op < 75:
			if err := l.Delete(key); err != nil {
				t.Fatalf("Delete(%s): %v", key, err)
			}
			delete(model, key)
		case op < 99:
			_, got, err := l.Get(key)
			if want, ok := model[key]; ok && (err != nil || !bytes.Equal(got, want)) {
				t.Fatalf("step %d: Get(%s) = %d bytes, %v; model has %d", step, key, len(got), err, len(want))
			} else if !ok && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: Get(%s) of a deleted key: %v", step, key, err)
			}
		default:
			// Close interrupts whatever the cleaner is doing; everything
			// acknowledged must come back.
			l.Close()
			var rep *RecoveryReport
			if l, rep, err = OpenLog(dir, opts); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			if len(rep.Recovered) != len(model) || rep.Quarantined != 0 {
				t.Fatalf("step %d: reopen recovered %d (quarantined %d), model has %d", step, len(rep.Recovered), rep.Quarantined, len(model))
			}
		}
		checkLogAccounting(t, l)
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model has %d", step, l.Len(), len(model))
		}
		if step%64 != 63 && step != steps-1 {
			continue
		}
		// With the cleaner at rest the disk holds exactly what is accounted,
		// and no more than twice the live set plus one segment.
		runCleaner(l)
		checkLogAccounting(t, l)
		checkAgainstModel(t, l, model)
		l.mu.RLock()
		total, live := l.totalBytes, l.totalBytes-l.deadBytes
		l.mu.RUnlock()
		if onDisk := segmentDiskBytes(t, dir); onDisk != total {
			t.Fatalf("step %d: %d bytes on disk, totalBytes %d", step, onDisk, total)
		}
		if total > 2*live+segMax {
			t.Fatalf("step %d: %d bytes for %d live: space amp above 2 + one segment", step, total, live)
		}
	}
}

// TestLogCleanCopiesNewestOnce: a key put twice into the victim is copied
// once, and it is the newer record that is copied.
func TestLogCleanCopiesNewestOnce(t *testing.T) {
	ffs := NewFaultFS(nil)
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), testLogOptions(ffs))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	l.Put("k", "t/t", versionBody("k", 1, 300))
	l.Put("gone", "t/t", versionBody("gone", 1, 300))
	l.Put("k", "t/t", versionBody("k", 2, 300))
	l.Delete("gone")
	l.Put("other", "t/t", versionBody("other", 1, 200))
	victim, live := l.index["k"].seg, int64(l.index["k"].n+l.index["other"].n)

	before := ffs.Writes()
	if _, err := l.cleanOldest(nil); err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	if got := ffs.Writes() - before; got != 1 {
		t.Fatalf("cleaning cost %d writes, want one batch", got)
	}
	checkLogAccounting(t, l)
	if l.totalBytes != live || l.deadBytes != 0 || l.index["k"].seg == victim {
		t.Fatalf("after cleaning: total %d, dead %d, want %d and 0; k at %+v", l.totalBytes, l.deadBytes, live, l.index["k"])
	}
	checkAgainstModel(t, l, map[string][]byte{"k": versionBody("k", 2, 300), "other": versionBody("other", 1, 200)})
	if segs := segmentFiles(t, l.Dir()); len(segs) != 1 {
		t.Fatalf("segments after cleaning = %v, want the tail alone", segs)
	}
}

// tearFS arms a torn write and a crash on the underlying FaultFS just before
// its at-th data write.
type tearFS struct {
	*FaultFS
	at, keep int
	writes   int
}

func (f *tearFS) Create(path string) (File, error) {
	inner, err := f.FaultFS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: inner, fs: f}, nil
}

type tearFile struct {
	File
	fs *tearFS
}

func (f *tearFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes == f.fs.at {
		f.fs.TornWrite(f.fs.keep, nil)
		f.fs.SetCrashed(true)
	}
	return f.File.Write(p)
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	listing, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range listing {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogCleanCrashPoints tears every write of a cleaning run at several
// lengths and kills the process there; a reopen on the real filesystem must
// recover exactly the model — nothing lost, no deleted key back — with the
// torn tail swept, not quarantined. A run that dies before any unlink leaves
// every copy beside its original, counted as duplicates.
func TestLogCleanCrashPoints(t *testing.T) {
	const segMax, bodySize = 512 << 10, 20 << 10
	quiet := LogOptions{SegmentMaxBytes: segMax, CompactMinBytes: 1 << 40}
	cleaning := LogOptions{SegmentMaxBytes: segMax, CompactMinBytes: 64 << 10, CompactFraction: 0.3}

	// The template: a cold set filling the oldest segments (several batches
	// each), then overwrite churn around keys that stay, and deletes.
	template := filepath.Join(t.TempDir(), "template")
	l, _, err := OpenLog(template, quiet)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	model := make(map[string][]byte)
	put := func(key string, v int) {
		model[key] = versionBody(key, v, bodySize)
		if err := l.Put(key, "t/t", model[key]); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("cold%d", i), 1)
	}
	for v := 1; v <= 10; v++ {
		for i := 0; i < 10; i++ {
			put(fmt.Sprintf("hot%d", i), v)
		}
		put(fmt.Sprintf("deleted%d", v), v)
		put(fmt.Sprintf("warm%d", v), 1) // something live in every segment
	}
	for v := 1; v <= 10; v++ {
		key := fmt.Sprintf("deleted%d", v)
		l.Delete(key)
		delete(model, key)
	}
	l.Close()

	// reopen recovers dir on the real filesystem and checks it against the
	// model.
	reopen := func(t *testing.T, dir string) *RecoveryReport {
		t.Helper()
		l, rep, err := OpenLog(dir, quiet)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer l.Close()
		if rep.Quarantined != 0 {
			t.Fatalf("Quarantined = %d, want 0: a torn copy is a torn tail", rep.Quarantined)
		}
		checkAgainstModel(t, l, model)
		checkLogAccounting(t, l)
		return rep
	}
	baseline := reopen(t, template)

	// A run that completes, with every unlink suppressed: how many writes a
	// run makes, and each copy a duplicate of its original.
	dir := filepath.Join(t.TempDir(), "no-unlink")
	copyDir(t, template, dir)
	ffs := NewFaultFS(nil)
	ffs.SetCrashed(true)
	opts := cleaning
	opts.FS = ffs
	if l, _, err = OpenLog(dir, opts); err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	before := make(map[string]recordLoc, len(l.index))
	for key, loc := range l.index {
		before[key] = loc
	}
	runCleaner(l)
	copied := 0
	for key, loc := range l.index {
		if before[key] != loc {
			copied++
		}
	}
	writes := ffs.Writes()
	l.Close()
	if writes < 6 || copied < 30 {
		t.Fatalf("the run made %d writes and moved %d records: the template no longer exercises the cleaner", writes, copied)
	}
	if rep := reopen(t, dir); rep.Duplicates != baseline.Duplicates+copied {
		t.Fatalf("Duplicates = %d, want the template's %d + %d copies", rep.Duplicates, baseline.Duplicates, copied)
	}

	recordLen := len(encodeEntry("cold0", "t/t", model["cold0"], 0, time.Time{}))
	for at := 1; at <= writes; at++ {
		for _, keep := range []int{0, 9, recordLen + 100, 3*recordLen - 1} {
			t.Run(fmt.Sprintf("write%d/keep%d", at, keep), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "cache")
				copyDir(t, template, dir)
				tfs := &tearFS{FaultFS: NewFaultFS(nil), at: at, keep: keep}
				opts := cleaning
				opts.FS = tfs
				l, _, err := OpenLog(dir, opts)
				if err != nil {
					t.Fatalf("OpenLog: %v", err)
				}
				runCleaner(l)
				if !l.StorageStatus().Degraded {
					t.Fatal("the torn copy did not degrade the store")
				}
				checkLogAccounting(t, l)
				l.Close()
				reopen(t, dir)
			})
		}
	}
}

// TestLogCleanDropsRottenRecord: bit rot in a live record of the victim is
// caught by the copy's verification — the entry is dropped and counted, its
// bytes never reach the tail — and the neighbours move.
func TestLogCleanDropsRottenRecord(t *testing.T) {
	l, dir := newTestLog(t)
	model := make(map[string][]byte)
	for _, key := range []string{"before", "rotten", "after"} {
		model[key] = versionBody(key, 1, 300)
		l.Put(key, "t/t", model[key])
	}
	loc := l.index["rotten"]
	flipByteInPlace(t, filepath.Join(dir, segmentFileName(loc.seg)), loc.off+int64(loc.n)-10)
	delete(model, "rotten")

	if _, err := l.cleanOldest(nil); err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	if st := l.StorageStatus(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, _, err := l.Get("rotten"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the rotten entry: %v, want ErrNotFound", err)
	}
	checkLogAccounting(t, l)
	checkAgainstModel(t, l, model)
	l.Close()
	for _, name := range segmentFiles(t, dir) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range ScanSegment(data) {
			if sp.Key == "rotten" || !sp.Valid {
				t.Fatalf("%s holds %q (valid %v): the rotten record was copied forward", name, sp.Key, sp.Valid)
			}
		}
	}
}

// TestLogCleanSweepsUnreachable: an entry the scan cannot find where the index
// says it is — here behind a record whose length field has rotted — is dropped
// and counted when its segment retires, instead of stalling the cleaner.
func TestLogCleanSweepsUnreachable(t *testing.T) {
	l, dir := newTestLog(t)
	l.Put("first", "t/t", versionBody("first", 1, 300))
	l.Put("behind", "t/t", versionBody("behind", 1, 300))
	first := l.index["first"]
	// The body length's top byte: the record now claims to run past the file.
	path := filepath.Join(dir, segmentFileName(first.seg))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x7f}, first.off+int64(first.n)-300-4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := l.cleanOldest(nil); err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	checkLogAccounting(t, l)
	_, _, errFirst := l.Get("first")
	_, got, errBehind := l.Get("behind")
	if !errors.Is(errFirst, ErrNotFound) {
		t.Fatalf("Get(first) = %v, want ErrNotFound", errFirst)
	}
	// "behind" starts with a record magic, so the resynchronizing scan finds
	// and moves it; only "first" is swept.
	if errBehind != nil || !bytes.Equal(got, versionBody("behind", 1, 300)) {
		t.Fatalf("Get(behind) = %d bytes, %v", len(got), errBehind)
	}
	if st := l.StorageStatus(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("the victim is still on disk: %v", err)
	}
}

// TestLogCleanFailures: a pass that cannot read is retried no sooner than
// ReprobeInterval and one that cannot write degrades the store; either way
// the victim and the accounting stay as they were and every entry readable.
func TestLogCleanFailures(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, LogOptions{
		FS:              ffs,
		ReprobeInterval: time.Hour,
		SegmentMaxBytes: 4 << 10,
		CompactMinBytes: 4 << 10,
	})
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	model := make(map[string][]byte)
	round := 0
	churn := func() {
		round++
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("k%d", i)
			model[key] = versionBody(key, round, 400)
			if err := l.Put(key, "t/t", model[key]); err != nil {
				t.Fatalf("Put: %v", err)
			}
		}
	}
	model["cold"] = versionBody("cold", 1, 400)
	l.Put("cold", "t/t", model["cold"]) // keeps the oldest segment live
	oldest := l.index["cold"].seg

	ffs.FailReads(syscall.EIO)
	for i := 0; i < 4; i++ {
		churn()
	}
	l.compactWG.Wait()
	ffs.FailReads(nil)
	l.mu.RLock()
	retry, size := l.cleanRetry, l.segBytes[oldest]
	l.mu.RUnlock()
	if retry.IsZero() || size == 0 {
		t.Fatalf("after a failed read: cleanRetry %v, oldest segment holds %d bytes", retry, size)
	}
	// The reads work again, but the retry is an hour away: churn alone must
	// not relaunch the cleaner.
	for i := 0; i < 4; i++ {
		churn()
	}
	l.compactWG.Wait()
	checkLogAccounting(t, l)
	if l.index["cold"].seg != oldest {
		t.Fatal("the cleaner ran again before its retry time")
	}
	if st := l.StorageStatus(); st.Degraded {
		t.Fatal("a read error degraded the store")
	}

	// The hour passes, with the disk now refusing writes.
	l.mu.Lock()
	l.cleanRetry = time.Time{}
	l.mu.Unlock()
	ffs.FailWrites(syscall.ENOSPC)
	runCleaner(l)
	if st := l.StorageStatus(); !st.Degraded {
		t.Fatal("a failed copy did not degrade the store")
	}
	checkLogAccounting(t, l)
	checkAgainstModel(t, l, model)
	if l.index["cold"].seg != oldest {
		t.Fatal("the index moved to a copy that was never written")
	}

	ffs.FailWrites(nil)
	l.mu.Lock()
	l.cleanRetry = time.Time{}
	l.mu.Unlock()
	runCleaner(l)
	checkLogAccounting(t, l)
	checkAgainstModel(t, l, model)
	if l.index["cold"].seg == oldest {
		t.Fatal("the healed store did not clean its oldest segment")
	}
	if onDisk := segmentDiskBytes(t, dir); onDisk != l.totalBytes {
		t.Fatalf("%d bytes on disk, %d accounted", onDisk, l.totalBytes)
	}
}

// TestLogCleanMemoryBounded: what a pass allocates is bounded by one segment,
// not by the live set, and a victim with nothing live is never read.
func TestLogCleanMemoryBounded(t *testing.T) {
	const segMax, bodySize, keys = 128 << 10, 2 << 10, 2200
	ffs := NewFaultFS(nil)
	opts := testLogOptions(ffs)
	opts.SegmentMaxBytes = segMax
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "cache"), opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	defer l.Close()
	model := make(map[string][]byte)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		model[key] = versionBody(key, 1, bodySize)
		l.Put(key, "t/t", model[key])
	}
	oldest := l.index["k0"].seg
	for i := 0; l.index[fmt.Sprintf("k%d", i)].seg == oldest; i += 2 {
		key := fmt.Sprintf("k%d", i)
		model[key] = versionBody(key, 2, bodySize)
		l.Put(key, "t/t", model[key]) // every other record of the victim dies
	}
	if live := l.totalBytes - l.deadBytes; live < 32*segMax {
		t.Fatalf("live set %d, want at least 32 segments", live)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err = l.cleanOldest(nil)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 3*segMax {
		t.Fatalf("one pass allocated %d bytes, want at most 3 segments (%d)", got, 3*segMax)
	}
	if _, ok := l.segBytes[oldest]; ok || l.index["k1"].seg == oldest {
		t.Fatal("the pass did not retire the oldest segment")
	}
	checkLogAccounting(t, l)
	checkAgainstModel(t, l, model)

	// Kill everything in the next-oldest segment; it must go without a read.
	next := oldest + 1
	for key, loc := range l.index {
		if loc.seg == next {
			l.Put(key, "t/t", model[key])
		}
	}
	ffs.FailReads(syscall.EIO)
	_, err = l.cleanOldest(nil)
	ffs.FailReads(nil)
	if _, ok := l.segBytes[next]; err != nil || ok {
		t.Fatalf("retiring a dead segment with reads failing: %v (still accounted: %v)", err, ok)
	}
	if _, err := os.Stat(l.segmentPath(next)); !os.IsNotExist(err) {
		t.Fatalf("the dead segment is still on disk: %v", err)
	}
	checkLogAccounting(t, l)
	checkAgainstModel(t, l, model)
}
