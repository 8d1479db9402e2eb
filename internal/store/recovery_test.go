package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fillDisk stores n entries with meta-data and returns the store.
func fillDisk(t *testing.T, dir string, n int) *Disk {
	t.Helper()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("GET /cgi-bin/q?i=%d", i)
		body := []byte(fmt.Sprintf("body-%d", i))
		if err := d.PutEntry(key, "text/html", body, time.Duration(i)*time.Millisecond, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestOpenDiskRecoversEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d := fillDisk(t, dir, 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rep, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	if len(rep.Recovered) != 5 || d2.Len() != 5 {
		t.Fatalf("recovered %d entries (Len %d), want 5", len(rep.Recovered), d2.Len())
	}
	// Recovery order follows write order (sequence numbers).
	for i, re := range rep.Recovered {
		want := fmt.Sprintf("GET /cgi-bin/q?i=%d", i)
		if re.Key != want {
			t.Fatalf("recovered[%d].Key = %q, want %q", i, re.Key, want)
		}
		if re.ExecTime != time.Duration(i)*time.Millisecond {
			t.Fatalf("recovered[%d].ExecTime = %v", i, re.ExecTime)
		}
		if re.Size != int64(len(fmt.Sprintf("body-%d", i))) {
			t.Fatalf("recovered[%d].Size = %d", i, re.Size)
		}
	}
	for i := 0; i < 5; i++ {
		ct, body, err := d2.Get(fmt.Sprintf("GET /cgi-bin/q?i=%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "text/html" || string(body) != fmt.Sprintf("body-%d", i) {
			t.Fatalf("entry %d: got (%q, %q)", i, ct, body)
		}
	}
	if st := d2.StorageStatus(); !st.Persistent || st.Recovered != 5 || st.Degraded {
		t.Fatalf("status = %+v", st)
	}
}

func TestOpenDiskDropsExpiredEntries(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutEntry("live", "t", []byte("x"), 0, time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutEntry("stale", "t", []byte("y"), 0, time.Now().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, rep, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	if len(rep.Recovered) != 1 || rep.Recovered[0].Key != "live" || rep.Expired != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// corruptionFixtures plants the satellite-task fixture set in dir: a torn
// write (valid prefix of an encoding), a truncated header, a bad checksum,
// and an empty file, plus an orphaned .tmp. It returns how many corrupt
// entry files were planted.
func corruptionFixtures(t *testing.T, dir string) int {
	t.Helper()
	valid := encodeEntry("GET /cgi-bin/q?fixture=1", "text/html", []byte("fixture body bytes"), time.Millisecond, time.Time{})
	writeRaw := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw("entry-9001.cache", valid[:len(valid)/2]) // torn write
	writeRaw("entry-9002.cache", valid[:7])            // truncated header
	bad := append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xff
	writeRaw("entry-9003.cache", bad)            // bad checksum
	writeRaw("entry-9004.cache", nil)            // empty file
	writeRaw("entry-9005.cache.tmp", valid[:10]) // orphaned temp
	return 4
}

func TestOpenDiskQuarantinesCorruptFixtures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d := fillDisk(t, dir, 3)
	d.Close()
	corrupt := corruptionFixtures(t, dir)

	d2, rep, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	if len(rep.Recovered) != 3 {
		t.Fatalf("recovered %d, want 3 (no corrupt file may be recovered)", len(rep.Recovered))
	}
	if rep.Quarantined != corrupt {
		t.Fatalf("quarantined %d, want %d", rep.Quarantined, corrupt)
	}
	if rep.OrphansSwept != 1 {
		t.Fatalf("orphans swept %d, want 1", rep.OrphansSwept)
	}
	// Quarantined files are moved aside, not deleted, and never served.
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineSubdir))
	if err != nil {
		t.Fatal(err)
	}
	if len(qfiles) != corrupt {
		t.Fatalf("quarantine/ holds %d files, want %d", len(qfiles), corrupt)
	}
	if _, err := os.Stat(filepath.Join(dir, "entry-9005.cache.tmp")); !os.IsNotExist(err) {
		t.Fatal("orphaned .tmp survived the sweep")
	}
	if st := d2.StorageStatus(); st.Quarantined != uint64(corrupt) || st.OrphansSwept != 1 {
		t.Fatalf("status = %+v", st)
	}
}

// TestOpenDiskAfterCrashBeforeRename simulates a kill between writing the
// temp file and the publish rename: every completed (published) entry is
// recovered; the in-flight one is swept, not recovered, not quarantined.
func TestOpenDiskAfterCrashBeforeRename(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := NewFaultFS(nil)
	d, _, err := OpenDisk(dir, DiskOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put(fmt.Sprintf("k%d", i), "t", []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
	ffs.SetCrashed(true)
	if err := d.Put("k-inflight", "t", []byte("never published")); err == nil {
		t.Fatal("Put through a crashed rename succeeded")
	}
	// The crash left the completed temp file behind (Remove was suppressed).
	names, _ := os.ReadDir(dir)
	tmps := 0
	for _, de := range names {
		if filepath.Ext(de.Name()) == ".tmp" {
			tmps++
		}
	}
	if tmps != 1 {
		t.Fatalf("tmp debris after crash = %d, want 1", tmps)
	}

	d2, rep, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Destroy()
	if len(rep.Recovered) != 4 || rep.Quarantined != 0 || rep.OrphansSwept != 1 {
		t.Fatalf("report = %+v, want 4 recovered, 0 quarantined, 1 orphan", rep)
	}
	if _, _, err := d2.Get("k-inflight"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unpublished entry visible after recovery: %v", err)
	}
}

// TestOpenDiskKeepsNewestDuplicate covers a crash between the rename that
// published an overwrite and the removal of the key's previous file.
func TestOpenDiskKeepsNewestDuplicate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := encodeEntry("k", "t", []byte("old"), 0, time.Time{})
	newer := encodeEntry("k", "t", []byte("new"), 0, time.Time{})
	os.WriteFile(filepath.Join(dir, "entry-1.cache"), old, 0o644)
	os.WriteFile(filepath.Join(dir, "entry-2.cache"), newer, 0o644)

	d, rep, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	if len(rep.Recovered) != 1 || rep.Duplicates != 1 {
		t.Fatalf("report = %+v, want 1 recovered + 1 duplicate", rep)
	}
	if _, body, err := d.Get("k"); err != nil || string(body) != "new" {
		t.Fatalf("Get = (%q, %v), want the newer write", body, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "entry-1.cache")); !os.IsNotExist(err) {
		t.Fatal("superseded duplicate file survived recovery")
	}
}

// TestDiskGetQuarantinesRuntimeCorruption covers bit rot after open: the
// corrupt body is never served; the file is quarantined and the key dropped.
func TestDiskGetQuarantinesRuntimeCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d := fillDisk(t, dir, 1)
	defer d.Destroy()
	key := "GET /cgi-bin/q?i=0"

	names, _ := os.ReadDir(dir)
	var path string
	for _, de := range names {
		if !de.IsDir() {
			path = filepath.Join(dir, de.Name())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := d.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on corrupt entry = %v, want ErrCorrupt", err)
	}
	if _, _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound (entry dropped)", err)
	}
	if d.StorageStatus().Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", d.StorageStatus().Quarantined)
	}
	qfiles, err := os.ReadDir(filepath.Join(dir, quarantineSubdir))
	if err != nil || len(qfiles) != 1 {
		t.Fatalf("quarantine/ = %v files, err %v; want 1", len(qfiles), err)
	}
}

// TestDiskPutConcurrentSameKeyNoLeak is the -race regression for the seed
// bug where two concurrent Puts on one key could leak the loser's file.
func TestDiskPutConcurrentSameKeyNoLeak(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := d.Put("hot", "t", []byte(fmt.Sprintf("writer-%d-%d", w, i))); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files on disk after concurrent Puts = %d, want exactly 1 (no leaked losers)", len(files))
	}
	if _, body, err := d.Get("hot"); err != nil || len(body) == 0 {
		t.Fatalf("Get after concurrent Puts: %q, %v", body, err)
	}
}

// TestWriteFileAtomicNoOrphanOnError is the regression for the seed bug
// where a failed write left its .tmp file behind.
func TestWriteFileAtomicNoOrphanOnError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := NewFaultFS(nil)
	d, _, err := OpenDisk(dir, DiskOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	ffs.TornWrite(10, syscall.EIO)
	if err := d.Put("k", "t", []byte("a body that is longer than ten bytes")); err == nil {
		t.Fatal("torn write reported success")
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 0 {
		t.Fatalf("%d files left after failed write, want 0 (tmp must be removed)", len(files))
	}
}

func TestDiskDegradedModeAndReprobe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := NewFaultFS(nil)
	d, _, err := OpenDisk(dir, DiskOptions{FS: ffs, ReprobeInterval: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()

	if err := d.Put("before", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Disk full: the failing Put degrades the store; reads keep working.
	ffs.FailWrites(syscall.ENOSPC)
	if err := d.Put("k1", "t", []byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on full disk = %v, want ENOSPC", err)
	}
	st := d.StorageStatus()
	if !st.Degraded || st.PutFailures != 1 || st.LastError == "" {
		t.Fatalf("status after fault = %+v", st)
	}
	if _, body, err := d.Get("before"); err != nil || string(body) != "x" {
		t.Fatalf("read in degraded mode: %q, %v", body, err)
	}
	// Within the reprobe window, Puts fail fast with ErrDegraded — no write
	// is attempted.
	writesBefore := ffs.Writes()
	if err := d.Put("k2", "t", []byte("x")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Put in degraded window = %v, want ErrDegraded", err)
	}
	if ffs.Writes() != writesBefore {
		t.Fatal("degraded-window Put attempted a write")
	}

	// After the interval a Put becomes a probe; with the fault healed it
	// succeeds and lifts the mode.
	ffs.FailWrites(nil)
	time.Sleep(40 * time.Millisecond)
	if err := d.Put("k3", "t", []byte("x")); err != nil {
		t.Fatalf("probe Put after heal: %v", err)
	}
	if st := d.StorageStatus(); st.Degraded {
		t.Fatalf("still degraded after successful probe: %+v", st)
	}
}

func TestDiskFailNthWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := NewFaultFS(nil)
	d, _, err := OpenDisk(dir, DiskOptions{FS: ffs, ReprobeInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	ffs.FailNthWrite(3, syscall.EIO)
	var failed int
	for i := 0; i < 5; i++ {
		if err := d.Put(fmt.Sprintf("k%d", i), "t", []byte("x")); err != nil {
			failed++
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("Put %d failed with %v, want EIO", i, err)
			}
			time.Sleep(2 * time.Millisecond) // let the next Put probe
		}
	}
	if failed != 1 {
		t.Fatalf("failed Puts = %d, want exactly 1 (the 3rd write)", failed)
	}
}

func TestDiskReadFaultSurfacesError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	ffs := NewFaultFS(nil)
	d, _, err := OpenDisk(dir, DiskOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	if err := d.Put("k", "t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ffs.FailReads(syscall.EIO)
	if _, _, err := d.Get("k"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Get with read fault = %v, want EIO", err)
	}
	// A read fault is transient, not corruption: the entry survives.
	ffs.FailReads(nil)
	if _, body, err := d.Get("k"); err != nil || string(body) != "x" {
		t.Fatalf("Get after heal = %q, %v", body, err)
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

func TestDiskFsyncAlways(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	d, _, err := OpenDisk(dir, DiskOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	if err := d.Put("k", "t", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if _, body, err := d.Get("k"); err != nil || string(body) != "durable" {
		t.Fatalf("Get = %q, %v", body, err)
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

func TestStatusOfUnwrapsTiered(t *testing.T) {
	d, err := NewDisk(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Destroy()
	tiered := NewTiered(d, 1<<20)
	st, ok := StatusOf(tiered)
	if !ok || !st.Persistent {
		t.Fatalf("StatusOf(tiered) = %+v, %v", st, ok)
	}
	if _, ok := StatusOf(NewMemory()); ok {
		t.Fatal("memory store reported storage status")
	}
	if _, ok := StatusOf(NewTiered(NewMemory(), 1<<20)); ok {
		t.Fatal("tiered memory store reported storage status")
	}
}
