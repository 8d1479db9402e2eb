package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lease"
)

// TestMain runs the package with released buffers poisoned, so a body used
// after its lease shows 0xDB.
func TestMain(m *testing.M) {
	lease.PoisonOnRelease(true)
	os.Exit(m.Run())
}

func leaseTestBody(id int) []byte {
	b := make([]byte, 700+id*131)
	for i := range b {
		b[i] = byte(i*17 + id)
	}
	return b
}

// TestLeaseLogRead: a leased read returns what Get returns, valid until its
// release and gone after; Get's body is never affected by anyone's release; a
// store that cannot lease answers with a nil release.
func TestLeaseLogRead(t *testing.T) {
	l, _ := newTestLog(t)
	want := leaseTestBody(3)
	if err := l.Put("k", "text/html", want); err != nil {
		t.Fatal(err)
	}
	_, own, err := l.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	ct, body, release, err := GetLeased(l, "k")
	if err != nil || ct != "text/html" || !bytes.Equal(body, want) || release == nil {
		t.Fatalf("GetLeased = %q, %d bytes, release %v, %v", ct, len(body), release != nil, err)
	}
	release()
	release()
	if bytes.Equal(body, want) {
		t.Fatal("leased body still readable after release")
	}
	for i := 0; i < 50; i++ {
		_, _, rel, err := GetLeased(l, "k")
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if !bytes.Equal(own, want) {
		t.Fatal("Get's body changed when leases were released")
	}
	if _, _, release, err := GetLeased(l, "absent"); !errors.Is(err, ErrNotFound) || release != nil {
		t.Fatalf("GetLeased absent: release %v, %v", release != nil, err)
	}

	mem := NewMemory()
	mem.Put("k", "text/html", want)
	if _, body, release, err := GetLeased(mem, "k"); err != nil || release != nil || !bytes.Equal(body, want) {
		t.Fatalf("GetLeased on Memory: release %v, err %v", release != nil, err)
	}
}

// TestLeaseGetOwnsExactBuffer: a plain Get never takes a pooled buffer, so a
// body its caller keeps pins what it holds and no more.
func TestLeaseGetOwnsExactBuffer(t *testing.T) {
	l, _ := newTestLog(t)
	l.Put("big", "t/t", make([]byte, 256<<10))
	l.Put("small", "t/t", leaseTestBody(1)[:100])
	for i := 0; i < 20; i++ {
		_, _, release, err := GetLeased(l, "big")
		if err != nil {
			t.Fatal(err)
		}
		release() // a 256 KiB buffer is now waiting in the pool
		_, body, err := l.Get("small")
		if err != nil {
			t.Fatal(err)
		}
		if loc := l.index["small"]; cap(body) > loc.Len() {
			t.Fatalf("Get's %d-byte body sits in a %d-byte buffer (record %d)", len(body), cap(body), loc.n)
		}
	}
}

// TestLeaseLogReadVerifies: the leased read makes every check Get makes — a
// rotten record is an ErrCorrupt, dropped and counted, never a body.
func TestLeaseLogReadVerifies(t *testing.T) {
	l, dir := newTestLog(t)
	l.Put("rot", "t/t", []byte(strings.Repeat("x", 500)))
	loc := l.index["rot"]
	flipByteInPlace(t, filepath.Join(dir, segmentFileName(loc.seg)), int64(loc.off)+50)
	if _, body, release, err := GetLeased(l, "rot"); !errors.Is(err, ErrCorrupt) || body != nil || release != nil {
		t.Fatalf("GetLeased = %d bytes, release %v, %v; want ErrCorrupt", len(body), release != nil, err)
	}
	if _, _, _, err := GetLeased(l, "rot"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second GetLeased err = %v, want ErrNotFound (dropped)", err)
	}
	if st := l.StorageStatus(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
}

// TestLeaseLogConcurrentUnderCleaning: 8 goroutines × 64 keys of leased reads,
// every byte verified, while overwrites keep the cleaner moving records and
// released buffers are poisoned and reused.
func TestLeaseLogConcurrentUnderCleaning(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	l, _, err := OpenLog(dir, LogOptions{SegmentMaxBytes: 32 << 10, CompactMinBytes: 16 << 10, CompactFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const keys = 64
	want := make([][]byte, keys)
	for id := range want {
		want[id] = leaseTestBody(id)
		if err := l.Put(fmt.Sprint("k", id), "application/octet-stream", want[id]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() { // the same bodies again and again: dead bytes for the cleaner
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % keys
			if err := l.Put(fmt.Sprint("k", id), "application/octet-stream", want[id]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20*keys; i++ {
				id := (i*5 + g) % keys
				ct, body, release, err := GetLeased(l, fmt.Sprint("k", id))
				if err != nil {
					t.Errorf("key %d: %v", id, err)
					return
				}
				if ct != "application/octet-stream" || !bytes.Equal(body, want[id]) {
					t.Errorf("key %d: wrong content type %q or body", id, ct)
					return
				}
				if i%4 != 0 {
					release()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
}

// TestLeaseLogReadAllocs holds the read path's allocation counts: a plain Get
// makes its buffer and the content type; a leased read whose
// buffers come back makes no buffer.
func TestLeaseLogReadAllocs(t *testing.T) {
	l, _ := newTestLog(t)
	l.Put("k", "application/octet-stream", leaseTestBody(10))
	if got := testing.AllocsPerRun(200, func() { l.Get("k") }); got > 3 {
		t.Errorf("Get: %.1f allocs, want ≤ 3", got)
	}
	if raceEnabled {
		return // under -race sync.Pool drops a share of what is put
	}
	leased := func() {
		_, _, release, err := GetLeased(l, "k")
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	leased()
	if got := testing.AllocsPerRun(200, leased); got > 3 {
		t.Errorf("leased read: %.1f allocs, want ≤ 3 (lease, release closure, content type)", got)
	}
}
