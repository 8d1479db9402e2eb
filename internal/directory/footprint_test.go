package directory

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// heapPerEntry returns the heap that fill leaves live, divided by n.
func heapPerEntry(n int, fill func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fill()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	return (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / int64(n)
}

func footprintKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("GET /cgi-bin/q?key=%d", i)
	}
	return keys
}

// TestDirectoryFootprint bounds the heap a full local table retains per
// owned entry, journal included, after the table has turned over twice.
func TestDirectoryFootprint(t *testing.T) {
	const capacity, maxPerEntry = 4096, 230
	keys := footprintKeys(3 * capacity)
	var d *Directory
	per := heapPerEntry(capacity, func() {
		d = New(1, capacity, nil)
		d.OnUpdate(func(SyncOp) {}) // a cluster node's journal
		for _, k := range keys {
			d.InsertLocal(Entry{Key: k, Size: 2048, ExecTime: time.Millisecond}, t0)
		}
	})
	runtime.KeepAlive(keys)
	if n := d.LocalLen(); n != capacity {
		t.Fatalf("local table holds %d entries, want %d", n, capacity)
	}
	t.Logf("%d B of heap per owned entry", per)
	if per > maxPerEntry {
		t.Fatalf("directory retains %d B per owned entry, want at most %d", per, maxPerEntry)
	}
}

// TestDirectoryPeerFootprint bounds the heap a peer's table retains per
// entry, the keys themselves not counted.
func TestDirectoryPeerFootprint(t *testing.T) {
	const entries, maxPerEntry = 4096, 100
	keys := footprintKeys(entries)
	d := New(1, entries, nil)
	per := heapPerEntry(entries, func() {
		for _, k := range keys {
			d.ApplyInsert(Entry{Key: k, Owner: 2, Size: 2048, ExecTime: time.Millisecond}, t0)
		}
	})
	runtime.KeepAlive(keys)
	if n := d.TotalLen(); n != entries {
		t.Fatalf("directory holds %d entries, want %d", n, entries)
	}
	t.Logf("%d B of heap per peer entry", per)
	if per > maxPerEntry {
		t.Fatalf("directory retains %d B per peer entry, want at most %d", per, maxPerEntry)
	}
}

// TestInsertLocalAllocs bounds the allocations of the local insert path on a
// full, logged table: an evicting insert allocates the new slot and the
// slice of evicted keys, and a touch allocates nothing.
func TestInsertLocalAllocs(t *testing.T) {
	const capacity = 1024
	keys := footprintKeys(6 * capacity)
	d := New(1, capacity, nil)
	records := 0
	d.OnUpdate(func(SyncOp) { records++ })
	i := 0
	insert := func() {
		d.InsertLocal(Entry{Key: keys[i], Size: 2048, ExecTime: time.Millisecond}, t0)
		i++
	}
	for i < 3*capacity { // full, with the journal at its steady size
		insert()
	}
	if got := testing.AllocsPerRun(2*capacity, insert); got > 2 {
		t.Errorf("evicting InsertLocal allocates %v times, want at most 2", got)
	}
	if d.LocalLen() != capacity || records != 2*i-capacity {
		t.Fatalf("after %d inserts: %d entries, %d records", i, d.LocalLen(), records)
	}
	j := 0
	touch := func() {
		d.TouchLocal(keys[i-1-j%capacity])
		j++
	}
	if got := testing.AllocsPerRun(capacity, touch); got != 0 {
		t.Errorf("TouchLocal allocates %v times, want 0", got)
	}
}
