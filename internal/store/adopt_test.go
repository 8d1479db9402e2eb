package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// testIndex stands in for a cache directory's local table: it lists a
// location per key, and a key whose record the log dropped stays listed at
// the zero Loc, as a directory entry does.
type testIndex struct {
	mu sync.Mutex
	m  map[string]Loc
}

func newTestIndex() *testIndex { return &testIndex{m: make(map[string]Loc)} }

func (x *testIndex) LocalLoc(key string) (Loc, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	loc, ok := x.m[key]
	return loc, ok
}

func (x *testIndex) Repoint(key string, prev, next Loc) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if cur, ok := x.m[key]; !ok || cur != prev {
		return false
	}
	x.m[key] = next
	return true
}

func (x *testIndex) LocalLen() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.m)
}

// list lists loc for key and returns the location it replaced.
func (x *testIndex) list(key string, loc Loc) Loc {
	x.mu.Lock()
	defer x.mu.Unlock()
	prev := x.m[key]
	x.m[key] = loc
	return prev
}

// remove unlists key and returns where it was listed.
func (x *testIndex) remove(key string) (Loc, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	loc, ok := x.m[key]
	delete(x.m, key)
	return loc, ok
}

// snapshot copies the listing.
func (x *testIndex) snapshot() map[string]Loc {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[string]Loc, len(x.m))
	for k, v := range x.m {
		out[k] = v
	}
	return out
}

// openAdopted opens dir and hands the log to a fresh testIndex, listing what
// the log recovered, as core.New does with a directory.
func openAdopted(t testing.TB, dir string, opts LogOptions) (*Log, *testIndex) {
	t.Helper()
	l, rep, err := OpenLog(dir, opts)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	idx := newTestIndex()
	l.Adopt(idx, func() {
		for _, re := range rep.Recovered {
			idx.list(re.Key, re.Loc)
		}
	})
	return l, idx
}

// install appends body for key and lists it, dropping the record it
// replaces, the way core installs a body; during runs after the append and
// before the listing.
func install(t testing.TB, l *Log, idx *testIndex, key string, body []byte, during func(Loc)) {
	t.Helper()
	err := l.Append(key, "t/t", body, 0, time.Time{}, func(loc Loc) {
		if during != nil {
			during(loc)
		}
		if prev := idx.list(key, loc); prev != (Loc{}) {
			l.DropAt(key, prev, false)
		}
	})
	if err != nil {
		t.Errorf("Append(%s): %v", key, err)
	}
}

// checkAdopted asserts that every listed record lies in a segment the log
// still holds and reads back its key's newest body, that nothing else is
// listed, and that the live bytes are the listed records' lengths.
func checkAdopted(t *testing.T, l *Log, idx *testIndex, model map[string][]byte) {
	t.Helper()
	listed := idx.snapshot()
	if len(listed) != len(model) {
		t.Fatalf("%d keys listed, model has %d", len(listed), len(model))
	}
	var live int64
	for key, loc := range listed {
		l.mu.RLock()
		_, held := l.segBytes[loc.seg]
		l.mu.RUnlock()
		if !held {
			t.Fatalf("%s is listed at %+v, in a retired segment", key, loc)
		}
		_, body, release, err := l.ReadAt(key, loc)
		if err != nil || !bytes.Equal(body, model[key]) {
			t.Fatalf("ReadAt(%s, %+v) = %d bytes, %v; model has %d", key, loc, len(body), err, len(model[key]))
		}
		release()
		live += int64(loc.Len())
	}
	if got := l.LiveBytes(); got != live {
		t.Fatalf("LiveBytes = %d, listed records hold %d", got, live)
	}
}

// TestLogCleanModelAdopted is TestLogCleanModel driven the way core drives an
// adopted log: append first and list after, overwrites and removals dropped
// by location, the cleaner repointing listings by compare-and-swap. Segments
// hold a few records each and the cleaner runs every few steps — sometimes
// between an append and its listing, either retiring every segment up to the
// appended record's own or retiring only the oldest, which may hold the key's
// older, still listed record, and reopening after the listing. After every
// step each listed location reads back its key's newest body and the live
// bytes are the listed records' lengths; a reopen recovers the same live set.
func TestLogCleanModelAdopted(t *testing.T) {
	for seed := int64(1); seed <= int64(*modelSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { logCleanModelAdopted(t, seed) })
	}
}

func logCleanModelAdopted(t *testing.T, seed int64) {
	const segMax, hotKeys, steps = 2 << 10, 40, 2000
	// The test runs the cleaner itself.
	opts := LogOptions{SegmentMaxBytes: segMax, CompactMinBytes: 1 << 40}
	dir := filepath.Join(t.TempDir(), "cache")
	l, idx := openAdopted(t, dir, opts)
	defer func() { l.Close() }()
	rng := rand.New(rand.NewSource(seed))
	model := make(map[string][]byte)
	versions := make(map[string]int)
	oldest := func() uint32 {
		l.mu.RLock()
		defer l.mu.RUnlock()
		o := uint32(0)
		for seg := range l.segBytes {
			if o == 0 || seg < o {
				o = seg
			}
		}
		return o
	}
	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("hot%d", rng.Intn(hotKeys))
		switch op := rng.Intn(100); {
		case op < 50:
			versions[key]++
			body := versionBody(key, versions[key], 40+rng.Intn(500))
			var during func(Loc)
			var cleaned chan error
			reopen := false
			switch rng.Intn(8) {
			case 0, 1:
				// Retire every segment up to the one the unlisted record lies
				// in; the last pass, and any over an older record of key, must
				// wait for the listing.
				cleaned = make(chan error, 1)
				during = func(loc Loc) {
					go func() {
						for {
							at := oldest()
							if _, err := l.cleanOldest(nil); err != nil || at >= loc.seg {
								cleaned <- err
								return
							}
						}
					}()
					deadline := time.Now().Add(2 * time.Millisecond)
					for oldest() < loc.seg && time.Now().Before(deadline) {
						runtime.Gosched()
					}
					time.Sleep(time.Millisecond)
				}
			case 2:
				// Retire only the oldest segment; a pass that must wait for
				// the listing is given time to run ahead of it.
				cleaned = make(chan error, 1)
				reopen = true
				during = func(Loc) {
					go func() {
						_, err := l.cleanOldest(nil)
						cleaned <- err
					}()
					select {
					case err := <-cleaned:
						cleaned <- err
					case <-time.After(2 * time.Millisecond):
					}
				}
			}
			install(t, l, idx, key, body, during)
			if cleaned != nil {
				if err := <-cleaned; err != nil {
					t.Fatalf("step %d: cleanOldest: %v", step, err)
				}
			}
			model[key] = body
			if reopen {
				l.Close()
				l, idx = openAdopted(t, dir, opts)
			}
		case op < 75:
			if loc, ok := idx.remove(key); ok {
				l.DropAt(key, loc, true)
			}
			delete(model, key)
		case op < 90:
			if oldest() != 0 {
				if _, err := l.cleanOldest(nil); err != nil {
					t.Fatalf("step %d: cleanOldest: %v", step, err)
				}
			}
		case op < 99:
			if loc, ok := idx.LocalLoc(key); ok {
				if _, got, release, err := l.ReadAt(key, loc); err != nil || !bytes.Equal(got, model[key]) {
					t.Fatalf("step %d: ReadAt(%s) = %d bytes, %v", step, key, len(got), err)
				} else {
					release()
				}
			}
		default:
			l.Close()
			l, idx = openAdopted(t, dir, opts)
		}
		checkAdopted(t, l, idx, model)
	}
	l.Close()
	l, idx = openAdopted(t, dir, opts)
	checkAdopted(t, l, idx, model)
}

// TestLogCleanDuringAppendKeepsNewest: a cleaning pass over the segment of a
// key's listed record, run while a newer record of the key is appended but
// not listed yet, does not copy the older record past the newer one, so a
// reopen recovers the newer body.
func TestLogCleanDuringAppendKeepsNewest(t *testing.T) {
	// One record per segment: the oldest holds only the older record.
	opts := LogOptions{SegmentMaxBytes: 1, CompactMinBytes: 1 << 40}
	dir := filepath.Join(t.TempDir(), "cache")
	l, idx := openAdopted(t, dir, opts)
	older, newer := versionBody("k", 1, 300), versionBody("k", 2, 300)
	install(t, l, idx, "k", older, nil)
	cleaned := make(chan error, 1)
	install(t, l, idx, "k", newer, func(Loc) {
		go func() {
			_, err := l.cleanOldest(nil)
			cleaned <- err
		}()
		// The pass waits for the listing; give it time to run ahead if it
		// would not.
		select {
		case err := <-cleaned:
			cleaned <- err
		case <-time.After(50 * time.Millisecond):
		}
	})
	if err := <-cleaned; err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	checkAdopted(t, l, idx, map[string][]byte{"k": newer})
	l.Close()
	l, idx = openAdopted(t, dir, opts)
	defer l.Close()
	checkAdopted(t, l, idx, map[string][]byte{"k": newer})
}

// TestLogAdoptedConcurrent runs installs, drops and reads of disjoint key
// sets against an adopted log whose cleaner runs constantly: every read of a
// listed location returns its key's current body, and once the writers stop
// the live bytes are the listed records' lengths and a reopen recovers the
// listed set.
func TestLogAdoptedConcurrent(t *testing.T) {
	const writers, keys, steps = 4, 8, 400
	opts := LogOptions{SegmentMaxBytes: 4 << 10, CompactMinBytes: 1}
	dir := filepath.Join(t.TempDir(), "cache")
	l, idx := openAdopted(t, dir, opts)
	models := make([]map[string][]byte, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		models[w] = make(map[string][]byte)
		wg.Add(1)
		go func(w int, model map[string][]byte) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for step := 0; step < steps && !t.Failed(); step++ {
				key := fmt.Sprintf("w%d-k%d", w, rng.Intn(keys))
				switch op := rng.Intn(10); {
				case op < 5:
					body := versionBody(key, step, 100+rng.Intn(400))
					install(t, l, idx, key, body, nil)
					model[key] = body
				case op < 7:
					if loc, ok := idx.remove(key); ok {
						l.DropAt(key, loc, true)
					}
					delete(model, key)
				default:
					loc, ok := idx.LocalLoc(key)
					if !ok {
						continue
					}
					_, got, release, err := l.ReadAt(key, loc)
					if err != nil || !bytes.Equal(got, model[key]) {
						t.Errorf("ReadAt(%s) = %d bytes, %v; want %d", key, len(got), err, len(model[key]))
						return
					}
					release()
				}
			}
		}(w, models[w])
	}
	wg.Wait()
	all := make(map[string][]byte)
	for _, m := range models {
		for k, v := range m {
			all[k] = v
		}
	}
	l.compactWG.Wait()
	checkAdopted(t, l, idx, all)
	l.Close()
	l, idx = openAdopted(t, dir, opts)
	defer l.Close()
	checkAdopted(t, l, idx, all)
}

// TestLogAdoptedHoldsNoKeyMap: an adopted log keeps no per-key structure, so
// its heap does not grow with the number of keys; the same appends into a
// log with its own key map do grow it.
func TestLogAdoptedHoldsNoKeyMap(t *testing.T) {
	const first, total = 2000, 20000
	body := make([]byte, 64)
	key := func(i int) string { return "GET /cgi-bin/q?k=" + strconv.Itoa(i) }
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	growth := func(put func(i int)) uint64 {
		for i := 0; i < first; i++ {
			put(i)
		}
		before := heap()
		for i := first; i < total; i++ {
			put(i)
		}
		return max(heap(), before) - before
	}

	// The adopter lists locations in a table sized up front, so whatever
	// grows is the log's.
	locs := make([]Loc, total)
	adopted, _, err := OpenLog(filepath.Join(t.TempDir(), "adopted"), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer adopted.Close()
	adopted.Adopt(sliceIndex(locs), nil)
	grewAdopted := growth(func(i int) {
		if err := adopted.Append(key(i), "t/t", body, 0, time.Time{}, func(loc Loc) { locs[i] = loc }); err != nil {
			t.Fatal(err)
		}
	})

	own, _, err := OpenLog(filepath.Join(t.TempDir(), "own"), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()
	grewOwn := growth(func(i int) {
		if err := own.Put(key(i), "t/t", body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("heap growth over %d keys: adopted %d B, own key map %d B", total-first, grewAdopted, grewOwn)
	if grewAdopted > 64<<10 {
		t.Fatalf("an adopted log grew its heap by %d B over %d keys", grewAdopted, total-first)
	}
	if grewOwn < 10*(64<<10) {
		t.Fatalf("a log with its own key map grew only %d B: the measurement shows nothing", grewOwn)
	}
}

// sliceIndex lists key "GET /cgi-bin/q?k=<i>" at element i.
type sliceIndex []Loc

func (x sliceIndex) at(key string) int {
	i, _ := strconv.Atoi(key[len("GET /cgi-bin/q?k="):])
	return i
}
func (x sliceIndex) LocalLoc(key string) (Loc, bool) { return x[x.at(key)], true }
func (x sliceIndex) Repoint(key string, prev, next Loc) bool {
	if i := x.at(key); x[i] == prev {
		x[i] = next
		return true
	}
	return false
}
func (x sliceIndex) LocalLen() int { return len(x) }

// TestLogReadAtDroppedRecord: a reader that took a location before the
// record was dropped still reads the body; once the cleaner retires the
// record's segment, the read reports the key not found.
func TestLogReadAtDroppedRecord(t *testing.T) {
	l, idx := openAdopted(t, filepath.Join(t.TempDir(), "cache"), LogOptions{CompactMinBytes: 1 << 40})
	defer l.Close()
	want := versionBody("k", 1, 300)
	install(t, l, idx, "k", want, nil)
	install(t, l, idx, "other", versionBody("other", 1, 300), nil)
	loc, _ := idx.LocalLoc("k")

	// An eviction between the reader's lookup and its read.
	idx.remove("k")
	l.DropAt("k", loc, true)
	_, got, release, err := l.ReadAt("k", loc)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAt of the dropped record = %d bytes, %v", len(got), err)
	}
	release()

	if _, err := l.cleanOldest(nil); err != nil {
		t.Fatalf("cleanOldest: %v", err)
	}
	if _, _, _, err := l.ReadAt("k", loc); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt after the segment retired: %v, want ErrNotFound", err)
	}
	if other, _ := idx.LocalLoc("other"); other.seg == loc.seg {
		t.Fatal("the cleaner did not move the listed record")
	}
	if st := l.StorageStatus(); st.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", st.Quarantined)
	}
}
