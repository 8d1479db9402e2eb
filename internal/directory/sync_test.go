package directory

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	if d.Version() != 0 {
		t.Fatalf("fresh directory version = %d, want 0", d.Version())
	}
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	if got := d.Version(); got != 2 {
		t.Fatalf("version after 2 inserts = %d, want 2", got)
	}
	d.InsertLocal(Entry{Key: "a", Size: 2}, now) // replace counts too
	if got := d.Version(); got != 3 {
		t.Fatalf("version after replace = %d, want 3", got)
	}
	d.RemoveLocal("b")
	if got := d.Version(); got != 4 {
		t.Fatalf("version after remove = %d, want 4", got)
	}
	d.RemoveLocal("missing") // no-op removes do not version
	if got := d.Version(); got != 4 {
		t.Fatalf("version after no-op remove = %d, want 4", got)
	}
	d.TouchLocal("a") // hits are not replicated
	if got := d.Version(); got != 4 {
		t.Fatalf("version after touch = %d, want 4", got)
	}
}

func TestEvictionsAreVersioned(t *testing.T) {
	d := New(1, 2, nil)
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	evicted := d.InsertLocal(Entry{Key: "c", Size: 1}, now)
	if len(evicted) != 1 {
		t.Fatalf("evicted = %v, want 1 key", evicted)
	}
	// 3 inserts + 1 eviction delete.
	if got := d.Version(); got != 4 {
		t.Fatalf("version = %d, want 4", got)
	}
}

func TestOnUpdateSeesOpsInVersionOrder(t *testing.T) {
	d := New(1, 2, nil)
	var ops []SyncOp
	d.OnUpdate(func(op SyncOp) { ops = append(ops, op) })
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	d.InsertLocal(Entry{Key: "c", Size: 1}, now)
	d.RemoveLocal("c")
	if len(ops) != 5 { // 3 inserts + eviction + remove
		t.Fatalf("got %d ops, want 5", len(ops))
	}
	for i, op := range ops {
		if op.Version != uint64(i+1) {
			t.Fatalf("op %d has version %d, want %d", i, op.Version, i+1)
		}
	}
	if ops[3].Delete != true || ops[4].Delete != true {
		t.Fatalf("trailing ops should be deletes: %+v", ops[3:])
	}
}

func TestSyncSinceDelta(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	for i := 0; i < 10; i++ {
		d.InsertLocal(Entry{Key: fmt.Sprintf("k%d", i), Size: 1}, now)
	}
	ops, ver, full, ok := d.SyncSince(7)
	if !ok || full {
		t.Fatalf("SyncSince(7) = ok=%v full=%v, want delta", ok, full)
	}
	if ver != 10 || len(ops) != 3 {
		t.Fatalf("ver=%d len=%d, want 10 and 3", ver, len(ops))
	}
	if ops[0].Version != 8 || ops[2].Version != 10 {
		t.Fatalf("delta versions [%d..%d], want [8..10]", ops[0].Version, ops[2].Version)
	}
}

func TestSyncSinceCurrent(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	if _, _, _, ok := d.SyncSince(1); ok {
		t.Fatal("SyncSince(current) reported work to do")
	}
	empty := New(2, 0, nil)
	if _, _, _, ok := empty.SyncSince(0); ok {
		t.Fatal("SyncSince(0) on empty directory reported work to do")
	}
}

func TestSyncSinceZeroIsFullSnapshot(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	d.RemoveLocal("a")
	ops, ver, full, ok := d.SyncSince(0)
	if !ok || !full {
		t.Fatalf("SyncSince(0) = ok=%v full=%v, want full snapshot", ok, full)
	}
	if ver != 3 || len(ops) != 1 || ops[0].Entry.Key != "b" {
		t.Fatalf("snapshot = %+v at ver %d, want just live key b at 3", ops, ver)
	}
}

func TestSyncSinceFutureVersionIsFull(t *testing.T) {
	// A replica claiming a version beyond ours saw a previous incarnation
	// of this node; it must get an authoritative snapshot, at a version the
	// replica will not take for older than what it holds — and every later
	// update must be newer still.
	d := New(1, 0, nil)
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	ops, ver, full, ok := d.SyncSince(99)
	if !ok || !full || ver != 99 || len(ops) != 1 {
		t.Fatalf("SyncSince(future) = %d ops ver=%d full=%v ok=%v, want a full snapshot of 1 at 99", len(ops), ver, full, ok)
	}
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	if got := d.Version(); got != 100 {
		t.Fatalf("version after the next insert = %d, want 100", got)
	}
	// The journal restarted with the version: 99 → 100 is a delta again,
	// anything from before the jump a snapshot.
	if ops, ver, full, ok := d.SyncSince(99); !ok || full || ver != 100 || len(ops) != 1 || ops[0].Entry.Key != "b" {
		t.Fatalf("SyncSince(99) after the jump = %+v ver=%d full=%v ok=%v, want the delta {b} at 100", ops, ver, full, ok)
	}
	if _, _, full, ok := d.SyncSince(1); !ok || !full {
		t.Fatalf("SyncSince(1) after the jump: full=%v ok=%v, want a full snapshot", full, ok)
	}
}

func TestSyncSinceJournalOverflowFallsBackToFull(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	n := 2*journalLimit + 100
	for i := 0; i < n; i++ {
		d.InsertLocal(Entry{Key: fmt.Sprintf("k%d", i), Size: 1}, now)
	}
	// A replica only 10 behind is still covered by the journal.
	if _, _, full, ok := d.SyncSince(uint64(n - 10)); !ok || full {
		t.Fatalf("near-current replica got full=%v ok=%v, want delta", full, ok)
	}
	// A replica from before the journal window gets a snapshot.
	if _, _, full, ok := d.SyncSince(1); !ok || !full {
		t.Fatalf("ancient replica got full=%v ok=%v, want full", full, ok)
	}
}

func TestApplySyncFullReplacesReplica(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	// Stale entry that the sync must clear out.
	d.ApplyInsert(Entry{Key: "stale", Owner: 2, Size: 1}, now)
	d.ApplySync(2, true, []SyncOp{
		{Entry: Entry{Key: "x", Size: 1}},
		{Entry: Entry{Key: "y", Size: 2}},
	}, 42, now)
	if _, ok := d.Lookup("stale", now); ok {
		t.Fatal("full sync kept a stale entry")
	}
	if _, ok := d.Lookup("x", now); !ok {
		t.Fatal("full sync dropped a snapshot entry")
	}
	if got := d.PeerVersion(2); got != 42 {
		t.Fatalf("peer version = %d, want 42", got)
	}
}

// TestApplySyncOlderSnapshotMerges is the link-up race of the two
// connections of a peer pair: batches up to version v arrive on one, then a
// full snapshot taken at v-k arrives on the other. Replacing the table would
// erase the k newer updates for good; the snapshot must merge and the
// version must stay v.
func TestApplySyncOlderSnapshotMerges(t *testing.T) {
	const v, k = 20, 5
	owner := New(2, 0, nil)
	replica := New(1, 0, nil)
	now := time.Now()
	var snapshot []SyncOp
	var snapVer uint64
	for i := 1; i <= v; i++ {
		owner.InsertLocal(Entry{Key: fmt.Sprintf("k%d", i), Size: 1}, now)
		if i == v-k {
			var full bool
			snapshot, snapVer, full, _ = owner.SyncSince(0)
			if !full || snapVer != v-k {
				t.Fatalf("snapshot: full=%v at version %d, want full at %d", full, snapVer, v-k)
			}
		}
		// The batch stream, as HandleDirBatch applies it: version first.
		replica.AdvancePeerVersion(2, uint64(i))
		replica.ApplyInsert(Entry{Key: fmt.Sprintf("k%d", i), Owner: 2, Size: 1}, now)
	}
	// Something only the snapshot carries (inserted before the link came up).
	snapshot = append(snapshot, SyncOp{Entry: Entry{Key: "early", Size: 1}})

	replica.ApplySync(2, true, snapshot, snapVer, now)

	if got := replica.PeerVersion(2); got != v {
		t.Fatalf("peer version after an older snapshot = %d, want %d", got, v)
	}
	for i := 1; i <= v; i++ {
		if _, ok := replica.Lookup(fmt.Sprintf("k%d", i), now); !ok {
			t.Fatalf("k%d lost to a snapshot taken at version %d", i, snapVer)
		}
	}
	if _, ok := replica.Lookup("early", now); !ok {
		t.Fatal("the older snapshot's own entry was not merged")
	}
	// A snapshot at the replica's version or beyond still replaces.
	replica.ApplySync(2, true, []SyncOp{{Entry: Entry{Key: "only", Size: 1}}}, v, now)
	if _, ok := replica.Lookup("k1", now); ok {
		t.Fatal("a current full snapshot kept an entry it does not list")
	}
}

func TestApplySyncDelta(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	d.ApplyInsert(Entry{Key: "old", Owner: 2, Size: 1}, now)
	d.AdvancePeerVersion(2, 5)
	d.ApplySync(2, false, []SyncOp{
		{Version: 6, Entry: Entry{Key: "new", Size: 1}},
		{Version: 7, Delete: true, Entry: Entry{Key: "old"}},
	}, 7, now)
	if _, ok := d.Lookup("old", now); ok {
		t.Fatal("delta delete not applied")
	}
	if _, ok := d.Lookup("new", now); !ok {
		t.Fatal("delta insert not applied")
	}
	if got := d.PeerVersion(2); got != 7 {
		t.Fatalf("peer version = %d, want 7", got)
	}
	// Deltas never regress the recorded version.
	d.AdvancePeerVersion(2, 4)
	if got := d.PeerVersion(2); got != 7 {
		t.Fatalf("peer version regressed to %d", got)
	}
}

func TestDropPeerForgetsVersion(t *testing.T) {
	d := New(1, 0, nil)
	d.AdvancePeerVersion(2, 9)
	d.DropPeer(2)
	if got := d.PeerVersion(2); got != 0 {
		t.Fatalf("peer version after drop = %d, want 0", got)
	}
}

func TestConcurrentMutationsKeepJournalContiguous(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				d.InsertLocal(Entry{Key: fmt.Sprintf("g%d-k%d", g, i), Size: 1}, now)
			}
		}(g)
	}
	wg.Wait()
	ops, ver, full, ok := d.SyncSince(d.Version() - 100)
	if !ok || full {
		t.Fatalf("SyncSince near head: full=%v ok=%v", full, ok)
	}
	if len(ops) != 100 {
		t.Fatalf("delta length = %d, want 100", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Version != ops[i-1].Version+1 {
			t.Fatalf("journal gap: %d then %d", ops[i-1].Version, ops[i].Version)
		}
	}
	if ver != 4000 {
		t.Fatalf("final version = %d, want 4000", ver)
	}
}

// syncSeeds is how many seeds TestSyncSinceModel runs; CI raises it.
var syncSeeds = flag.Int("sync-seeds", 3, "seeds TestSyncSinceModel runs (1..n)")

// TestSyncSinceModel drives random inserts (at capacity, so they evict),
// re-inserts, removes, expiries and touches on an owner. At random points a
// replica that applied the owner's OnUpdate stream through a random version
// inside the journal window catches up with one delta, and must then hold
// exactly the owner's local table.
func TestSyncSinceModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*syncSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { syncSinceModel(t, seed) })
	}
}

func syncSinceModel(t *testing.T, seed int64) {
	const capacity, keys, checkpoints = 64, 160, 4
	rng := rand.New(rand.NewSource(seed))
	// About half the seeds run past 2*journalLimit versions, so the journal is
	// compacted at least once before the last checkpoint.
	steps := 1000 + rng.Intn(4*journalLimit)
	owner := New(1, capacity, nil)
	var stream []SyncOp
	owner.OnUpdate(func(op SyncOp) { stream = append(stream, op) })
	now := t0
	check := make(map[int]bool, checkpoints)
	for len(check) < checkpoints-1 {
		check[rng.Intn(steps)] = true
	}
	check[steps-1] = true
	for step := 0; step < steps; step++ {
		now = now.Add(time.Second)
		key := fmt.Sprintf("k%d", rng.Intn(keys))
		switch op := rng.Intn(100); {
		case op < 60: // fresh insert, or a re-insert replacing the entry
			e := Entry{Key: key, Size: int64(1 + rng.Intn(1000)), ExecTime: time.Duration(rng.Intn(1000)) * time.Millisecond}
			if rng.Intn(2) == 0 {
				e.Expires = now.Add(time.Duration(rng.Intn(60)) * time.Second)
			}
			owner.InsertLocal(e, now)
		case op < 75:
			owner.RemoveLocal(key)
		case op < 85:
			owner.ExpireLocal(now)
		default:
			owner.TouchLocal(key)
		}
		if !check[step] || owner.Version() < 2 {
			continue
		}
		owner.localMu.Lock()
		window := uint64(len(owner.journal))
		owner.localMu.Unlock()
		ver := owner.Version()
		lo := uint64(1)
		if ver > window {
			lo = ver - window
		}
		since := lo + uint64(rng.Int63n(int64(ver-lo)))

		replica := New(2, 0, nil)
		for _, op := range stream[:since] {
			replica.AdvancePeerVersion(1, op.Version)
			if op.Delete {
				replica.ApplyDelete(1, op.Entry.Key)
			} else {
				replica.ApplyInsert(op.Entry, now)
			}
		}
		ops, got, full, ok := owner.SyncSince(since)
		if !ok || full || got != ver || len(ops) != int(ver-since) {
			t.Fatalf("step %d: SyncSince(%d) = %d ops at %d full=%v ok=%v, want a delta of %d at %d", step, since, len(ops), got, full, ok, ver-since, ver)
		}
		replica.ApplySync(1, full, ops, got, now)

		var have []Entry
		if tab := replica.tableFor(1, false); tab != nil {
			have = tab.snapshot()
		}
		sort.Slice(have, func(i, j int) bool { return have[i].Key < have[j].Key })
		want := owner.SnapshotLocal()
		if len(have) != len(want) {
			t.Fatalf("step %d: replica caught up from %d holds %d entries, owner %d", step, since, len(have), len(want))
		}
		for i := range want {
			h, w := have[i], want[i]
			if h.Key != w.Key || h.Size != w.Size || h.ExecTime != w.ExecTime || !h.Expires.Equal(w.Expires) {
				t.Fatalf("step %d: replica caught up from %d holds %+v, owner %+v", step, since, h, w)
			}
		}
	}
}

// TestDirectoryFootprint bounds the heap a full local table retains per
// owned entry, journal included, after the table has turned over twice.
func TestDirectoryFootprint(t *testing.T) {
	const capacity, maxPerEntry = 4096, 320
	keys := make([]string, 3*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("GET /cgi-bin/q?key=%d", i)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	d := New(1, capacity, nil)
	for _, k := range keys {
		d.InsertLocal(Entry{Key: k, Size: 2048, ExecTime: time.Millisecond}, t0)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	n := d.LocalLen()
	runtime.KeepAlive(keys)
	if n != capacity {
		t.Fatalf("local table holds %d entries, want %d", n, capacity)
	}
	per := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / int64(n)
	t.Logf("%d B of heap per owned entry", per)
	if per > maxPerEntry {
		t.Fatalf("directory retains %d B per owned entry, want at most %d", per, maxPerEntry)
	}
}
