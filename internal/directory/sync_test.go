package directory

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// logged returns a directory whose local mutations are records of its log,
// as they are while a cluster observes them.
func logged(capacity int) *Directory {
	d := New(1, capacity, nil)
	d.OnUpdate(func(SyncOp) {})
	return d
}

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	d := logged(0)
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
	d := logged(2)
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
	if ops[3].Kind != Delete || ops[4].Kind != Delete {
		t.Fatalf("trailing ops should be deletes: %+v", ops[3:])
	}
}

func TestSyncSinceDelta(t *testing.T) {
	d := logged(0)
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
	d := logged(0)
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
	d := logged(0)
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
	d := logged(0)
	now := time.Now()
	d.InsertLocal(Entry{Key: "a", Size: 1}, now)
	ops, ver, full, ok := d.SyncSince(99)
	if !ok || !full || ver != 100 || len(ops) != 1 {
		t.Fatalf("SyncSince(future) = %d ops ver=%d full=%v ok=%v, want a full snapshot of 1 at 100", len(ops), ver, full, ok)
	}
	d.InsertLocal(Entry{Key: "b", Size: 1}, now)
	if got := d.Version(); got != 101 {
		t.Fatalf("version after the next insert = %d, want 101", got)
	}
	// The journal restarted past the version: 100 → 101 is a delta again,
	// anything from before the jump (99 included) a snapshot.
	if ops, ver, full, ok := d.SyncSince(100); !ok || full || ver != 101 || len(ops) != 1 || ops[0].Entry.Key != "b" {
		t.Fatalf("SyncSince(100) after the jump = %+v ver=%d full=%v ok=%v, want the delta {b} at 101", ops, ver, full, ok)
	}
	for _, since := range []uint64{1, 99} {
		if _, _, full, ok := d.SyncSince(since); !ok || !full {
			t.Fatalf("SyncSince(%d) after the jump: full=%v ok=%v, want a full snapshot", since, full, ok)
		}
	}
}

func TestSyncSinceJournalOverflowFallsBackToFull(t *testing.T) {
	d := logged(0)
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

// TestApplySyncOlderSnapshotIsSkipped is the link-up race of a dying link
// and its replacement: records up to version v are applied from one, then a
// full snapshot taken at v-k arrives from the other. The replica's floor
// already covers everything the snapshot says, and replacing the table would
// erase the k newer records for good: the snapshot must change nothing.
func TestApplySyncOlderSnapshotIsSkipped(t *testing.T) {
	const v, k = 20, 5
	owner := logged(0)
	replica := New(2, 0, nil)
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
		replica.ApplySync(1, false, []SyncOp{{Entry: Entry{Key: fmt.Sprintf("k%d", i), Size: 1}}}, uint64(i), now)
	}
	replica.ApplySync(1, true, snapshot, snapVer, now)

	if got := replica.PeerVersion(1); got != v {
		t.Fatalf("peer version after an older snapshot = %d, want %d", got, v)
	}
	for i := 1; i <= v; i++ {
		if _, ok := replica.Lookup(fmt.Sprintf("k%d", i), now); !ok {
			t.Fatalf("k%d lost to a snapshot taken at version %d", i, snapVer)
		}
	}
	// A snapshot at the replica's own version is skipped too; one beyond it
	// replaces the table.
	replica.ApplySync(1, true, []SyncOp{{Entry: Entry{Key: "only", Size: 1}}}, v, now)
	if _, ok := replica.Lookup("k1", now); !ok {
		t.Fatal("a snapshot at the replica's version replaced its table")
	}
	replica.ApplySync(1, true, []SyncOp{{Entry: Entry{Key: "only", Size: 1}}}, v+1, now)
	if _, ok := replica.Lookup("k1", now); ok {
		t.Fatal("a newer full snapshot kept an entry it does not list")
	}
}

// TestApplySyncUnversionedRun is a sender outside the log (Table 4's
// pseudo-servers): a run at version 0 applies in order, one record or many,
// and leaves the floor where it was.
func TestApplySyncUnversionedRun(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	d.ApplySync(2, false, []SyncOp{{Entry: Entry{Key: "one", Size: 1}}}, 0, now)
	d.ApplySync(2, false, []SyncOp{
		{Entry: Entry{Key: "two", Size: 1}},
		{Entry: Entry{Key: "three", Size: 1}},
		{Kind: Delete, Entry: Entry{Key: "two"}},
	}, 0, now)
	for key, want := range map[string]bool{"one": true, "two": false, "three": true} {
		if _, ok := d.Lookup(key, now); ok != want {
			t.Errorf("lookup %q = %v, want %v", key, ok, want)
		}
	}
	if got := d.PeerVersion(2); got != 0 {
		t.Fatalf("floor after unversioned runs = %d, want 0", got)
	}
}

func TestApplySyncDelta(t *testing.T) {
	d := New(1, 0, nil)
	now := time.Now()
	d.ApplySync(2, true, []SyncOp{{Entry: Entry{Key: "old", Size: 1}}}, 5, now)
	d.ApplySync(2, false, []SyncOp{
		{Version: 6, Entry: Entry{Key: "new", Size: 1}},
		{Version: 7, Kind: Delete, Entry: Entry{Key: "old"}},
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
	// Records at or below the floor are skipped and never regress it.
	d.ApplySync(2, false, []SyncOp{{Entry: Entry{Key: "old", Size: 1}}}, 4, now)
	if got := d.PeerVersion(2); got != 7 {
		t.Fatalf("peer version regressed to %d", got)
	}
	if _, ok := d.Lookup("old", now); ok {
		t.Fatal("a record below the floor was applied again")
	}
}

func TestDropPeerForgetsVersion(t *testing.T) {
	d := New(1, 0, nil)
	d.ApplySync(2, true, nil, 9, time.Now())
	d.DropPeer(2)
	if got := d.PeerVersion(2); got != 0 {
		t.Fatalf("peer version after drop = %d, want 0", got)
	}
}

func TestConcurrentMutationsKeepJournalContiguous(t *testing.T) {
	d := logged(0)
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
