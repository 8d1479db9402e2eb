package directory

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/store"
)

// TestOnRemove checks that every path by which a key leaves the local table
// reports it to the OnRemove hook exactly once, outside the directory's
// locks, and that nothing else does: a no-op remove, a replace in place, and
// any change to a peer's table.
func TestOnRemove(t *testing.T) {
	for _, mode := range []string{"replicate", "ring"} {
		t.Run(mode, func(t *testing.T) {
			d := New(1, 2, nil) // LRU, two owned entries
			if mode == "ring" {
				// Ring placement stops logging local mutations; removals
				// must still be reported.
				r := ring.New([]uint32{1, 2}, 32)
				d.SetRing(func(key string) (uint32, bool) { return r.Owner(key) })
			}
			d.OnUpdate(func(SyncOp) {})
			var got []string
			d.OnRemove(func(key string, _ store.Loc) {
				if !d.localMu.TryLock() {
					t.Errorf("OnRemove(%q) runs under localMu", key)
					return
				}
				d.localMu.Unlock()
				s := d.tableFor(d.self, false).stripeFor(key)
				if !s.mu.TryLock() {
					t.Errorf("OnRemove(%q) runs under its stripe lock", key)
					return
				}
				s.mu.Unlock()
				d.Version() // deadlocks if localMu were still held
				got = append(got, key)
			})
			expect := func(step string, want ...string) {
				t.Helper()
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: OnRemove saw %q, want %q", step, got, want)
				}
				got = got[:0]
			}
			now := time.Now()

			d.InsertLocal(Entry{Key: "a", Size: 1}, now)
			d.InsertLocal(Entry{Key: "b", Size: 1}, now)
			expect("inserts")
			if ev := d.InsertLocal(Entry{Key: "c", Size: 1}, now); !slices.Equal(ev, []string{"a"}) {
				t.Fatalf("evicted %q, want [a]", ev)
			}
			expect("eviction", "a")
			d.InsertLocal(Entry{Key: "b", Size: 2}, now)
			expect("replace in place")

			if !d.RemoveLocal("b") {
				t.Fatal("RemoveLocal(b) = false")
			}
			expect("RemoveLocal owned", "b")
			if d.RemoveLocal("b") || d.RemoveLocalReplica("c") {
				t.Fatal("no-op remove reported a removal")
			}
			expect("no-op removes")

			d.InsertLocalReplica(Entry{Key: "r1", Size: 1}, now)
			d.InsertLocalReplica(Entry{Key: "r2", Size: 1}, now)
			if !d.RemoveLocal("r1") || !d.RemoveLocalReplica("r2") {
				t.Fatal("replica removal refused")
			}
			expect("replica removals", "r1", "r2")

			// An owned insert over a held replica replaces it in place.
			d.InsertLocalReplica(Entry{Key: "r3", Size: 1}, now)
			if ev := d.InsertLocal(Entry{Key: "r3", Size: 1}, now); len(ev) != 0 {
				t.Fatalf("promoting insert evicted %q", ev)
			}
			expect("owned insert over a replica")
			d.RemoveLocal("r3")
			expect("remove r3", "r3")

			// Expiry: one owned entry, one replica.
			ttl := now.Add(time.Second)
			d.InsertLocal(Entry{Key: "e1", Size: 1, Expires: ttl}, now)
			expect("insert e1")
			d.InsertLocalReplica(Entry{Key: "e2", Size: 1, Expires: ttl}, now)
			if keys := d.ExpireLocal(now.Add(2 * time.Second)); !slices.Equal(keys, []string{"e1", "e2"}) {
				t.Fatalf("ExpireLocal = %q", keys)
			}
			expect("ExpireLocal", "e1", "e2")

			// Promotion's evictions: the table holds c and p1 (full); p2 is
			// a replica that enters the policy and pushes out the oldest.
			d.InsertLocal(Entry{Key: "p1", Size: 1}, now)
			d.InsertLocalReplica(Entry{Key: "p2", Size: 1}, now)
			expect("fill")
			ev, ok := d.PromoteReplica("p2", now)
			if !ok || !slices.Equal(ev, []string{"c"}) {
				t.Fatalf("PromoteReplica = %q, %v; want [c], true", ev, ok)
			}
			expect("PromoteReplica", "c")

			// Peer tables are not the local table.
			d.ApplyInsert(Entry{Key: "x", Owner: 2, Size: 1}, now)
			d.ApplyInsert(Entry{Key: "y", Owner: 2, Size: 1, Expires: ttl}, now)
			d.ApplyInsert(Entry{Key: "z", Owner: 2, Size: 1}, now)
			d.ApplyDelete(2, "x")
			if n := d.ExpireRemote(now.Add(2 * time.Second)); n != 1 {
				t.Fatalf("ExpireRemote dropped %d, want 1", n)
			}
			d.DropPeer(2)
			expect("peer table changes")
			if n := d.LocalLen(); n != 2 {
				t.Fatalf("LocalLen = %d, want 2 (p1, p2)", n)
			}
		})
	}
}

// TestOnRemoveLocations: the hook receives the location each removed entry
// held, and the old location of an entry replaced in place with another;
// Repoint swaps a location only from the one it is given and reports nothing;
// PromoteReplica keeps the replica's location.
func TestOnRemoveLocations(t *testing.T) {
	l, _, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	at := func(key string) (loc store.Loc) {
		if err := l.Append(key, "t/t", []byte(key), 0, time.Time{}, func(x store.Loc) { loc = x }); err != nil {
			t.Fatal(err)
		}
		return loc
	}
	locA, locB, locB2, locC, locC2, locR := at("a"), at("b"), at("b2"), at("c"), at("c2"), at("r")

	d := New(1, 2, nil) // LRU, two owned entries
	type removal struct {
		key string
		loc store.Loc
	}
	var got []removal
	d.OnRemove(func(key string, loc store.Loc) { got = append(got, removal{key, loc}) })
	expect := func(step string, want ...removal) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: OnRemove saw %+v, want %+v", step, got, want)
		}
		got = got[:0]
	}
	now := time.Now()

	d.InsertLocal(Entry{Key: "a", Size: 1, Loc: locA}, now)
	d.InsertLocal(Entry{Key: "b", Size: 1, Loc: locB}, now)
	expect("inserts")
	d.InsertLocal(Entry{Key: "b", Size: 2, Loc: locB2}, now)
	expect("replace with a new location", removal{"b", locB})
	d.InsertLocal(Entry{Key: "b", Size: 2, Loc: locB2}, now)
	expect("replace at the same location")
	d.InsertLocal(Entry{Key: "c", Size: 1, Loc: locC}, now)
	expect("eviction", removal{"a", locA})

	if d.Repoint("c", locA, locC2) || d.Repoint("gone", locC, locC2) {
		t.Fatal("Repoint moved a location it was not given")
	}
	if !d.Repoint("c", locC, locC2) {
		t.Fatal("Repoint refused the listed location")
	}
	if loc, ok := d.LocalLoc("c"); !ok || loc != locC2 {
		t.Fatalf("LocalLoc(c) = %+v, %v after Repoint", loc, ok)
	}
	expect("repoint")
	d.RemoveLocal("c")
	expect("remove", removal{"c", locC2})

	d.InsertLocalReplica(Entry{Key: "r", Size: 1, Loc: locR}, now)
	if _, ok := d.PromoteReplica("r", now); !ok {
		t.Fatal("PromoteReplica refused the replica")
	}
	if e, ok := d.LookupLocal("r", now); !ok || e.Replica || e.Loc != locR {
		t.Fatalf("promoted entry = %+v, %v; want an owned entry at the replica's location", e, ok)
	}
	expect("promotion")
	if e, _ := d.LookupLocal("b", now); e.Loc != locB2 {
		t.Fatalf("b at %+v, want %+v", e.Loc, locB2)
	}
}
