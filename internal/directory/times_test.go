package directory

import (
	"math"
	"testing"
	"time"
)

// TestSlotTimes checks that an entry's times survive the table's compact
// encoding on every path that stores or reads them: the zero Time, the Unix
// epoch, the expiry boundary, an expiry past what Unix nanoseconds hold, and
// a clock reading with a monotonic part.
func TestSlotTimes(t *testing.T) {
	epoch := time.Unix(0, 0)
	wall := time.Now() // carries a monotonic reading
	far := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	type probe struct {
		at   time.Time
		live bool
	}
	cases := []struct {
		name              string
		inserted, expires time.Time
		now               time.Time // of the insert
		wantIns, wantExp  time.Time
		probes            []probe
	}{
		{name: "zero", now: time.Time{},
			probes: []probe{{time.Time{}, true}, {epoch, true}, {far, true}}},
		{name: "zero expiry", now: t0, wantIns: t0,
			probes: []probe{{t0, true}, {far, true}}},
		{name: "epoch", inserted: epoch, expires: epoch, now: epoch, wantIns: epoch, wantExp: epoch,
			probes: []probe{{epoch.Add(-time.Nanosecond), true}, {epoch, true}, {epoch.Add(time.Nanosecond), false}}},
		{name: "boundary", expires: t0.Add(time.Minute), now: t0, wantIns: t0, wantExp: t0.Add(time.Minute),
			probes: []probe{{t0, true}, {t0.Add(time.Minute), true}, {t0.Add(time.Minute + time.Nanosecond), false}}},
		{name: "after 2262", inserted: t0, expires: far, now: t0, wantIns: t0, wantExp: time.Unix(0, math.MaxInt64),
			probes: []probe{{t0, true}, {far, true}, {far.AddDate(1000, 0, 0), true}}},
		{name: "monotonic", inserted: wall, expires: wall.Add(time.Hour), now: wall, wantIns: wall, wantExp: wall.Add(time.Hour),
			probes: []probe{{wall.Add(time.Hour), true}, {wall.Add(time.Hour + time.Nanosecond), false}}},
	}
	const key = "GET /cgi-bin/t"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(path string, e Entry, ok bool) {
				t.Helper()
				if !ok {
					t.Fatalf("%s: entry not found", path)
				}
				if !e.Inserted.Equal(c.wantIns) || e.Inserted.IsZero() != c.wantIns.IsZero() {
					t.Errorf("%s: Inserted = %v, want %v", path, e.Inserted, c.wantIns)
				}
				if !e.Expires.Equal(c.wantExp) || e.Expires.IsZero() != c.wantExp.IsZero() {
					t.Errorf("%s: Expires = %v, want %v", path, e.Expires, c.wantExp)
				}
				if e.Inserted != e.Inserted.Round(0) || e.Expires != e.Expires.Round(0) {
					t.Errorf("%s: returned times carry a monotonic reading", path)
				}
			}
			in := Entry{Key: key, Size: 1, Inserted: c.inserted, Expires: c.expires}

			// The owner, logged so that its catch-ups carry entries.
			owner := logged(0)
			owner.InsertLocal(Entry{Key: "GET /filler", Size: 1}, c.now)
			delta := New(3, 0, nil) // holds the owner's log up to the filler
			ops, ver, full, _ := owner.SyncSince(0)
			delta.ApplySync(1, full, ops, ver, c.now)
			owner.InsertLocal(in, c.now)
			e, ok := owner.LookupLocal(key, c.now)
			check("LookupLocal", e, ok)
			e, ok = owner.Lookup(key, c.now)
			check("Lookup", e, ok)

			// A replica fed by a broadcast, one by a snapshot, one by a delta.
			peer := New(2, 0, nil)
			peer.ApplyInsert(Entry{Key: key, Owner: 1, Size: 1, Inserted: e.Inserted, Expires: e.Expires}, c.now)
			e, ok = peer.Lookup(key, c.now)
			check("ApplyInsert", e, ok)

			ops, ver, full, _ = owner.SyncSince(0)
			if !full {
				t.Fatal("SyncSince(0) is not a snapshot")
			}
			e, ok = findOp(ops, key)
			check("SyncSince full", e, ok)
			snap := New(2, 0, nil)
			snap.ApplySync(1, true, ops, ver, c.now)
			e, ok = snap.Lookup(key, c.now)
			check("ApplySync full", e, ok)

			ops, ver, full, _ = owner.SyncSince(delta.PeerVersion(1))
			if full {
				t.Fatal("SyncSince from the filler is a snapshot")
			}
			e, ok = findOp(ops, key)
			check("SyncSince delta", e, ok)
			delta.ApplySync(1, false, ops, ver, c.now)
			e, ok = delta.Lookup(key, c.now)
			check("ApplySync delta", e, ok)

			for _, p := range c.probes {
				for _, d := range []*Directory{owner, peer, snap, delta} {
					if _, ok := d.Lookup(key, p.at); ok != p.live {
						t.Errorf("node %d: Lookup at %v: found %v, want %v", d.Self(), p.at, ok, p.live)
					}
				}
			}
			last := c.probes[len(c.probes)-1]
			if expired := owner.ExpireLocal(last.at); (len(expired) == 1) == last.live {
				t.Errorf("ExpireLocal(%v) = %v, live %v", last.at, expired, last.live)
			}
			if n := peer.ExpireRemote(last.at); (n == 1) == last.live {
				t.Errorf("ExpireRemote(%v) dropped %d, live %v", last.at, n, last.live)
			}
		})
	}
}

func findOp(ops []SyncOp, key string) (Entry, bool) {
	for _, op := range ops {
		if op.Kind == Insert && op.Entry.Key == key {
			return op.Entry, true
		}
	}
	return Entry{}, false
}
