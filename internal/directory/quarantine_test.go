package directory

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestQuarantineSkipsLookup(t *testing.T) {
	d := New(1, 0, nil)
	d.ApplyInsert(entry("GET /r", 2), t0)

	if _, ok := d.Lookup("GET /r", t0); !ok {
		t.Fatal("remote entry not found before quarantine")
	}
	d.SetQuarantined(2, true)
	if _, ok := d.Lookup("GET /r", t0); ok {
		t.Fatal("quarantined node's entry still visible to Lookup")
	}
	// The entry is hidden, not deleted: lifting the quarantine restores it.
	d.SetQuarantined(2, false)
	if _, ok := d.Lookup("GET /r", t0); !ok {
		t.Fatal("entry lost after quarantine lift")
	}
}

func TestQuarantineNeverHidesLocal(t *testing.T) {
	d := New(1, 0, nil)
	d.InsertLocal(entry("GET /l", 1), t0)
	d.SetQuarantined(1, true) // must be ignored
	if _, ok := d.Lookup("GET /l", t0); !ok {
		t.Fatal("local table quarantined")
	}
	if d.IsQuarantined(1) {
		t.Fatal("self marked quarantined")
	}
}

func TestQuarantineUpdatesStillApply(t *testing.T) {
	d := New(1, 0, nil)
	d.SetQuarantined(2, true)

	// Broadcast updates and syncs keep applying while quarantined, so the
	// replica is already converged when the quarantine lifts.
	d.ApplyInsert(entry("GET /during", 2), t0)
	d.ApplySync(2, false, []SyncOp{{Entry: entry("GET /synced", 2)}}, 1, t0)

	if _, ok := d.Lookup("GET /during", t0); ok {
		t.Fatal("quarantined entry visible")
	}
	d.SetQuarantined(2, false)
	if _, ok := d.Lookup("GET /during", t0); !ok {
		t.Fatal("update applied during quarantine lost")
	}
	if _, ok := d.Lookup("GET /synced", t0); !ok {
		t.Fatal("sync applied during quarantine lost")
	}
	if got := d.PeerVersion(2); got != 1 {
		t.Fatalf("peer version = %d, want 1 (sync must advance it during quarantine)", got)
	}
}

func TestQuarantineIdempotentAndListed(t *testing.T) {
	d := New(1, 0, nil)
	d.SetQuarantined(3, true)
	d.SetQuarantined(3, true) // repeat must not double-count
	d.SetQuarantined(2, true)
	if got := d.Quarantined(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Quarantined() = %v, want [2 3]", got)
	}
	d.SetQuarantined(3, false)
	d.SetQuarantined(3, false)
	if got := d.Quarantined(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Quarantined() = %v, want [2]", got)
	}
	d.SetQuarantined(2, false)
	if d.quarCount.Load() != 0 {
		t.Fatalf("quarCount = %d after all lifts, want 0", d.quarCount.Load())
	}
}

func TestDropPeerClearsQuarantine(t *testing.T) {
	d := New(1, 0, nil)
	d.ApplyInsert(entry("GET /r", 2), t0)
	d.SetQuarantined(2, true)
	d.DropPeer(2)
	if d.IsQuarantined(2) {
		t.Fatal("DropPeer left the node quarantined")
	}
	// A fresh entry from a rejoined peer 2 must be visible again.
	d.ApplyInsert(entry("GET /back", 2), t0)
	if _, ok := d.Lookup("GET /back", t0); !ok {
		t.Fatal("entry from re-added peer hidden by stale quarantine")
	}
}

// TestDropPeerRacesApplySync hammers DropPeer against ApplySync (and reads)
// for the same peer; run under -race this guards the quarantine and table
// bookkeeping against torn state.
func TestDropPeerRacesApplySync(t *testing.T) {
	d := New(1, 0, nil)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ops := []SyncOp{
				{Entry: entry(fmt.Sprintf("GET /s%d", i), 2)},
				{Kind: Delete, Entry: entry(fmt.Sprintf("GET /s%d", i-1), 2)},
			}
			d.ApplySync(2, i%10 == 0, ops, uint64(i+1), t0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			d.SetQuarantined(2, i%2 == 0)
			d.DropPeer(2)
		}
	}()
	go func() {
		defer wg.Done()
		now := t0
		for i := 0; i < rounds; i++ {
			d.Lookup(fmt.Sprintf("GET /s%d", i), now)
			d.IsQuarantined(2)
			d.Quarantined()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			d.ApplyInsert(entry(fmt.Sprintf("GET /i%d", i), 2), t0.Add(time.Duration(i)))
			d.PeerVersion(2)
		}
	}()
	wg.Wait()
	// Whatever interleaving happened, the quarantine bookkeeping must be
	// consistent: DropPeer ran last in its goroutine, but another goroutine
	// may have re-quarantined — the count must match the set either way.
	want := int32(len(d.Quarantined()))
	if got := d.quarCount.Load(); got != want {
		t.Fatalf("quarCount = %d, but %d node(s) quarantined", got, want)
	}
}
