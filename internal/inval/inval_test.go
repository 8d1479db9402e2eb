package inval

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cacheability"
)

func TestMarkExactlyOncePerWave(t *testing.T) {
	s := NewState(1)
	w := Wave{Origin: 2, Seq: 1, Pattern: "GET /a*"}
	if !s.Mark(w) {
		t.Fatal("first Mark = false")
	}
	if s.Mark(w) {
		t.Fatal("duplicate Mark = true")
	}
	if got := s.Floor(2); got != 1 {
		t.Fatalf("Floor = %d, want 1", got)
	}
}

func TestMarkOutOfOrderCollapsesFloor(t *testing.T) {
	s := NewState(1)
	// Arrivals 3, 1, 2: each applies once, floor ends at 3.
	for _, seq := range []uint64{3, 1, 2} {
		if !s.Mark(Wave{Origin: 9, Seq: seq, Pattern: "*"}) {
			t.Fatalf("Mark(seq=%d) = false", seq)
		}
	}
	if got := s.Floor(9); got != 3 {
		t.Fatalf("Floor = %d, want 3", got)
	}
	if s.Mark(Wave{Origin: 9, Seq: 2, Pattern: "*"}) {
		t.Fatal("replay below floor applied")
	}
}

// Regression: a wave arriving with the sparse set full used to collapse the
// floor to its own sequence, so every wave in the gap below it was refused
// from then on and sync, asked to replay only above that floor, never
// offered them again.
func TestMarkGapSurvivesSparseOverflow(t *testing.T) {
	s := NewState(1)
	last := uint64(sparseLimit + 2)
	for seq := uint64(2); seq <= last; seq++ {
		if !s.Mark(Wave{Origin: 9, Seq: seq, Pattern: "*"}) {
			t.Fatalf("Mark(seq=%d) = false", seq)
		}
	}
	if got := s.Floor(9); got != 0 {
		t.Fatalf("Floor = %d with wave 1 missing, want 0", got)
	}
	if !s.Mark(Wave{Origin: 9, Seq: 1, Pattern: "*"}) {
		t.Fatal("gap wave 1 refused after the sparse set overflowed")
	}
	// Wave last arrived over a full sparse set, unrecorded: the floor stops
	// below it, and its re-offer applies it again.
	if got := s.Floor(9); got != last-1 {
		t.Fatalf("Floor = %d, want %d", got, last-1)
	}
	if !s.Mark(Wave{Origin: 9, Seq: last, Pattern: "*"}) {
		t.Fatalf("re-offered unrecorded wave %d refused", last)
	}
	if got := s.Floor(9); got != last {
		t.Fatalf("Floor = %d, want %d", got, last)
	}
}

// markSeeds is how many seeds TestMarkModel runs; CI raises it.
var markSeeds = flag.Int("mark-seeds", 3, "seeds TestMarkModel runs (1..n)")

// TestMarkModel streams one origin's waves to a receiver that drops,
// duplicates and reorders them, with sync rounds in between that Mark every
// wave above the receiver's floor and then advance it. After a final sync
// every wave must have been applied, and a wave first applied while fewer
// than sparseLimit waves were outstanding must never apply again.
func TestMarkModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*markSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { markModel(t, seed) })
	}
}

func markModel(t *testing.T, seed int64) {
	const origin = 2
	rng := rand.New(rand.NewSource(seed))
	n := 3*sparseLimit + rng.Intn(sparseLimit)
	// An event at time at delivers wave seq, or with sync set runs a sync
	// round covering every wave issued by then (wave q is issued at time q).
	type event struct {
		at   int
		seq  uint64
		sync bool
	}
	var events []event
	window := 1 + rng.Intn(64) // how late a delivery may land
	for q := 1; q <= n; q++ {
		if rng.Intn(100) < 2 {
			continue // dropped
		}
		copies := 1
		if rng.Intn(100) < 5 {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			events = append(events, event{at: q + rng.Intn(window), seq: uint64(q)})
		}
	}
	// Gaps up to twice sparseLimit, so some rounds start with the sparse set
	// full and others well short of it.
	for at := 1 + rng.Intn(2*sparseLimit); at < n; at += 1 + rng.Intn(2*sparseLimit) {
		events = append(events, event{at: at, sync: true})
	}
	events = append(events, event{at: n + window, sync: true})
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	s := NewState(1)
	applied := make([]int, n+1) // applications per sequence
	exact := make([]bool, n+1)  // first applied with fewer than sparseLimit outstanding
	floor, outstanding := uint64(0), 0
	observeFloor := func() {
		for f := s.Floor(origin); floor < f; {
			floor++
			if applied[floor] > 0 {
				outstanding--
			}
		}
	}
	mark := func(seq uint64) {
		if s.Mark(Wave{Origin: origin, Seq: seq, Pattern: fmt.Sprintf("GET /k%d*", seq)}) {
			if exact[seq] {
				t.Fatalf("wave %d applied twice", seq)
			}
			if applied[seq] == 0 {
				exact[seq] = outstanding < sparseLimit
				if seq > floor {
					outstanding++
				}
			}
			applied[seq]++
		}
		observeFloor()
	}
	for _, e := range events {
		if !e.sync {
			mark(e.seq)
			continue
		}
		last := uint64(min(e.at, n))
		for seq := s.Floor(origin) + 1; seq <= last; seq++ {
			mark(seq)
		}
		s.AdvanceFloor(origin, last)
		observeFloor()
	}
	for q := 1; q <= n; q++ {
		if applied[q] == 0 {
			t.Fatalf("wave %d of %d never applied", q, n)
		}
	}
	if got := s.Floor(origin); got != uint64(n) {
		t.Fatalf("Floor = %d after the final sync, want %d", got, n)
	}
}

func TestNextAndMissedReplay(t *testing.T) {
	s := NewState(4)
	for i := 0; i < 5; i++ {
		w := s.Next(fmt.Sprintf("GET /k%d*", i))
		if w.Origin != 4 || w.Seq != uint64(i+1) {
			t.Fatalf("Next #%d = %+v", i, w)
		}
	}
	missed := s.Missed(2)
	if len(missed) != 3 || missed[0].Seq != 3 || missed[2].Seq != 5 {
		t.Fatalf("Missed(2) = %+v", missed)
	}
	if got := s.Missed(5); got != nil {
		t.Fatalf("Missed(5) = %+v, want nil", got)
	}
}

func TestMissedBeyondJournalSendsFullWave(t *testing.T) {
	s := NewState(4)
	for i := 0; i < journalLimit+10; i++ {
		s.Next("GET /k*")
	}
	missed := s.Missed(0)
	if len(missed) != journalLimit+1 {
		t.Fatalf("len(Missed) = %d, want %d", len(missed), journalLimit+1)
	}
	if missed[0].Pattern != "*" {
		t.Fatalf("replay beyond journal did not start with a full wave: %+v", missed[0])
	}
	if missed[0].Seq+1 != missed[1].Seq {
		t.Fatalf("synthetic wave seq %d not contiguous with journal start %d",
			missed[0].Seq, missed[1].Seq)
	}
}

func TestAdoptSeqResumesAbovePeers(t *testing.T) {
	s := NewState(4)
	s.AdoptSeq(100)
	if w := s.Next("GET /a*"); w.Seq != 101 {
		t.Fatalf("Next after AdoptSeq = seq %d, want 101", w.Seq)
	}
	// A peer at floor 100 gets only the new wave; one at floor 0 gets a
	// full wave covering the unreplayable pre-restart range.
	if missed := s.Missed(100); len(missed) != 1 || missed[0].Seq != 101 {
		t.Fatalf("Missed(100) = %+v", missed)
	}
	missed := s.Missed(0)
	if len(missed) != 2 || missed[0].Pattern != "*" || missed[0].Seq != 100 {
		t.Fatalf("Missed(0) = %+v", missed)
	}
}

func TestSupersededMatchesMidFlightWave(t *testing.T) {
	s := NewState(1)
	before := s.Version()
	s.NoteApplied("GET /cgi-bin/rwread*")
	if !s.Superseded("GET /cgi-bin/rwread?q=1", before) {
		t.Fatal("flight started before a matching wave not superseded")
	}
	if s.Superseded("GET /cgi-bin/other?q=1", before) {
		t.Fatal("non-matching key superseded")
	}
	if s.Superseded("GET /cgi-bin/rwread?q=1", s.Version()) {
		t.Fatal("flight started after the wave superseded")
	}
}

func TestSupersededConservativeBeyondHorizon(t *testing.T) {
	s := NewState(1)
	for i := 0; i < recentLimit+5; i++ {
		s.NoteApplied("GET /narrow-pattern-that-matches-nothing")
	}
	// Version 0 predates the retained ring: must be presumed superseded.
	if !s.Superseded("GET /anything", 0) {
		t.Fatal("flight older than the ring horizon not superseded")
	}
}

func TestAdvanceFloorAfterSyncBatch(t *testing.T) {
	s := NewState(1)
	s.Mark(Wave{Origin: 7, Seq: 5, Pattern: "*"}) // out of order: floor stays 0
	if got := s.Floor(7); got != 0 {
		t.Fatalf("Floor = %d, want 0 before sync", got)
	}
	s.AdvanceFloor(7, 5)
	if got := s.Floor(7); got != 5 {
		t.Fatalf("Floor = %d, want 5 after sync", got)
	}
	if s.Mark(Wave{Origin: 7, Seq: 4, Pattern: "*"}) {
		t.Fatal("wave below advanced floor applied")
	}
}

func TestKeyPattern(t *testing.T) {
	p := KeyPattern("/cgi-bin/rwread")
	for _, key := range []string{
		"GET /cgi-bin/rwread?q=row0001&cost=5",
		"GET /cgi-bin/rwread",
	} {
		if !cacheability.Match(p, key) {
			t.Fatalf("KeyPattern %q does not match %q", p, key)
		}
	}
	if cacheability.Match(p, "GET /cgi-bin/other?q=1") {
		t.Fatalf("KeyPattern %q matches unrelated key", p)
	}
}
