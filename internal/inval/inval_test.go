package inval

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cacheability"
)

func TestSupersededMatchesMidFlightWave(t *testing.T) {
	s := NewState()
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
	s := NewState()
	for i := 0; i < recentLimit+5; i++ {
		s.NoteApplied("GET /narrow-pattern-that-matches-nothing")
	}
	// Version 0 predates the retained ring: must be presumed superseded.
	if !s.Superseded("GET /anything", 0) {
		t.Fatal("flight older than the ring horizon not superseded")
	}
}

// markSeeds is how many seeds TestMarkModel runs; CI raises it.
var markSeeds = flag.Int("mark-seeds", 3, "seeds TestMarkModel runs (1..n)")

// TestMarkModel marks a random stream of applied waves (program patterns,
// with a rare "*") with NoteApplied while fetch flights are stamped
// with Version and checked with Superseded at random later points. Against
// a log of every wave applied, a flight must be superseded whenever a wave
// matching its key was marked after its stamp; within the ring's reach the
// answer must be exact, and beyond it the flight is presumed superseded.
// About half the seeds mark more than recentLimit waves, so the ring wraps;
// from then on each check also probes the stamps at the ring's edge.
func TestMarkModel(t *testing.T) {
	for seed := int64(1); seed <= int64(*markSeeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { markModel(t, seed) })
	}
}

func markModel(t *testing.T, seed int64) {
	const programs = 8
	rng := rand.New(rand.NewSource(seed))
	n := recentLimit/2 + rng.Intn(2*recentLimit) // waves to mark
	s := NewState()
	var marked []string // marked[v-1] is the pattern applied at version v
	type flight struct {
		key   string
		since uint64
	}
	var flights []flight
	check := func(f flight) {
		ver := uint64(len(marked))
		want := false
		for v := f.since + 1; v <= ver; v++ {
			if cacheability.Match(marked[v-1], f.key) {
				want = true
				break
			}
		}
		got := s.Superseded(f.key, f.since)
		if want && !got {
			t.Fatalf("flight %q stamped %d not superseded at %d, though a matching wave was marked after it", f.key, f.since, ver)
		}
		if f.since+recentLimit >= ver && got != want {
			t.Fatalf("flight %q stamped %d within the ring at %d: superseded=%v, want %v", f.key, f.since, ver, got, want)
		}
		if f.since+recentLimit < ver && !got {
			t.Fatalf("flight %q stamped %d beyond the ring at %d not presumed superseded", f.key, f.since, ver)
		}
	}
	for len(marked) < n {
		switch r := rng.Intn(100); {
		case r < 40:
			pattern := KeyPattern(fmt.Sprintf("/cgi-bin/p%d", rng.Intn(programs)))
			if rng.Intn(1000) == 0 { // rare enough that the ring often holds none
				pattern = "*"
			}
			marked = append(marked, pattern)
			if v := s.NoteApplied(pattern); v != uint64(len(marked)) {
				t.Fatalf("NoteApplied returned %d, want %d", v, len(marked))
			}
		case r < 70:
			if v := s.Version(); v != uint64(len(marked)) {
				t.Fatalf("Version = %d, want %d", v, len(marked))
			}
			flights = append(flights, flight{
				key:   fmt.Sprintf("GET /cgi-bin/p%d?q=%d", rng.Intn(programs), rng.Intn(100)),
				since: s.Version(),
			})
		default:
			if len(flights) == 0 {
				continue
			}
			i := rng.Intn(len(flights))
			check(flights[i])
			// Probe the ring's edge too: the oldest stamp it still
			// answers exactly, and the first one it must presume, with a
			// key only "*" matches, so the ring alone cannot save it.
			if ver := uint64(len(marked)); ver > recentLimit {
				for since := ver - recentLimit - 1; since <= ver-recentLimit; since++ {
					check(flight{key: "GET /cgi-bin/none", since: since})
				}
			}
			flights[i] = flights[len(flights)-1] // a flight stores once
			flights = flights[:len(flights)-1]
		}
	}
	for _, f := range flights {
		check(f)
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
