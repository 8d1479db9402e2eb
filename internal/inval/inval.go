// Package inval keeps what a node needs to apply invalidation waves safely
// while fetches are in flight. The paper punts on writes — TTL expiry is its
// whole freshness story — so this layer adds the piece its Section 4.2 lists
// as future work: CGI programs declare read/write dependencies, and a write
// originates an invalidation wave (a key pattern) that every node applies
// once. The waves themselves travel as records of the origin node's
// directory log (package directory), which numbers them, replays them to a
// peer that missed them, and applies each exactly once.
//
// State keeps a local monotonic apply-version and a bounded ring of recently
// applied waves. Fetch flights are stamped with the version at execution
// start; at store time Superseded reports whether a wave matching the key
// passed mid-flight, so a stale result started before a write can never be
// cached after the write's wave.
package inval

import (
	"sync"

	"repro/internal/cacheability"
)

// recentLimit bounds the ring of recently applied waves kept for
// Superseded checks. A flight older than the ring's horizon is presumed
// superseded — conservative: the result is discarded, never served stale.
const recentLimit = 512

type appliedWave struct {
	ver     uint64
	pattern string
}

// State tracks the local apply-version used to stamp fetch flights and the
// waves recently applied. All methods are safe for concurrent use.
type State struct {
	mu sync.Mutex
	// applyVer increments on every locally applied wave; recent remembers
	// the last recentLimit applications for Superseded.
	applyVer uint64
	recent   []appliedWave
	// oldestVer is the apply-version of recent[0]; flights stamped before
	// it cannot be proven fresh and are treated as superseded.
	oldestVer uint64
}

// NewState returns an empty wave state.
func NewState() *State {
	return &State{oldestVer: 1}
}

// NoteApplied records that a wave's pattern was applied locally and returns
// the new apply-version.
func (s *State) NoteApplied(pattern string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyVer++
	s.recent = append(s.recent, appliedWave{ver: s.applyVer, pattern: pattern})
	if len(s.recent) > recentLimit {
		s.recent = append(s.recent[:0:0], s.recent[len(s.recent)-recentLimit:]...)
	}
	s.oldestVer = s.recent[0].ver
	return s.applyVer
}

// Version returns the current local apply-version. Fetch flights capture it
// before executing and pass it to Superseded at store time.
func (s *State) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyVer
}

// Superseded reports whether any wave applied after version since matches
// key — i.e. whether a result whose execution started at since is already
// invalid and must not be stored. Flights older than the retained ring are
// conservatively superseded.
func (s *State) Superseded(key string, since uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since >= s.applyVer {
		return false
	}
	if since+1 < s.oldestVer {
		return true
	}
	for i := len(s.recent) - 1; i >= 0; i-- {
		w := s.recent[i]
		if w.ver <= since {
			break
		}
		if cacheability.Match(w.pattern, key) {
			return true
		}
	}
	return false
}

// KeyPattern returns the cache-key pattern covering every cached result of
// the CGI program mounted at path — any method, any query string.
func KeyPattern(path string) string { return "* " + path + "*" }
