// Package inval implements versioned invalidation waves for dynamic
// content. The paper punts on writes — TTL expiry is its whole freshness
// story — so this layer adds the piece its Section 4.2 lists as future work:
// CGI programs declare read/write dependencies, a write originates an
// invalidation *wave* (origin node + monotonically increasing sequence +
// key pattern), and every node applies each wave exactly once.
//
// Waves ride the same per-link ordered queues as directory batches: the
// origin journals its own waves, a peer advertises the highest wave floor
// it has applied during the link handshake (DirSyncReq.WaveSeq), and
// anti-entropy sync replays whatever the peer missed — so a partitioned or
// reconnecting node converges instead of serving invalidated bodies
// forever.
//
// State also keeps a local monotonic apply-version and a bounded ring of
// recently applied waves. Fetch flights are stamped with the version at
// execution start; at store time Superseded reports whether a wave matching
// the key passed mid-flight, so a stale result started before a write can
// never be cached after the write's wave.
package inval

import (
	"sync"

	"repro/internal/cacheability"
)

// Wave is one versioned invalidation: Origin's Seq-th wave drops every
// cached entry whose key matches Pattern ('*' wildcards, cacheability.Match
// semantics).
type Wave struct {
	Origin  uint32
	Seq     uint64
	Pattern string
}

// journalLimit bounds how many of its own waves a node retains for
// anti-entropy replay. A peer further behind than the journal reaches gets
// a synthetic full wave (Pattern "*") instead — coarse but safe.
const journalLimit = 1024

// recentLimit bounds the ring of recently applied waves kept for
// Superseded checks. A flight older than the ring's horizon is presumed
// superseded — conservative: the result is discarded, never served stale.
const recentLimit = 512

// sparseLimit bounds the per-origin set of out-of-order applied sequences
// kept above the contiguous floor. Gaps heal via sync within moments; the
// bound only guards against a peer that never fills them.
const sparseLimit = 1024

type appliedWave struct {
	ver     uint64
	pattern string
}

type originState struct {
	// floor is the highest sequence such that every wave <= floor from this
	// origin has been applied.
	floor uint64
	// sparse holds applied sequences above floor (out-of-order arrivals).
	sparse map[uint64]bool
}

// State tracks one node's view of the wave space: its own wave journal, the
// per-origin applied floors, and the local apply-version used to stamp
// fetch flights. All methods are safe for concurrent use.
type State struct {
	self uint32

	mu      sync.Mutex
	seq     uint64 // own wave sequence (last issued)
	journal []Wave // own waves, contiguous, bounded by journalLimit
	origins map[uint32]*originState
	// applyVer increments on every locally applied wave; recent remembers
	// the last recentLimit applications for Superseded.
	applyVer uint64
	recent   []appliedWave
	// oldestVer is the apply-version of recent[0]; flights stamped before
	// it cannot be proven fresh and are treated as superseded.
	oldestVer uint64
}

// NewState returns wave state for the node with the given ID.
func NewState(self uint32) *State {
	return &State{self: self, origins: make(map[uint32]*originState), oldestVer: 1}
}

// Self returns the owning node's ID.
func (s *State) Self() uint32 { return s.self }

// Next issues the node's next own wave for pattern and journals it.
func (s *State) Next(pattern string) Wave {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	w := Wave{Origin: s.self, Seq: s.seq, Pattern: pattern}
	s.journal = append(s.journal, w)
	if len(s.journal) > journalLimit {
		s.journal = append(s.journal[:0:0], s.journal[len(s.journal)-journalLimit:]...)
	}
	return w
}

// Seq returns the node's own current wave sequence.
func (s *State) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// AdoptSeq raises the node's own sequence to at least min. A restarted node
// resumes numbering above what its peers already applied, so its new waves
// are not mistaken for replays.
func (s *State) AdoptSeq(min uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if min > s.seq {
		s.seq = min
		// Journal entries below the adopted point never existed in this
		// incarnation; the journal stays as-is (it is already contiguous and
		// below min only if empty or from this run, which AdoptSeq precedes).
	}
}

// Mark records a remote wave as applied and reports whether the caller
// should apply its pattern: true exactly once per (Origin, Seq), in any
// arrival order. The exception is a wave that arrives while sparseLimit
// waves above the floor are already outstanding: it is applied unrecorded,
// so Mark returns true for it again until the floor passes it.
func (s *State) Mark(w Wave) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.origins[w.Origin]
	if o == nil {
		o = &originState{}
		s.origins[w.Origin] = o
	}
	if w.Seq <= o.floor || o.sparse[w.Seq] {
		return false
	}
	if w.Seq == o.floor+1 {
		o.floor++
		for o.sparse[o.floor+1] {
			delete(o.sparse, o.floor+1)
			o.floor++
		}
		return true
	}
	if o.sparse == nil {
		o.sparse = make(map[uint64]bool)
	}
	if len(o.sparse) >= sparseLimit {
		// Pathological gap: apply the wave without recording it. The floor
		// stays below the gap, so sync still re-offers every wave in it, and
		// this one re-applies then — extra misses, never staleness.
		return true
	}
	o.sparse[w.Seq] = true
	return true
}

// AdvanceFloor force-advances an origin's applied floor after a sync batch.
// A sync replay is contiguous from the sender's side (it ships everything
// it has above the receiver's floor, prefixed by a synthetic full wave when
// its journal no longer reaches back far enough), so the receiver may jump
// its floor to the batch's last sequence.
func (s *State) AdvanceFloor(origin uint32, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.origins[origin]
	if o == nil {
		o = &originState{}
		s.origins[origin] = o
	}
	if seq > o.floor {
		o.floor = seq
		for k := range o.sparse {
			if k <= o.floor {
				delete(o.sparse, k)
			}
		}
	}
}

// Floor returns the contiguous applied floor for origin — the WaveSeq to
// advertise in a DirSyncReq toward that origin.
func (s *State) Floor(origin uint32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.origins[origin]; o != nil {
		return o.floor
	}
	return 0
}

// Missed returns the node's own waves a peer whose applied floor is since
// still needs, in sequence order. When the journal no longer reaches back
// to since+1, the replay starts with a synthetic full wave (Pattern "*") so
// the peer drops everything it cannot prove fresh.
func (s *State) Missed(since uint64) []Wave {
	s.mu.Lock()
	defer s.mu.Unlock()
	if since >= s.seq {
		return nil
	}
	var out []Wave
	start := uint64(1)
	if n := len(s.journal); n > 0 {
		start = s.journal[0].Seq
	} else if s.seq > 0 {
		// Own waves exist (adopted or pre-restart) but none are journaled:
		// everything the peer is missing is unreplayable.
		return []Wave{{Origin: s.self, Seq: s.seq, Pattern: "*"}}
	}
	if since+1 < start {
		out = append(out, Wave{Origin: s.self, Seq: start - 1, Pattern: "*"})
	}
	for _, w := range s.journal {
		if w.Seq > since {
			out = append(out, w)
		}
	}
	return out
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
