package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// PeerState is one peer's position in the failure detector's state machine.
//
// The paper's only failure handling is reactive: a fetch that times out is a
// false hit and falls back to local execution, so every request that maps to
// a dead peer's directory entries pays FetchTimeout before degrading. The
// health layer makes the degradation proactive: a heartbeat prober walks each
// peer through alive → suspect → dead on consecutive probe failures, and the
// dead transition is published to the server layer (Config.OnPeerState) so it
// can quarantine the peer's directory entries up front. Any successful probe
// snaps the peer straight back to alive.
type PeerState int32

// Peer states, in order of increasing distrust.
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// HealthConfig tunes the failure detector. The defaults are conservative — a
// peer must miss five consecutive probes (several seconds of silence) before
// it is declared dead — so transient scheduling hiccups never quarantine a
// healthy peer.
type HealthConfig struct {
	// Disable turns the failure detector off entirely: no probes are sent,
	// every peer reads as alive, and remote fetches fail only by timing out —
	// the paper's exact reactive semantics (swalad -health=false).
	Disable bool
	// ProbeInterval is the heartbeat period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s, clamped to
	// ProbeInterval so rounds never overlap).
	ProbeTimeout time.Duration
	// SuspectAfter is how many consecutive probe failures mark a peer
	// suspect (default 2). A torn-down link counts as an immediate
	// suspicion.
	SuspectAfter int
	// DeadAfter is how many consecutive probe failures declare a peer dead
	// (default 5).
	DeadAfter int
}

func (h *HealthConfig) setDefaults() {
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = time.Second
	}
	if h.ProbeTimeout <= 0 {
		h.ProbeTimeout = time.Second
	}
	if h.ProbeTimeout > h.ProbeInterval {
		h.ProbeTimeout = h.ProbeInterval
	}
	if h.SuspectAfter <= 0 {
		h.SuspectAfter = 2
	}
	if h.DeadAfter <= 0 {
		h.DeadAfter = 5
	}
	if h.DeadAfter < h.SuspectAfter {
		h.DeadAfter = h.SuspectAfter
	}
}

// PeerHealthInfo is a point-in-time view of one peer's detector state.
type PeerHealthInfo struct {
	Peer  uint32
	State PeerState
	// Fails is the current run of consecutive probe failures.
	Fails int
	// Since is when the peer entered its current state (zero when it has
	// never left alive).
	Since time.Time
	// LastErr is the most recent probe error ("" when the last probe
	// succeeded).
	LastErr string
}

// probeLoop is the heartbeat prober: every ProbeInterval it pings all known
// peers concurrently and feeds the outcomes to the state machine. It runs for
// the node's lifetime (started by Start, stopped by Close) unless health is
// disabled.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.Health.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			n.probePeers()
		}
	}
}

// probePeers runs one probe round over every peer record, waiting for every
// probe so rounds never pile up (ProbeTimeout <= ProbeInterval bounds the
// round). A ring member never reached has a record too (reconcileLinks), so
// it walks to dead and is evicted instead of keeping its keyspace forever.
func (n *Node) probePeers() {
	n.mu.Lock()
	ids := make([]uint32, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.mu.Unlock()

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Health.ProbeTimeout)
			err := n.Ping(ctx, id)
			cancel()
			n.recordProbe(id, err)
		}(id)
	}
	wg.Wait()
}

// recordProbe feeds one probe outcome into the peer's state machine and fires
// Config.OnPeerState on a transition, with n.mu held so transitions for one
// peer are delivered in order.
func (n *Node) recordProbe(id uint32, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[id]
	if p == nil {
		return // forgotten while the probe ran
	}
	h := &p.health
	old := h.State
	if err == nil {
		h.Fails = 0
		h.LastErr = ""
		h.State = PeerAlive
	} else {
		h.Fails++
		h.LastErr = err.Error()
		switch {
		case h.Fails >= n.cfg.Health.DeadAfter:
			h.State = PeerDead
		case h.Fails >= n.cfg.Health.SuspectAfter:
			h.State = PeerSuspect
		}
	}
	if h.State != old {
		h.Since = time.Now()
		n.logf("peer %d health: %v -> %v (fails=%d)", id, old, h.State, h.Fails)
		if n.cfg.OnPeerState != nil {
			n.cfg.OnPeerState(id, h.State)
		}
		if h.State == PeerDead && n.cfg.RingMode {
			// The detector is the membership authority in ring mode: a dead
			// peer is evicted from the ring so its keyspace reassigns.
			// Asynchronous because evictMember takes memMu and then n.mu via
			// link teardown.
			go n.evictMember(id)
		}
	}
}

// suspectLocked registers an immediate suspicion when p's link tears down:
// the peer jumps straight to suspect (not dead — a restart-in-progress peer
// should not be quarantined for one broken connection), and the failure run
// is advanced so DeadAfter-SuspectAfter further silent probes finish the job.
// Callers hold n.mu.
func (n *Node) suspectLocked(p *peer) {
	h := &p.health
	if n.cfg.Health.Disable || h.State != PeerAlive {
		return
	}
	h.Fails = max(h.Fails, n.cfg.Health.SuspectAfter)
	h.State = PeerSuspect
	h.Since = time.Now()
	h.LastErr = "link down"
	n.logf("peer %d health: alive -> suspect (link down)", p.id)
	if n.cfg.OnPeerState != nil {
		n.cfg.OnPeerState(p.id, PeerSuspect)
	}
}

// PeerState reports the detector's current verdict on peer. With health
// disabled (or an unknown peer) it is always PeerAlive.
func (n *Node) PeerState(peer uint32) PeerState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.peers[peer]; p != nil {
		return p.health.State
	}
	return PeerAlive
}

// PeerHealth snapshots the detector state for every known peer, sorted by
// peer ID. It is empty when health is disabled.
func (n *Node) PeerHealth() []PeerHealthInfo {
	if n.cfg.Health.Disable {
		return nil
	}
	n.mu.Lock()
	out := make([]PeerHealthInfo, 0, len(n.peers))
	for id, p := range n.peers {
		info := p.health
		info.Peer = id
		out = append(out, info)
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
