package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Per-peer health scoring and circuit breaking.
//
// The failure detector answers a binary question — is the peer responding
// to pings at all? — which misses gray failures: a peer that is
// alive but an order of magnitude slower (GC pause, disk stall, saturated
// NIC) keeps its full share of fetches and drags the cluster tail toward
// the straggler. The score tracks what the detector cannot see: observed
// fetch latency (a fast EWMA against a slow baseline) and failure rate.
// The breaker turns the score into an admission decision with the classic
// three states: closed (normal), open (fail fast, like quarantine for dead
// peers), half-open (admit a bounded number of probe fetches and close
// again only if they succeed at healthy latency).

// ScoreConfig tunes per-peer fetch scoring and the circuit breaker. The
// zero value disables both (the paper's behaviour).
type ScoreConfig struct {
	// Enable turns on per-peer latency/failure scoring. Scoring is cheap
	// (one update of the peer's record per fetch) and is required for the
	// hedging layer's dynamic p95 trigger even when the breaker itself is off.
	Enable bool
	// Breaker arms the circuit breaker on top of the score: fetches to a
	// tripped peer fail fast with ErrPeerTripped.
	Breaker bool
	// MinSamples is how many recorded fetches a peer needs before the
	// breaker may trip (default 8).
	MinSamples int
}

// Breaker thresholds, the same on every node. The breaker trips on an EWMA
// failure rate above breakerFailRate, or on a fast latency EWMA above
// breakerLatencyFactor times the slow baseline and at least
// breakerLatencyFloor (so jitter around a microsecond-scale baseline never
// opens it). Open, it rejects fetches for breakerOpenFor, then admits probe
// fetches one at a time: breakerHalfOpenProbes successes in a row close it, a
// failure reopens it.
const (
	breakerFailRate       = 0.5
	breakerLatencyFactor  = 8
	breakerLatencyFloor   = 5 * time.Millisecond
	breakerOpenFor        = 2 * time.Second
	breakerHalfOpenProbes = 3
)

// beyondEnvelope reports whether latency lat (seconds) is slow enough against
// the healthy baseline base to trip the breaker.
func beyondEnvelope(lat, base float64) bool {
	return base > 0 && lat >= breakerLatencyFloor.Seconds() && lat > breakerLatencyFactor*base
}

// ErrPeerTripped fails a fetch fast because the peer's circuit breaker is
// open. Callers treat it like ErrNoPeer: degrade to local execution.
var ErrPeerTripped = errors.New("cluster: peer breaker open")

// BreakerState is a peer breaker's admission state.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// EWMA smoothing factors. The fast constant reacts within a handful of
// fetches; the baseline drifts slowly and, because it only advances while
// the breaker is closed, remembers what "healthy" looked like.
const (
	scoreFastAlpha = 0.3
	scoreBaseAlpha = 0.05
	scoreFailAlpha = 0.2
	scoreWindow    = 64 // latency ring buffer for the p95 estimate
	scoreP95Min    = 8  // samples before PeerP95 reports
)

// fetchOutcome classifies a finished fetch for the score.
type fetchOutcome int

const (
	fetchOK fetchOutcome = iota
	fetchFailed
	// fetchNeutral is a fetch abandoned by the caller (hedge loser, client
	// disconnect): it says nothing about the peer, so it must not move the
	// score — a hedging requester would otherwise poison every peer it
	// races.
	fetchNeutral
)

// peerScore is one peer's fetch score and breaker state, held in its record.
type peerScore struct {
	samples  uint64
	fastLat  float64 // seconds, fast EWMA over successful fetch latencies
	baseLat  float64 // seconds, slow EWMA advanced only while closed
	failRate float64 // EWMA over {0,1} outcomes

	window [scoreWindow]float64 // recent successful latencies (seconds)
	wlen   int
	wpos   int

	state       BreakerState
	trippedAt   time.Time
	probeBusy   bool // a half-open probe fetch is in flight
	probeOK     int
	trips       uint64
	lastTripFor string
}

// PeerScoreInfo is a snapshot of one peer's score for stats reporting.
type PeerScoreInfo struct {
	Peer     uint32
	Samples  uint64
	Latency  time.Duration // fast EWMA
	Baseline time.Duration // slow EWMA (healthy reference)
	P95      time.Duration // 0 until enough samples
	FailRate float64
	State    BreakerState
	Trips    uint64
}

// admitFetch asks p's breaker whether a fetch to it may proceed. probe
// reports that the fetch was admitted as the half-open probe; the caller
// must hand probe back to settleFetch. An unarmed breaker never leaves
// closed: both returns are zero and every fetch proceeds. Callers hold n.mu.
func (n *Node) admitFetch(p *peer) (probe bool, err error) {
	s := &p.score
	switch s.state {
	case BreakerOpen:
		if time.Since(s.trippedAt) < breakerOpenFor {
			return false, fmt.Errorf("%w: %d (%s)", ErrPeerTripped, p.id, s.lastTripFor)
		}
		// Cool-down over: admit this fetch as the first half-open probe.
		s.state = BreakerHalfOpen
		s.probeOK = 0
		s.probeBusy = true
		return true, nil
	case BreakerHalfOpen:
		if s.probeBusy {
			return false, fmt.Errorf("%w: %d (probe in flight)", ErrPeerTripped, p.id)
		}
		s.probeBusy = true
		return true, nil
	}
	return false, nil
}

// settleFetch records a finished fetch against p's score and drives the
// breaker state machine. dur is the observed latency (meaningful for
// fetchOK only); probe is the value admitFetch returned.
func (n *Node) settleFetch(p *peer, probe bool, dur time.Duration, outcome fetchOutcome) {
	if !n.cfg.Score.Enable {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s := &p.score
	if probe {
		s.probeBusy = false
	}
	if outcome == fetchNeutral {
		return
	}
	s.samples++
	fail := 0.0
	if outcome == fetchFailed {
		fail = 1.0
	}
	if s.samples == 1 {
		s.failRate = fail
	} else {
		s.failRate += scoreFailAlpha * (fail - s.failRate)
	}
	if outcome == fetchOK {
		sec := dur.Seconds()
		if s.fastLat == 0 {
			s.fastLat = sec
		} else {
			s.fastLat += scoreFastAlpha * (sec - s.fastLat)
		}
		if s.state == BreakerClosed {
			// Samples beyond the trip envelope are evidence of the fault, not
			// of a new normal: they must not drag the baseline up, or a large
			// brownout would lift its own reference and never trip.
			if s.baseLat == 0 {
				s.baseLat = sec
			} else if !beyondEnvelope(sec, s.baseLat) {
				s.baseLat += scoreBaseAlpha * (sec - s.baseLat)
			}
		}
		s.window[s.wpos] = sec
		s.wpos = (s.wpos + 1) % scoreWindow
		if s.wlen < scoreWindow {
			s.wlen++
		}
	}
	if !n.cfg.Score.Breaker {
		return
	}
	switch s.state {
	case BreakerClosed:
		if s.samples < uint64(n.cfg.Score.MinSamples) {
			return
		}
		if s.failRate > breakerFailRate {
			n.tripLocked(p, fmt.Sprintf("failure rate %.2f", s.failRate))
			return
		}
		if beyondEnvelope(s.fastLat, s.baseLat) {
			n.tripLocked(p, fmt.Sprintf("latency %.1fms vs baseline %.1fms",
				s.fastLat*1e3, s.baseLat*1e3))
		}
	case BreakerHalfOpen:
		if !probe {
			// A non-probe fetch admitted before the trip finished late;
			// let probes alone decide.
			return
		}
		if outcome != fetchOK || beyondEnvelope(s.fastLat, s.baseLat) {
			n.tripLocked(p, "half-open probe failed")
			return
		}
		s.probeOK++
		if s.probeOK >= breakerHalfOpenProbes {
			// Recovered: forget the episode so the stale slow tail cannot
			// immediately re-trip or mis-trigger hedges.
			s.state = BreakerClosed
			s.failRate = 0
			s.fastLat = s.baseLat
			s.wlen, s.wpos = 0, 0
			n.logf("cluster %d: breaker for peer %d closed", n.cfg.NodeID, p.id)
		}
	case BreakerOpen:
		// A straggler from before the trip; the cool-down timer owns the
		// transition out of open.
	}
}

func (n *Node) tripLocked(p *peer, why string) {
	s := &p.score
	s.state = BreakerOpen
	s.trippedAt = time.Now()
	s.trips++
	s.probeBusy = false
	s.lastTripFor = why
	n.logf("cluster %d: breaker for peer %d opened (%s)", n.cfg.NodeID, p.id, why)
}

// PeerP95 estimates the 95th-percentile fetch latency observed for peer.
// ok is false until enough samples have been recorded (or scoring is off);
// the hedging layer then falls back to its static trigger.
func (n *Node) PeerP95(peer uint32) (p95 time.Duration, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peers[peer]
	if p == nil || p.score.wlen < scoreP95Min {
		return 0, false
	}
	return p95Locked(&p.score), true
}

func p95Locked(s *peerScore) time.Duration {
	var buf [scoreWindow]float64
	lat := buf[:s.wlen]
	copy(lat, s.window[:s.wlen])
	sort.Float64s(lat)
	idx := (len(lat)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return time.Duration(lat[idx] * float64(time.Second))
}

// PeerScores snapshots every known peer's score, sorted by peer ID.
func (n *Node) PeerScores() []PeerScoreInfo {
	if !n.cfg.Score.Enable {
		return nil
	}
	n.mu.Lock()
	out := make([]PeerScoreInfo, 0, len(n.peers))
	for id, p := range n.peers {
		s := &p.score
		info := PeerScoreInfo{
			Peer:     id,
			Samples:  s.samples,
			Latency:  time.Duration(s.fastLat * float64(time.Second)),
			Baseline: time.Duration(s.baseLat * float64(time.Second)),
			FailRate: s.failRate,
			State:    s.state,
			Trips:    s.trips,
		}
		if s.wlen >= scoreP95Min {
			info.P95 = p95Locked(s)
		}
		out = append(out, info)
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
