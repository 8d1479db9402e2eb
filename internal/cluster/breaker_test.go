package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netx"
)

// scoreNode builds a node with scoring armed but no transport started, and
// the record of its peer 2: the breaker state machine is exercised directly
// through admit and settleFetch.
func scoreNode(t *testing.T, cfg ScoreConfig) (*Node, *peer) {
	t.Helper()
	cfg.Enable = true
	return recordNode(Config{NodeID: 1, Network: netx.NewMem(), Score: cfg})
}

func recordNode(cfg Config) (*Node, *peer) {
	n := NewNode(cfg, NopHandler{})
	n.mu.Lock()
	defer n.mu.Unlock()
	return n, n.peerLocked(2)
}

// coolDown ages p's trip by breakerOpenFor, as if the open time had passed.
func coolDown(n *Node, p *peer) {
	n.mu.Lock()
	p.score.trippedAt = p.score.trippedAt.Add(-breakerOpenFor)
	n.mu.Unlock()
}

// admit is admitFetch under n.mu, as FetchRing calls it.
func admit(n *Node, p *peer) (probe bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.admitFetch(p)
}

func TestScoreDisabledByDefault(t *testing.T) {
	n, p := recordNode(Config{NodeID: 1, Network: netx.NewMem()})
	if probe, err := admit(n, p); probe || err != nil {
		t.Fatalf("admitFetch with scoring off = %v, %v", probe, err)
	}
	n.settleFetch(p, false, time.Millisecond, fetchFailed)
	if _, ok := n.PeerP95(2); ok {
		t.Fatal("PeerP95 reported with scoring off")
	}
	if n.PeerScores() != nil {
		t.Fatal("PeerScores non-nil with scoring off")
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	for i := 0; i < 8; i++ {
		probe, err := admit(n, p)
		if err != nil {
			break
		}
		n.settleFetch(p, probe, 0, fetchFailed)
	}
	if _, err := admit(n, p); !errors.Is(err, ErrPeerTripped) {
		t.Fatalf("admitFetch after failure burst = %v, want ErrPeerTripped", err)
	}
	scores := n.PeerScores()
	if len(scores) != 1 || scores[0].State != BreakerOpen || scores[0].Trips != 1 {
		t.Fatalf("scores = %+v, want one open breaker with 1 trip", scores)
	}
}

func TestBreakerLatencyTripAgainstBaseline(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	// Establish a healthy 1ms baseline...
	for i := 0; i < 20; i++ {
		probe, _ := admit(n, p)
		n.settleFetch(p, probe, time.Millisecond, fetchOK)
	}
	// ...then brown out to 200ms. The fast EWMA crosses 8x baseline within a
	// few samples while the baseline (slow EWMA) barely moves.
	tripped := false
	for i := 0; i < 20; i++ {
		probe, err := admit(n, p)
		if errors.Is(err, ErrPeerTripped) {
			tripped = true
			break
		}
		n.settleFetch(p, probe, 200*time.Millisecond, fetchOK)
	}
	if !tripped {
		t.Fatal("latency brownout never tripped the breaker")
	}
}

func TestBreakerLatencyFloorSuppressesMicroJitter(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	// 20us baseline, 400us "brownout": 20x the baseline but under the floor.
	for i := 0; i < 20; i++ {
		probe, _ := admit(n, p)
		n.settleFetch(p, probe, 20*time.Microsecond, fetchOK)
	}
	for i := 0; i < 20; i++ {
		probe, err := admit(n, p)
		if errors.Is(err, ErrPeerTripped) {
			t.Fatal("breaker tripped on sub-floor latencies")
		}
		n.settleFetch(p, probe, 400*time.Microsecond, fetchOK)
	}
}

func TestNeutralOutcomeDoesNotMoveScore(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	for i := 0; i < 50; i++ {
		probe, err := admit(n, p)
		if err != nil {
			t.Fatalf("admitFetch %d: %v", i, err)
		}
		// A hedge loser's cancellation must not look like a peer failure.
		n.settleFetch(p, probe, 0, fetchNeutral)
	}
	scores := n.PeerScores()
	if len(scores) != 1 || scores[0].Samples != 0 || scores[0].State != BreakerClosed {
		t.Fatalf("scores after neutral settles = %+v, want zero samples, closed", scores)
	}
}

func tripPeer(t *testing.T, n *Node, p *peer) {
	t.Helper()
	for i := 0; i < 20; i++ {
		probe, err := admit(n, p)
		if errors.Is(err, ErrPeerTripped) {
			return
		}
		n.settleFetch(p, probe, 0, fetchFailed)
	}
	t.Fatal("failure burst never tripped the breaker")
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	tripPeer(t, n, p)
	coolDown(n, p)

	for i := 0; i < breakerHalfOpenProbes; i++ {
		probe, err := admit(n, p)
		if err != nil || !probe {
			t.Fatalf("probe %d: probe=%v err=%v, want admitted probe", i, probe, err)
		}
		// Only one probe at a time while the first is in flight.
		if _, err := admit(n, p); !errors.Is(err, ErrPeerTripped) {
			t.Fatalf("second concurrent probe admitted: %v", err)
		}
		n.settleFetch(p, probe, time.Millisecond, fetchOK)
	}
	scores := n.PeerScores()
	if len(scores) != 1 || scores[0].State != BreakerClosed {
		t.Fatalf("scores after successful probes = %+v, want closed", scores)
	}
	if scores[0].FailRate != 0 {
		t.Fatalf("failure rate %v survived recovery, want reset", scores[0].FailRate)
	}
	if probe, err := admit(n, p); probe || err != nil {
		t.Fatalf("post-recovery admit = %v, %v", probe, err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{Breaker: true, MinSamples: 4})
	tripPeer(t, n, p)
	coolDown(n, p)

	probe, err := admit(n, p)
	if err != nil || !probe {
		t.Fatalf("probe after cool-down: probe=%v err=%v", probe, err)
	}
	n.settleFetch(p, probe, 0, fetchFailed)
	if _, err := admit(n, p); !errors.Is(err, ErrPeerTripped) {
		t.Fatalf("admit after failed probe = %v, want ErrPeerTripped", err)
	}
	scores := n.PeerScores()
	if len(scores) != 1 || scores[0].State != BreakerOpen || scores[0].Trips != 2 {
		t.Fatalf("scores = %+v, want reopened breaker with 2 trips", scores)
	}
}

func TestPeerP95NeedsSamples(t *testing.T) {
	n, p := scoreNode(t, ScoreConfig{})
	for i := 0; i < scoreP95Min-1; i++ {
		n.settleFetch(p, false, time.Millisecond, fetchOK)
	}
	if _, ok := n.PeerP95(2); ok {
		t.Fatal("PeerP95 reported below the sample minimum")
	}
	n.settleFetch(p, false, 100*time.Millisecond, fetchOK)
	p95, ok := n.PeerP95(2)
	if !ok {
		t.Fatal("PeerP95 missing at the sample minimum")
	}
	// 7x 1ms + 1x 100ms: the p95 must sit at the slow tail, not the median.
	if p95 < 50*time.Millisecond {
		t.Fatalf("p95 = %v, want the 100ms tail sample", p95)
	}
}

// TestBreakerUnderConcurrentFetches drives FetchRing from many goroutines
// against a peer that is gone, with the breaker armed: transitions must be
// race-free and the breaker must settle open, converting timeouts into fast
// ErrPeerTripped failures.
func TestBreakerUnderConcurrentFetches(t *testing.T) {
	mem := netx.NewMem()
	score := ScoreConfig{Enable: true, Breaker: true, MinSamples: 4}
	a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 50 * time.Millisecond, Score: score}, NopHandler{})
	if err := a.Start("brk-a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
	if err := b.Start("brk-b"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer(2, "brk-b"); err != nil {
		t.Fatal(err)
	}
	b.Close() // every fetch now fails on the dead link

	var wg sync.WaitGroup
	trippedSeen := make(chan struct{})
	var once sync.Once
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				_, err := a.FetchRing(context.Background(), 2, fmt.Sprintf("k%d", i), 0)
				if err == nil {
					t.Error("fetch from closed peer succeeded")
					return
				}
				if errors.Is(err, ErrPeerTripped) {
					once.Do(func() { close(trippedSeen) })
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-trippedSeen:
	default:
		t.Fatal("breaker never tripped under a concurrent failure storm")
	}
	scores := a.PeerScores()
	if len(scores) != 1 || scores[0].State != BreakerOpen {
		t.Fatalf("scores = %+v, want open breaker", scores)
	}
}

// TestBackoffJitterSpreads is the regression test that the waits between dial
// attempts are jittered: a cohort of links failing at the same instant must
// not redial in lockstep. jitter draws uniformly over [d/2, d], so a run of
// draws at the same nominal wait has to produce distinct values inside that
// envelope.
func TestBackoffJitterSpreads(t *testing.T) {
	const d = 100 * time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		j := jitter(d)
		if j < d/2 || j > d {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d)
		}
		seen[j] = true
	}
	if len(seen) < 10 {
		t.Fatalf("200 jitter draws produced only %d distinct values; reconnects would re-synchronize", len(seen))
	}
	// Degenerate waits pass through untouched.
	if jitter(0) != 0 || jitter(1) != 1 {
		t.Fatal("jitter must pass tiny durations through")
	}
}
