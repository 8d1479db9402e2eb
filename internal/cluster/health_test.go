package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/wire"
)

// fastHealth is a detector tuned for tests: a dead peer is declared within a
// few hundred milliseconds instead of several seconds.
func fastHealth() HealthConfig {
	return HealthConfig{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  20 * time.Millisecond,
		SuspectAfter:  2,
		DeadAfter:     4,
	}
}

// transitionLog records OnPeerState callbacks in order.
type transitionLog struct {
	mu     sync.Mutex
	events []PeerState
}

func (l *transitionLog) record(_ uint32, s PeerState) {
	l.mu.Lock()
	l.events = append(l.events, s)
	l.mu.Unlock()
}

func (l *transitionLog) snapshot() []PeerState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]PeerState(nil), l.events...)
}

func (l *transitionLog) has(want PeerState) bool {
	for _, s := range l.snapshot() {
		if s == want {
			return true
		}
	}
	return false
}

// TestHealthStateMachine walks a peer through the full detector cycle: kill
// it (alive → suspect → dead, with the transitions published via
// OnPeerState), then revive it and watch the detector snap back to alive.
func TestHealthStateMachine(t *testing.T) {
	mem := netx.NewMem()
	var log transitionLog
	a := NewNode(Config{
		NodeID: 1, Network: mem,
		FetchTimeout: 2 * time.Second,
		Health:       fastHealth(),
		OnPeerState:  log.record,
	}, newRecordingHandler())
	if err := a.Start("hsm-a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	startB := func() *Node {
		b := NewNode(Config{
			NodeID: 2, Network: mem,
			FetchTimeout: 2 * time.Second,
			Health:       HealthConfig{Disable: true},
		}, newRecordingHandler())
		if err := b.Start("hsm-b"); err != nil {
			t.Fatal(err)
		}
		if err := b.ConnectPeer(1, "hsm-a"); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := startB()
	if err := a.ConnectPeer(2, "hsm-b"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "peer 2 alive", func() bool { return a.PeerState(2) == PeerAlive })

	// Kill B: A must pass through suspect on its way to dead.
	b.Close()
	waitFor(t, "peer 2 dead", func() bool { return a.PeerState(2) == PeerDead })
	if !log.has(PeerSuspect) {
		t.Fatalf("transitions %v skipped the suspect state", log.snapshot())
	}
	if !log.has(PeerDead) {
		t.Fatalf("transitions %v missing dead", log.snapshot())
	}

	// Dead peer: fetches fail fast instead of waiting out FetchTimeout.
	start := time.Now()
	_, _, _, err := a.Fetch(context.Background(), 2, "GET /x")
	if !errors.Is(err, ErrNoPeer) {
		t.Fatalf("fetch from dead peer: err = %v, want ErrNoPeer", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("fetch from dead peer took %v, want fast failure", d)
	}

	// Revive B at the same address: A reconnects, a probe succeeds, and the
	// peer snaps straight back to alive.
	b = startB()
	defer b.Close()
	waitFor(t, "peer 2 alive again", func() bool { return a.PeerState(2) == PeerAlive })

	// The health snapshot agrees.
	infos := a.PeerHealth()
	if len(infos) != 1 || infos[0].Peer != 2 || infos[0].State != PeerAlive {
		t.Fatalf("PeerHealth = %+v, want peer 2 alive", infos)
	}
}

// TestHealthDisabled: with the detector off there are no probes, every peer
// reads alive, and PeerHealth is empty — the paper's reactive-only semantics.
func TestHealthDisabled(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{
		NodeID: 1, Network: mem,
		Health: HealthConfig{Disable: true},
	}, newRecordingHandler())
	if err := a.Start("hd-a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(Config{
		NodeID: 2, Network: mem,
		Health: HealthConfig{Disable: true},
	}, newRecordingHandler())
	if err := b.Start("hd-b"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer(2, "hd-b"); err != nil {
		t.Fatal(err)
	}
	b.Close()
	time.Sleep(50 * time.Millisecond)
	if got := a.PeerState(2); got != PeerAlive {
		t.Fatalf("disabled detector reports %v, want alive", got)
	}
	if h := a.PeerHealth(); h != nil {
		t.Fatalf("disabled detector returned health %+v", h)
	}
}

// TestFetchWakesOnLinkTeardown is the regression test for the send-in-flight
// race: a fetch whose frame was accepted by the link just as the peer died
// must be woken by the closed pending channel, not strand until FetchTimeout.
// The peer's handler blocks so the reply can never arrive; killing the peer
// mid-fetch must fail the fetch promptly with ErrNoPeer.
func TestFetchWakesOnLinkTeardown(t *testing.T) {
	for i := 0; i < 5; i++ {
		mem := netx.NewMem()
		release := make(chan struct{})
		h := &blockingFetchHandler{release: release}
		a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 10 * time.Second}, newRecordingHandler())
		if err := a.Start(fmt.Sprintf("ft-a-%d", i)); err != nil {
			t.Fatal(err)
		}
		b := NewNode(Config{NodeID: 2, Network: mem, FetchTimeout: 10 * time.Second}, h)
		if err := b.Start(fmt.Sprintf("ft-b-%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := a.ConnectPeer(2, fmt.Sprintf("ft-b-%d", i)); err != nil {
			t.Fatal(err)
		}

		errCh := make(chan error, 1)
		go func() {
			_, _, _, err := a.Fetch(context.Background(), 2, "GET /blocked")
			errCh <- err
		}()
		// Wait until the fetch reached B's handler, so the request frame is
		// definitely in flight, then kill B.
		select {
		case <-h.entered():
		case <-time.After(5 * time.Second):
			t.Fatal("fetch never reached the peer handler")
		}
		// Close tears the connections down first, then waits for the blocked
		// handler goroutine — so it must run concurrently and is released
		// only after the assertion.
		closed := make(chan struct{})
		go func() { b.Close(); close(closed) }()

		select {
		case err := <-errCh:
			if !errors.Is(err, ErrNoPeer) {
				t.Fatalf("iter %d: err = %v, want ErrNoPeer", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iter %d: fetch stranded after peer death (waiting out FetchTimeout)", i)
		}
		close(release)
		<-closed
		a.Close()
	}
}

// TestPingWakesOnLinkTeardown: a ping in flight when the link tears down must
// be woken through the link's done channel — closing the pong channel would
// read as success, and not waking at all would strand the prober until its
// timeout. The peer's read loop is blocked (synchronous HandleDirBatch) so
// the ping is read by nobody; killing the peer must fail the ping promptly.
func TestPingWakesOnLinkTeardown(t *testing.T) {
	mem := netx.NewMem()
	gate := make(chan struct{})
	h := &blockingInsertHandler{gate: gate}
	a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 10 * time.Second}, newRecordingHandler())
	if err := a.Start("pt-a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(Config{NodeID: 2, Network: mem, FetchTimeout: 10 * time.Second}, h)
	if err := b.Start("pt-b"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer(2, "pt-b"); err != nil {
		t.Fatal(err)
	}

	// Jam B's read loop: HandleDirBatch blocks, so the following ping frame
	// is never read and no pong can come back.
	a.BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: "GET /jam", Size: 1}, 0)
	select {
	case <-h.entered():
	case <-time.After(5 * time.Second):
		t.Fatal("insert never reached the peer handler")
	}

	errCh := make(chan error, 1)
	go func() { errCh <- a.Ping(context.Background(), 2) }()
	// Give the ping a moment to hit the wire, then kill B. Close tears the
	// connections down first and then waits for the blocked inbound
	// goroutine, so it must run concurrently with the assertion.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("ping reported success across a dead link")
		}
		if !errors.Is(err, ErrNoPeer) {
			t.Fatalf("err = %v, want ErrNoPeer", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ping stranded after peer death")
	}
	close(gate)
	<-closed
}

// blockingFetchHandler blocks HandleFetch until release closes, signalling
// arrival on a channel.
type blockingFetchHandler struct {
	NopHandler
	release chan struct{}

	mu sync.Mutex
	in chan struct{}
}

func (h *blockingFetchHandler) entered() chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.in == nil {
		h.in = make(chan struct{})
	}
	return h.in
}

func (h *blockingFetchHandler) HandleFetch(string, uint8, *wire.FetchReply) func() {
	h.mu.Lock()
	if h.in == nil {
		h.in = make(chan struct{})
	}
	in := h.in
	h.mu.Unlock()
	select {
	case <-in:
	default:
		close(in)
	}
	<-h.release
	return nil
}

// blockingInsertHandler blocks HandleDirBatch (which runs synchronously in the
// read loop) until gate closes.
type blockingInsertHandler struct {
	NopHandler
	gate chan struct{}

	mu sync.Mutex
	in chan struct{}
}

func (h *blockingInsertHandler) entered() chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.in == nil {
		h.in = make(chan struct{})
	}
	return h.in
}

func (h *blockingInsertHandler) HandleDirBatch(*wire.DirBatch) {
	h.mu.Lock()
	if h.in == nil {
		h.in = make(chan struct{})
	}
	in := h.in
	h.mu.Unlock()
	select {
	case <-in:
	default:
		close(in)
	}
	<-h.gate
}

// TestConnectPeerCancelDuringDial: cancelling the context while the dial
// itself is in flight must return the context error, close the dialled
// connection, and register no link. A blockingNetwork parks the dial until
// the test releases it.
func TestConnectPeerCancelDuringDial(t *testing.T) {
	inner := netx.NewMem()
	bn := &blockingNetwork{countingNetwork: countingNetwork{Network: inner}, entered: make(chan struct{}), release: make(chan struct{})}

	a := NewNode(Config{NodeID: 1, Network: bn}, NopHandler{})
	if err := a.Start("cd-a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(Config{NodeID: 2, Network: inner}, NopHandler{})
	if err := b.Start("cd-b"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- a.ConnectPeerContext(ctx, 2, "cd-b") }()

	// Wait for the dial to be in flight, cancel, then let the dial complete
	// successfully: ConnectPeerContext must still honour the cancellation.
	select {
	case <-bn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dial never started")
	}
	cancel()
	close(bn.release)

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConnectPeerContext ignored cancel during dial")
	}
	if peers := a.Peers(); len(peers) != 0 {
		t.Fatalf("link registered after cancelled dial: %v", peers)
	}
	if got := bn.openConns(); got != 0 {
		t.Fatalf("%d connection(s) leaked by cancelled dial", got)
	}
}

// blockingNetwork parks the first Dial until release closes, and records the
// most dials it ever had in flight at once.
type blockingNetwork struct {
	countingNetwork
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	gauge             sync.Mutex
	inFlight, busiest int
}

func (b *blockingNetwork) Dial(addr string) (net.Conn, error) {
	b.gauge.Lock()
	b.inFlight++
	b.busiest = max(b.busiest, b.inFlight)
	b.gauge.Unlock()
	defer func() {
		b.gauge.Lock()
		b.inFlight--
		b.gauge.Unlock()
	}()
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.countingNetwork.Dial(addr)
}

func (b *blockingNetwork) mostInFlight() int {
	b.gauge.Lock()
	defer b.gauge.Unlock()
	return b.busiest
}
