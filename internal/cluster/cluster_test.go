package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/stats"
	"repro/internal/wire"
)

// recordingHandler collects events and serves a fixed set of cached bodies.
type recordingHandler struct {
	NopHandler
	mu      sync.Mutex
	inserts []wire.DirUpdate
	deletes []wire.DirUpdate
	bodies  map[string]string
}

func newRecordingHandler() *recordingHandler {
	return &recordingHandler{bodies: make(map[string]string)}
}

func (h *recordingHandler) HandleDirBatch(m *wire.DirBatch) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, u := range m.Updates {
		if u.Delete {
			h.deletes = append(h.deletes, u)
		} else {
			h.inserts = append(h.inserts, u)
		}
	}
}

func (h *recordingHandler) HandleFetch(key string, _ uint8, r *wire.FetchReply) func() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if body, ok := h.bodies[key]; ok {
		r.OK, r.ContentType, r.Body = true, "text/html", []byte(body)
	}
	return nil
}

func (h *recordingHandler) HandleStats() []stats.Sample {
	return []stats.Sample{
		{Name: "swala_local_hits_total", Value: 7},
		{Name: "swala_directory_local_entries", Value: 3},
	}
}

func (h *recordingHandler) HandleInvalidate(m *wire.Invalidate) (matched, peers, unreached int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for key := range h.bodies {
		if m.Pattern == "*" || key == m.Pattern {
			delete(h.bodies, key)
			matched++
		}
	}
	return matched, 0, 0
}

func (h *recordingHandler) insertCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.inserts)
}

func (h *recordingHandler) deleteCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.deletes)
}

// startMesh creates n fully connected nodes over an in-memory network.
func startMesh(t *testing.T, n int) ([]*Node, []*recordingHandler) {
	t.Helper()
	mem := netx.NewMem()
	nodes := make([]*Node, n)
	handlers := make([]*recordingHandler, n)
	for i := 0; i < n; i++ {
		handlers[i] = newRecordingHandler()
		nodes[i] = NewNode(Config{
			NodeID:       uint32(i + 1),
			Network:      mem,
			FetchTimeout: 2 * time.Second,
		}, handlers[i])
		if err := nodes[i].Start(fmt.Sprintf("node-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func(i int) func() { return func() { nodes[i].Close() } }(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := nodes[i].ConnectPeer(uint32(j+1), fmt.Sprintf("node-%d", j+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes, handlers
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBroadcastInsertReachesAllPeers(t *testing.T) {
	nodes, handlers := startMesh(t, 3)
	nodes[0].BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: "GET /q", Size: 10, ExecTime: time.Second}, 0)

	for i := 1; i < 3; i++ {
		i := i
		waitFor(t, fmt.Sprintf("insert at node %d", i+1), func() bool { return handlers[i].insertCount() == 1 })
		if got := handlers[i].inserts[0]; got.Key != "GET /q" || got.Owner != 1 {
			t.Fatalf("node %d insert = %+v", i+1, got)
		}
	}
	if handlers[0].insertCount() != 0 {
		t.Fatal("broadcast must not loop back to the sender")
	}
}

func TestBroadcastDelete(t *testing.T) {
	nodes, handlers := startMesh(t, 2)
	nodes[1].BroadcastUpdate(wire.DirUpdate{Delete: true, Owner: 2, Key: "GET /x"}, 0)
	waitFor(t, "delete at node 1", func() bool { return handlers[0].deleteCount() == 1 })
	if got := handlers[0].deletes[0]; got.Key != "GET /x" || got.Owner != 2 {
		t.Fatalf("delete = %+v", got)
	}
}

func TestBroadcastOrderingPerPeer(t *testing.T) {
	nodes, handlers := startMesh(t, 2)
	for i := 0; i < 100; i++ {
		nodes[0].BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: fmt.Sprintf("k%03d", i)}, 0)
	}
	waitFor(t, "all inserts", func() bool { return handlers[1].insertCount() == 100 })
	handlers[1].mu.Lock()
	defer handlers[1].mu.Unlock()
	for i, m := range handlers[1].inserts {
		if want := fmt.Sprintf("k%03d", i); m.Key != want {
			t.Fatalf("insert %d = %q, want %q (per-peer ordering)", i, m.Key, want)
		}
	}
}

func TestFetchHit(t *testing.T) {
	nodes, handlers := startMesh(t, 2)
	handlers[1].bodies["GET /cached"] = "cached-body"

	ct, body, ok, err := nodes[0].Fetch(context.Background(), 2, "GET /cached")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || ct != "text/html" || string(body) != "cached-body" {
		t.Fatalf("fetch = ok=%v ct=%q body=%q", ok, ct, body)
	}
}

func TestFetchFalseHit(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	_, _, ok, err := nodes[0].Fetch(context.Background(), 2, "GET /gone")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("fetch of deleted entry reported ok")
	}
}

// hugeBodyHandler serves a body one frame too large for "GET /huge" and the
// recording handler's bodies for every other key.
type hugeBodyHandler struct{ *recordingHandler }

func (h hugeBodyHandler) HandleFetch(key string, flags uint8, r *wire.FetchReply) func() {
	if key == "GET /huge" {
		r.OK, r.ContentType, r.Body = true, "application/octet-stream", make([]byte, wire.MaxFrameSize)
		return nil
	}
	return h.recordingHandler.HandleFetch(key, flags, r)
}

// TestFetchOversizedBodyIsFalseHit: a body whose reply frame the requester
// could not read comes back as a false hit, and the link that carried the
// fetch stays up for the next one.
func TestFetchOversizedBodyIsFalseHit(t *testing.T) {
	mem := netx.NewMem()
	owner := newRecordingHandler()
	owner.bodies["GET /small"] = "small-body"
	a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 5 * time.Second}, newRecordingHandler())
	b := NewNode(Config{NodeID: 2, Network: mem, FetchTimeout: 5 * time.Second}, hugeBodyHandler{owner})
	for i, n := range []*Node{a, b} {
		if err := n.Start(fmt.Sprintf("node-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
	}
	if err := a.ConnectPeer(2, "node-2"); err != nil {
		t.Fatal(err)
	}
	link := func() *peerLink {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.peers[2].link
	}
	before := link()

	_, body, ok, err := a.Fetch(context.Background(), 2, "GET /huge")
	if err != nil || ok {
		t.Fatalf("oversized fetch = ok %v, %d bytes, err %v; want a false hit", ok, len(body), err)
	}
	_, body, ok, err = a.Fetch(context.Background(), 2, "GET /small")
	if err != nil || !ok || string(body) != "small-body" {
		t.Fatalf("fetch after the oversized one = ok %v, body %q, err %v", ok, body, err)
	}
	if after := link(); after != before || !after.live() {
		t.Fatal("the oversized reply cost the link")
	}
}

func TestFetchUnknownPeer(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	_, _, _, err := nodes[0].Fetch(context.Background(), 99, "GET /x")
	if !errors.Is(err, ErrNoPeer) {
		t.Fatalf("err = %v, want ErrNoPeer", err)
	}
}

func TestConcurrentFetches(t *testing.T) {
	nodes, handlers := startMesh(t, 2)
	for i := 0; i < 50; i++ {
		handlers[1].bodies[fmt.Sprintf("k%d", i)] = fmt.Sprintf("body%d", i)
	}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, body, ok, err := nodes[0].Fetch(context.Background(), 2, fmt.Sprintf("k%d", i))
			if err != nil || !ok {
				t.Errorf("fetch %d: ok=%v err=%v", i, ok, err)
				return
			}
			if string(body) != fmt.Sprintf("body%d", i) {
				t.Errorf("fetch %d: body %q (reply correlation broken)", i, body)
			}
		}(i)
	}
	wg.Wait()
}

func TestPing(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	if err := nodes[0].Ping(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Ping(context.Background(), 77); !errors.Is(err, ErrNoPeer) {
		t.Fatalf("ping unknown peer: %v", err)
	}
}

func TestPeers(t *testing.T) {
	nodes, _ := startMesh(t, 3)
	got := nodes[0].Peers()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Peers = %v, want [2 3]", got)
	}
}

func TestFetchAfterPeerClose(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	nodes[1].Close()
	_, _, _, err := nodes[0].Fetch(context.Background(), 2, "GET /x")
	if err == nil {
		t.Fatal("fetch from closed peer succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	nodes, _ := startMesh(t, 2)
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	mem := netx.NewMem()
	hA := newRecordingHandler()
	a := NewNode(Config{NodeID: 1, Network: mem}, hA)
	if err := a.Start("ra"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	hB := newRecordingHandler()
	b := NewNode(Config{NodeID: 2, Network: mem}, hB)
	if err := b.Start("rb"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer(2, "rb"); err != nil {
		t.Fatal(err)
	}

	a.BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: "before"}, 0)
	waitFor(t, "pre-restart insert", func() bool { return hB.insertCount() == 1 })

	// Crash node 2 and restart a replacement at the same address.
	b.Close()
	hB2 := newRecordingHandler()
	b2 := NewNode(Config{NodeID: 2, Network: mem}, hB2)
	if err := b2.Start("rb"); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	// The link must come back by itself; broadcasts sent after the
	// reconnect reach the replacement node. Keep broadcasting until one
	// lands (messages sent while the link is down are lost by design).
	deadline := time.Now().Add(10 * time.Second)
	for hB2.insertCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("link never reconnected after peer restart")
		}
		a.BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: "after"}, 0)
		time.Sleep(20 * time.Millisecond)
	}
}

func TestNoReconnectAfterNodeClose(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("na"); err != nil {
		t.Fatal(err)
	}
	b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
	if err := b.Start("nb"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.ConnectPeer(2, "nb"); err != nil {
		t.Fatal(err)
	}
	// Closing node A must not leave reconnect loops running; Close waits for
	// all goroutines, so a hang here would fail the test by timeout.
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked (reconnect loop leaked)")
	}
}

func TestBroadcastDropsWhenQueueFull(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	a.sendQueue = 4
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
	if err := b.Start("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.ConnectPeer(2, "b"); err != nil {
		t.Fatal(err)
	}
	// Stop the receiver so a's link sender stalls, then overflow the queue.
	b.Close()
	time.Sleep(10 * time.Millisecond)
	big := make([]byte, 256<<10) // larger than the conn buffer: sender blocks
	for i := 0; i < 2000; i++ {
		a.Broadcast(&wire.FetchReply{Seq: uint64(i), OK: true, Body: big})
	}
	if a.Dropped() == 0 {
		t.Fatal("no broadcasts dropped despite a stalled peer and full queue")
	}
}

func TestConnectPeerRetries(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Start the peer 50 ms after the dial begins; ConnectPeer must retry.
	errCh := make(chan error, 1)
	go func() { errCh <- a.ConnectPeer(2, "b") }()
	time.Sleep(50 * time.Millisecond)
	b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
	if err := b.Start("b"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := <-errCh; err != nil {
		t.Fatalf("ConnectPeer with late peer: %v", err)
	}
}

func TestConnectPeerGivesUp(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := a.ConnectPeerContext(ctx, 2, "never-exists"); err == nil {
		t.Fatal("ConnectPeer to absent peer succeeded")
	}
}

func TestStatsQuery(t *testing.T) {
	// Stats flow over an inbound link: dial raw and exchange messages.
	mem := netx.NewMem()
	h := newRecordingHandler()
	a := NewNode(Config{NodeID: 1, Network: mem}, h)
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	conn, err := mem.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Write(&wire.Hello{NodeID: 99, NodeName: "ctl", Addr: ""}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Write(&wire.Stats{Seq: 5}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.Read()
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := msg.(*wire.StatsReply)
	if !ok {
		t.Fatalf("reply = %T", msg)
	}
	hits, _ := stats.Find(sr.Samples, "swala_local_hits_total")
	entries, _ := stats.Find(sr.Samples, "swala_directory_local_entries")
	if sr.Seq != 5 || hits != 7 || entries != 3 {
		t.Fatalf("stats = %+v", sr)
	}
}

func TestInboundRequiresHello(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	conn, err := mem.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Write(&wire.Ping{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// The node must drop the connection rather than answer.
	if _, err := wc.Read(); err == nil {
		t.Fatal("node answered a connection that skipped hello")
	}
}

func TestMeshOverTCP(t *testing.T) {
	h1, h2 := newRecordingHandler(), newRecordingHandler()
	a := NewNode(Config{NodeID: 1}, h1)
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer a.Close()
	b := NewNode(Config{NodeID: 2}, h2)
	if err := b.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.ConnectPeer(2, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.ConnectPeer(1, a.Addr()); err != nil {
		t.Fatal(err)
	}

	h2.bodies["GET /t"] = "tcp-body"
	_, body, ok, err := a.Fetch(context.Background(), 2, "GET /t")
	if err != nil || !ok {
		t.Fatalf("fetch over TCP: ok=%v err=%v", ok, err)
	}
	if string(body) != "tcp-body" {
		t.Fatalf("body = %q", body)
	}

	a.BroadcastUpdate(wire.DirUpdate{Owner: 1, Key: "GET /i"}, 0)
	waitFor(t, "insert over TCP", func() bool { return h2.insertCount() == 1 })
}

func TestPingSendErrorDeregistersPong(t *testing.T) {
	mem := netx.NewMem()
	netA, netB := &refusingNetwork{Network: mem}, &refusingNetwork{Network: mem}
	a := NewNode(Config{NodeID: 1, Network: netA}, nil)
	b := NewNode(Config{NodeID: 2, Network: netB}, nil)
	if err := a.Start("ping-a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Start("ping-b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	if err := a.ConnectPeer(2, "ping-b"); err != nil {
		t.Fatal(err)
	}

	link := a.link(2)
	// Kill the transport under the link so the ping's send fails, and keep
	// either end from redialing it meanwhile.
	netA.refuse.Store(true)
	netB.refuse.Store(true)
	link.conn.Close()

	pingCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := a.Ping(pingCtx, 2); err == nil {
		t.Fatal("ping over closed transport succeeded")
	}
	link.mu.Lock()
	leaked := len(link.pending)
	link.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d pong registrations leaked after failed ping", leaked)
	}
}

// TestConnectPeerAbortsOnClose: Close must abort a pending dial loop
// immediately instead of letting it dial on for as long as its context
// allows.
func TestConnectPeerAbortsOnClose(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- a.ConnectPeerContext(context.Background(), 2, "never-listens") }()
	// Let the dial loop start retrying, then close the node.
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("dial abort took %v after Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConnectPeer still pending after Close (busy retry loop not aborted)")
	}
}

// TestConnectPeerContextCanceled: a caller-provided context aborts the
// retry loop the same way.
func TestConnectPeerContextCanceled(t *testing.T) {
	mem := netx.NewMem()
	a := NewNode(Config{NodeID: 1, Network: mem}, NopHandler{})
	if err := a.Start("a"); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- a.ConnectPeerContext(ctx, 2, "never-listens") }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConnectPeerContext ignored cancellation")
	}
}

// doneCounter counts how often its Done channel is asked for.
type doneCounter struct {
	context.Context
	asked atomic.Int32
}

func (c *doneCounter) Done() <-chan struct{} {
	c.asked.Add(1)
	return c.Context.Done()
}

// gatedFetchHandler answers a fetch once its gate is closed.
type gatedFetchHandler struct {
	NopHandler
	gate chan struct{}
}

func (h gatedFetchHandler) HandleFetch(_ string, _ uint8, r *wire.FetchReply) func() {
	<-h.gate
	r.OK, r.ContentType, r.Body = true, "text/html", []byte("body")
	return nil
}

// TestFetchAsksContextOnlyWhenSlow: a fetch answered inside quickWait never
// asks its context for a Done channel (under httpserver that call is what
// arms the disconnect watch); one that outlasts it does, and is then canceled
// by it; FetchTimeout bounds the two waits together.
func TestFetchAsksContextOnlyWhenSlow(t *testing.T) {
	mem := netx.NewMem()
	gate := make(chan struct{})
	const fetchTimeout = 150 * time.Millisecond
	a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: fetchTimeout}, NopHandler{})
	b := NewNode(Config{NodeID: 2, Network: mem, FetchTimeout: fetchTimeout}, gatedFetchHandler{gate: gate})
	for i, n := range []*Node{a, b} {
		if err := n.Start(fmt.Sprintf("quick-%d", i+1)); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
	}
	if err := a.ConnectPeer(2, "quick-2"); err != nil {
		t.Fatal(err)
	}

	// Slow: the context is asked once the quick wait is over, and ends the fetch.
	inner, cancel := context.WithCancel(context.Background())
	ctx := &doneCounter{Context: inner}
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := a.Fetch(ctx, 2, "GET /slow")
		errCh <- err
	}()
	waitFor(t, "the slow fetch to ask its context", func() bool { return ctx.asked.Load() > 0 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) || errors.Is(err, ErrFetchTimeout) {
		t.Fatalf("slow fetch under a canceled context: %v", err)
	}

	// Slower than FetchTimeout: the deadline counts from the send, not from
	// the end of the quick wait.
	start := time.Now()
	_, _, _, err := a.Fetch(context.Background(), 2, "GET /never")
	if took := time.Since(start); !errors.Is(err, ErrFetchTimeout) || took < fetchTimeout || took > fetchTimeout+100*time.Millisecond {
		t.Fatalf("unanswered fetch: %v after %v, want ErrFetchTimeout after %v", err, took, fetchTimeout)
	}

	// Quick: answered at once, the context is left alone.
	close(gate)
	quick := 0
	for i := 0; i < 200; i++ {
		ctx := &doneCounter{Context: context.Background()}
		start := time.Now()
		_, body, ok, err := a.Fetch(ctx, 2, "GET /quick")
		took := time.Since(start)
		if err != nil || !ok || string(body) != "body" {
			t.Fatalf("quick fetch %d: %q, %v, %v", i, body, ok, err)
		}
		if took >= quickWait {
			continue // the host stalled this one: asking was due
		}
		quick++
		if n := ctx.asked.Load(); n != 0 {
			t.Fatalf("fetch %d, answered in %v, asked its context for Done %d times", i, took, n)
		}
	}
	if quick < 100 {
		t.Skipf("only %d of 200 fetches were answered inside quickWait", quick)
	}
}

// TestFetchCanceledContext: a dead request context aborts a pending fetch
// with a cancellation error (not ErrFetchTimeout), and deregisters the
// pending reply slot.
func TestFetchCanceledContext(t *testing.T) {
	nodes, handlers := startMesh(t, 2)
	handlers[1].bodies["GET /x"] = "body"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := nodes[0].Fetch(ctx, 2, "GET /x")
	if err == nil {
		t.Fatal("fetch with dead context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, ErrFetchTimeout) {
		t.Fatalf("cancellation misreported as fetch timeout: %v", err)
	}
}
