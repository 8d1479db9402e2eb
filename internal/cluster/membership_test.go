package cluster

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/wire"
)

// startRingNode starts one ring-placement node on the shared in-memory
// network. Health settings are aggressive so eviction tests run fast.
func startRingNode(t *testing.T, mem *netx.Mem, id uint32, fastHealth bool) (*Node, *recordingHandler) {
	t.Helper()
	h := newRecordingHandler()
	cfg := Config{
		NodeID:       id,
		Network:      mem,
		FetchTimeout: 2 * time.Second,
		RingMode:     true,
	}
	if fastHealth {
		cfg.Health = HealthConfig{
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  20 * time.Millisecond,
			SuspectAfter:  1,
			DeadAfter:     3,
		}
	}
	n := NewNode(cfg, h)
	if err := n.Start(fmt.Sprintf("ring-%d", id)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, h
}

func ringHas(n *Node, want ...uint32) bool {
	r := n.Ring()
	if r == nil || r.Len() != len(want) {
		return false
	}
	for _, id := range want {
		if !r.Contains(id) {
			return false
		}
	}
	return true
}

func TestSingleNodeRingLocalOnly(t *testing.T) {
	mem := netx.NewMem()
	n, _ := startRingNode(t, mem, 1, false)
	r := n.Ring()
	if r == nil || r.Len() != 1 || !r.Contains(1) {
		t.Fatalf("single node ring = %+v", r)
	}
	owner, ok := r.Owner("GET /anything")
	if !ok || owner != 1 {
		t.Fatalf("owner = %d, %v; want self", owner, ok)
	}
}

func TestJoinSeedConvergence(t *testing.T) {
	mem := netx.NewMem()
	n1, _ := startRingNode(t, mem, 1, false)
	n2, _ := startRingNode(t, mem, 2, false)
	n3, _ := startRingNode(t, mem, 3, false)

	ctx := context.Background()
	if err := n2.JoinSeed(ctx, "ring-1"); err != nil {
		t.Fatal(err)
	}
	if err := n3.JoinSeed(ctx, "ring-1"); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "all nodes to converge on 3 members", func() bool {
		return ringHas(n1, 1, 2, 3) && ringHas(n2, 1, 2, 3) && ringHas(n3, 1, 2, 3)
	})
	// All three converged on the same placement.
	for _, key := range []string{"GET /a", "GET /b", "GET /c?x=1"} {
		o1, _ := n1.Ring().Owner(key)
		o2, _ := n2.Ring().Owner(key)
		o3, _ := n3.Ring().Owner(key)
		if o1 != o2 || o2 != o3 {
			t.Fatalf("divergent owners for %q: %d %d %d", key, o1, o2, o3)
		}
	}
	// Membership drove link setup: 2 and 3 never dialed each other explicitly
	// but must be meshed.
	waitFor(t, "auto-connected mesh", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		return n2.Ping(ctx, 3) == nil && n3.Ping(ctx, 2) == nil
	})
}

// TestRingMemberAddressesDialable: on a ring whose nodes listen on every
// interface, a member address learned from a Join or from gossip carries the
// host the member was reached from, never the unspecified host its listener
// reports, which another host could not dial.
func TestRingMemberAddressesDialable(t *testing.T) {
	start := func(id uint32) (*Node, string) {
		t.Helper()
		n := NewNode(Config{NodeID: id, RingMode: true, FetchTimeout: 2 * time.Second}, newRecordingHandler())
		if err := n.Start(":0"); err != nil {
			t.Skipf("loopback unavailable: %v", err)
		}
		t.Cleanup(func() { n.Close() })
		_, port, err := net.SplitHostPort(n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return n, net.JoinHostPort("127.0.0.1", port)
	}
	n1, seed := start(1)
	n2, _ := start(2)
	n3, _ := start(3)
	ctx := context.Background()
	if err := n2.JoinSeed(ctx, seed); err != nil {
		t.Fatal(err)
	}
	if err := n3.JoinSeed(ctx, seed); err != nil {
		t.Fatal(err)
	}
	nodes := []*Node{n1, n2, n3}
	waitFor(t, "all nodes to converge on 3 members", func() bool {
		return ringHas(n1, 1, 2, 3) && ringHas(n2, 1, 2, 3) && ringHas(n3, 1, 2, 3)
	})
	waitFor(t, "membership to link 2 and 3", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		return n2.Ping(ctx, 3) == nil && n3.Ping(ctx, 2) == nil
	})
	for _, n := range nodes {
		for _, m := range n.MembersSnapshot() {
			if m.ID == n.cfg.NodeID {
				continue // its own listen address, which peers rewrite on receipt
			}
			host, _, err := net.SplitHostPort(m.Addr)
			if ip := net.ParseIP(host); err != nil || host == "" || ip != nil && ip.IsUnspecified() {
				t.Errorf("node %d holds member %d at %q, which another host cannot dial", n.cfg.NodeID, m.ID, m.Addr)
			}
		}
	}
}

func TestGracefulLeave(t *testing.T) {
	mem := netx.NewMem()
	n1, _ := startRingNode(t, mem, 1, false)
	n2, _ := startRingNode(t, mem, 2, false)
	n3, _ := startRingNode(t, mem, 3, false)

	ctx := context.Background()
	if err := n2.JoinSeed(ctx, "ring-1"); err != nil {
		t.Fatal(err)
	}
	if err := n3.JoinSeed(ctx, "ring-2"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "3-member ring", func() bool {
		return ringHas(n1, 1, 2, 3) && ringHas(n2, 1, 2, 3) && ringHas(n3, 1, 2, 3)
	})

	// Two-phase departure: drop out of our own ring first (handoff would run
	// here), then tell the others.
	n3.LeaveRing()
	if ringHas(n3, 1, 2, 3) {
		t.Fatal("leaving node still owns keyspace in its own view")
	}
	n3.AnnounceLeave()

	waitFor(t, "survivors to drop the departed member", func() bool {
		return ringHas(n1, 1, 2) && ringHas(n2, 1, 2)
	})
}

func TestDeadMemberEvicted(t *testing.T) {
	mem := netx.NewMem()
	n1, _ := startRingNode(t, mem, 1, true)
	n2, _ := startRingNode(t, mem, 2, true)

	if err := n2.JoinSeed(context.Background(), "ring-1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "2-member ring", func() bool {
		return ringHas(n1, 1, 2) && ringHas(n2, 1, 2)
	})

	// Crash node 2. The detector walks it to dead and evicts it.
	n2.Close()
	waitFor(t, "survivor to evict the dead member", func() bool {
		return ringHas(n1, 1)
	})
}

func TestEvictionRefuted(t *testing.T) {
	mem := netx.NewMem()
	n1, _ := startRingNode(t, mem, 1, false)
	n2, _ := startRingNode(t, mem, 2, false)

	if err := n2.JoinSeed(context.Background(), "ring-1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "2-member ring", func() bool {
		return ringHas(n1, 1, 2) && ringHas(n2, 1, 2)
	})

	// A false-positive eviction reaches node 2 as gossip: it must refute at a
	// higher incarnation and the refutation must win back node 1's view.
	n2.memMu.Lock()
	inc := n2.members[2].incarnation
	n2.memMu.Unlock()
	n2.mergeMembers([]wire.Member{{ID: 2, Incarnation: inc + 1, Left: true}}, true)

	if !ringHas(n2, 1, 2) {
		t.Fatal("node did not refute its own tombstone")
	}
	n2.memMu.Lock()
	refuted := n2.members[2].incarnation
	n2.memMu.Unlock()
	if refuted <= inc+1 {
		t.Fatalf("refutation incarnation %d not above tombstone %d", refuted, inc+1)
	}
	waitFor(t, "refutation to reach the peer", func() bool {
		n1.memMu.Lock()
		defer n1.memMu.Unlock()
		m := n1.members[2]
		return !m.left && m.incarnation == refuted
	})
}

func TestPlacementMismatchRejected(t *testing.T) {
	mem := netx.NewMem()
	ringNode, _ := startRingNode(t, mem, 1, false)

	h := newRecordingHandler()
	replicate := NewNode(Config{
		NodeID:       2,
		Network:      mem,
		FetchTimeout: time.Second,
	}, h)
	if err := replicate.Start("legacy-2"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replicate.Close() })

	// The dial itself succeeds; the ring node rejects the link on Hello.
	if err := replicate.ConnectPeer(1, "ring-1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := replicate.Ping(ctx, 1); err == nil {
		t.Fatal("replicate-placement peer was admitted by a ring node")
	}
	if ringNode.Ring().Len() != 1 {
		t.Fatalf("rejected peer leaked into the ring: %d members", ringNode.Ring().Len())
	}
}

// TestReplicateRejectsOtherProtoVersion: a replicate-placement node refuses
// a cluster node whose Hello announces another protocol version, with the
// reason in its log and no link adopted.
func TestReplicateRejectsOtherProtoVersion(t *testing.T) {
	mem := netx.NewMem()
	var logs lockedBuffer
	n := NewNode(Config{NodeID: 1, Network: mem, Logger: log.New(&logs, "", 0)}, NopHandler{})
	if err := n.Start("node-1"); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := mem.Dial("node-1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc := wire.NewConn(conn)
	if err := wc.Write(&wire.Hello{NodeID: 2, NodeName: "old-2", Addr: "old-2", ProtoVersion: 2}); err != nil {
		t.Fatal(err)
	}
	if m, err := wc.Read(); err == nil {
		t.Fatalf("node answered a v2 hello with %v", m.Type())
	}
	if got := logs.String(); !strings.Contains(got, "rejecting inbound link: peer 2 (old-2) speaks protocol v2") {
		t.Fatalf("log = %q, want the rejection reason", got)
	}
	if peers := n.Peers(); len(peers) != 0 {
		t.Fatalf("peers = %v, want none", peers)
	}
}

// lockedBuffer is a bytes.Buffer a node's logger can write while a test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestJoinRejectedByReplicateSeed(t *testing.T) {
	mem := netx.NewMem()
	h := newRecordingHandler()
	seed := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 500 * time.Millisecond}, h)
	if err := seed.Start("legacy-1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seed.Close() })

	joiner, _ := startRingNode(t, mem, 2, false)
	err := joiner.JoinSeed(context.Background(), "legacy-1")
	if err == nil {
		t.Fatal("join through a replicate-placement seed succeeded")
	}
}

// TestRejoinWhileSeedRedials: a node that crashed comes back and joins
// through a seed that is redialing it at that moment. Whichever of the two
// dials the pair keeps, the join goes over it and does not wait out a dial
// the seed refused.
func TestRejoinWhileSeedRedials(t *testing.T) {
	for _, ids := range [][2]uint32{{1, 2}, {2, 1}} {
		seedID, joinerID := ids[0], ids[1]
		t.Run(fmt.Sprintf("seed %d joiner %d", seedID, joinerID), func(t *testing.T) {
			mem := netx.NewMem()
			seed, _ := startRingNode(t, mem, seedID, false)
			seedAddr := fmt.Sprintf("ring-%d", seedID)
			joiner, _ := startRingNode(t, mem, joinerID, false)
			for iter := 0; iter < 15; iter++ {
				if err := joiner.JoinSeed(context.Background(), seedAddr); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				waitFor(t, "2-member ring", func() bool {
					return ringHas(seed, 1, 2) && ringHas(joiner, 1, 2)
				})
				joiner.Close()
				// Let the seed's redial loop get going, a little further each time.
				time.Sleep(time.Duration(iter) * 5 * time.Millisecond)
				joiner, _ = startRingNode(t, mem, joinerID, false)
			}
		})
	}
}

// TestForgetPeerForgetsEverything: a departed member leaves nothing behind —
// no score or drop count that stats keep listing and a rejoin would inherit,
// and no dial loop that links it again.
func TestForgetPeerForgetsEverything(t *testing.T) {
	t.Run("score and drops", func(t *testing.T) {
		mem := netx.NewMem()
		a := NewNode(Config{NodeID: 1, Network: mem, FetchTimeout: 100 * time.Millisecond,
			Score: ScoreConfig{Enable: true, Breaker: true}}, NopHandler{})
		b := NewNode(Config{NodeID: 2, Network: mem}, NopHandler{})
		for i, n := range []*Node{a, b} {
			if err := n.Start(fmt.Sprintf("fs-%d", i+1)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
		}
		if err := a.ConnectPeer(2, "fs-2"); err != nil {
			t.Fatal(err)
		}
		b.Close()
		waitFor(t, "the link to fail", func() bool { return a.Ping(context.Background(), 2) != nil })
		// The dead link stays a's link to 2 until it is replaced: fetches fail
		// against 2's score, and broadcasts overflow its undrained queue.
		for i := 0; i < 8; i++ {
			a.FetchRing(context.Background(), 2, "GET /x", 0)
		}
		for i := 0; i < 2*sendQueueLen; i++ {
			a.Broadcast(&wire.Ping{})
		}
		if len(a.PeerScores()) != 1 || a.DroppedByPeer()[2] == 0 {
			t.Fatalf("setup: scores %+v, drops %v", a.PeerScores(), a.DroppedByPeer())
		}

		a.forgetPeer(2)
		for _, s := range a.PeerScores() {
			if s.Peer == 2 {
				t.Errorf("forgotten peer still scored: %+v", s)
			}
		}
		if d, ok := a.DroppedByPeer()[2]; ok {
			t.Errorf("forgotten peer still counts %d drops", d)
		}
	})
	t.Run("dial loop", func(t *testing.T) {
		mem := netx.NewMem()
		aNet, bNet := &refusingNetwork{Network: mem}, &refusingNetwork{Network: mem}
		a := NewNode(Config{NodeID: 1, Network: aNet}, NopHandler{})
		b := NewNode(Config{NodeID: 2, Network: bNet}, NopHandler{})
		for i, n := range []*Node{a, b} {
			if err := n.Start(fmt.Sprintf("fd-%d", i+1)); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
		}
		if err := a.ConnectPeer(2, "fd-2"); err != nil {
			t.Fatal(err)
		}
		// Only a may link the pair again, and its dials fail until 2 has
		// left: the redial loop the lost link starts is still running then.
		bNet.refuse.Store(true)
		aNet.refuse.Store(true)
		a.RecyclePeer(2)
		waitFor(t, "the lost link to be noticed", func() bool { return a.PeerState(2) == PeerSuspect })
		a.forgetPeer(2)
		aNet.refuse.Store(false)

		time.Sleep(20 * dialRetry) // a loop left running links 2 meanwhile: it still listens
		if got := a.Peers(); len(got) != 0 {
			t.Fatalf("links to %v after forgetting 2", got)
		}
	})
}
